"""Fault models and injection campaigns.

The paper argues coverage analytically; this package lets the
reproduction *measure* detection by injecting the fault classes the
paper discusses — transient bit flips and permanent stuck-at defects in
execution-unit lanes — and classifying each run's outcome (detected /
silent data corruption / masked / hung).

:class:`CampaignEngine` runs campaigns, in-process or across worker
processes, with every ``(workload, config, fault)`` classification
content-addressed in the persistent result cache.
:class:`FaultSampler` draws stratified fault samples so big campaigns
can report coverage with a confidence interval instead of running
exhaustively.
"""

from repro.faults.models import (
    Fault,
    StuckAtFault,
    TransientFault,
    fault_from_payload,
    fault_to_payload,
    flip_bit,
    force_bit,
)
from repro.faults.injector import FaultInjector
from repro.faults.campaign import (
    CampaignEngine,
    CampaignResult,
    CampaignSpec,
    FaultRun,
    Outcome,
    cycle_budget,
    fault_run_key,
)
from repro.faults.sampler import FaultSampler, Stratum, allocate

__all__ = [
    "CampaignEngine",
    "CampaignResult",
    "CampaignSpec",
    "Fault",
    "FaultInjector",
    "FaultRun",
    "FaultSampler",
    "Outcome",
    "Stratum",
    "StuckAtFault",
    "TransientFault",
    "allocate",
    "cycle_budget",
    "fault_from_payload",
    "fault_run_key",
    "fault_to_payload",
    "flip_bit",
    "force_bit",
]
