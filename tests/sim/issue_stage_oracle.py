"""Issue-stage oracle fixture: generation and shared plumbing.

``issue_stage_oracle.json`` pins the full result payload of every
launch in a grid that covers each way the SM's issue stage can run:
the four :mod:`tests.sim.test_cycle_skip` kernels, one or two warp
schedulers, round-robin, greedy-then-oldest or a seeded schedule,
obs off or ``"metrics"``, and Warped-DMR off or at the paper's default.
Every cell is launched twice on one freshly built program, so its
first launch records control flow and its second replays it
(:mod:`repro.sim.replay`); the fixture keeps both digests.  A digest is
the SHA-256 of :meth:`KernelResult.to_payload` (obs included) in
canonical JSON.  :mod:`tests.sim.test_issue_stage_oracle` holds the
current code to it.

A second list, the *accounting* cells, pins every counter the DMR
controllers, the Replay Checker and the obs probe write: the four
kernels with obs ``"metrics"`` under each writer's variant (paper DMR;
no lane shuffle, no eager re-execution and a one-entry ReplayQ;
protected PCs; a protected lane mask; DMTR and sampling DMR through
``controller_factory``; a transient and a stuck-at fault; two
schedulers with register-bank conflicts).  Faulted cells execute both
launches.

Regenerate (only after an *intentional* change to issue timing, stats
or obs output) with::

    PYTHONPATH=src python -m tests.sim.issue_stage_oracle

and review the JSON diff like source.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import pathlib
from typing import Dict, List, Tuple

from repro.baselines.dmtr import DMTRController
from repro.baselines.sampling import sampling_factory
from repro.common.config import (DMRConfig, GPUConfig, LaunchConfig,
                                 SchedulerPolicy)
from repro.faults.injector import FaultInjector
from repro.faults.models import StuckAtFault, TransientFault
from repro.isa.opcodes import UnitType
from repro.sim.gpu import GPU, KernelResult
from repro.sim.memory import GlobalMemory

from tests.sim.test_cycle_skip import KERNELS

FIXTURE_PATH = pathlib.Path(__file__).with_name("issue_stage_oracle.json")

#: scheduler variants: policy and schedule seed
SCHEDULES = {
    "rr": (SchedulerPolicy.ROUND_ROBIN, None),
    "gto": (SchedulerPolicy.GREEDY_THEN_OLDEST, None),
    "seed7": (SchedulerPolicy.ROUND_ROBIN, 7),
}
SCHEDULER_COUNTS = (1, 2)
OBS_MODES = ("off", "metrics")
DMR_MODES = ("off", "paper")


def cells() -> List[Tuple[str, int, str, str, str]]:
    """Every ``(kernel, schedulers, schedule, obs, dmr)`` cell."""
    return list(itertools.product(sorted(KERNELS), SCHEDULER_COUNTS,
                                  SCHEDULES, OBS_MODES, DMR_MODES))


def cell_id(cell) -> str:
    kernel, schedulers, schedule, obs, dmr = cell
    return f"{kernel}/sched{schedulers}/{schedule}/obs-{obs}/dmr-{dmr}"


def payload_digest(result) -> str:
    """SHA-256 of the result's payload in canonical JSON."""
    text = json.dumps(result.to_payload(), sort_keys=True,
                      separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def launch_cell(cell) -> List[KernelResult]:
    """The cell's two launches of one program: record, then replay."""
    kernel, schedulers, schedule, obs, dmr = cell
    build, geometry = KERNELS[kernel]
    policy, seed = SCHEDULES[schedule]
    config = GPUConfig(num_sms=2, num_schedulers=schedulers,
                       scheduler=policy, schedule_seed=seed, engine="fast")
    dmr_config = (DMRConfig.paper_default() if dmr == "paper"
                  else DMRConfig.disabled())
    program = build()
    launch = LaunchConfig(grid_dim=geometry["grid"],
                          block_dim=geometry["block"])
    results = []
    for _ in range(2):
        gpu = GPU(config, dmr=dmr_config,
                  obs="metrics" if obs == "metrics" else False)
        results.append(gpu.launch(program, launch, memory=GlobalMemory()))
    return results


#: accounting variants, each a different writer of the DMR counters
ACCOUNTING = ("paper", "lazy-q1", "protected-pcs", "protected-mask",
              "dmtr", "sampling", "transient", "stuck-at", "sched2-bank")


def accounting_cells() -> List[Tuple[str, str]]:
    """Every ``(kernel, variant)`` accounting cell."""
    return list(itertools.product(sorted(KERNELS), ACCOUNTING))


def accounting_cell_id(cell) -> str:
    kernel, variant = cell
    return f"accounting/{kernel}/{variant}"


def launch_accounting_cell(cell) -> List[KernelResult]:
    """The accounting cell's two launches of one program, obs on."""
    kernel, variant = cell
    build, geometry = KERNELS[kernel]
    program = build()
    config = GPUConfig(num_sms=2, engine="fast",
                       num_schedulers=2 if variant == "sched2-bank" else 1,
                       model_bank_conflicts=variant == "sched2-bank")
    dmr = DMRConfig.paper_default()
    if variant == "lazy-q1":
        dmr = DMRConfig(lane_shuffle=False, eager_reexecution=False,
                        replayq_entries=1)
    elif variant == "protected-pcs":
        dmr = dmr.with_protected_pcs(range(0, len(program), 2))
    elif variant == "protected-mask":
        dmr = DMRConfig(protected_mask=0x0F0F0F0F)
    elif variant == "dmtr":
        dmr = DMRConfig.disabled()
    factory = {
        "dmtr": lambda stats: DMTRController(stats),
        "sampling": sampling_factory(config, epoch_cycles=64,
                                     sample_cycles=16),
    }.get(variant)
    faults = {
        "transient": [TransientFault(sm_id=0, hw_lane=3, unit=UnitType.SP,
                                     bit=6, cycle=20)],
        "stuck-at": [StuckAtFault(sm_id=0, hw_lane=5, unit=UnitType.SP,
                                  bit=0, stuck_to=0)],
    }.get(variant)
    launch = LaunchConfig(grid_dim=geometry["grid"],
                          block_dim=geometry["block"])
    results = []
    for _ in range(2):
        gpu = GPU(config, dmr=dmr, obs="metrics",
                  fault_hook=None if faults is None
                  else FaultInjector(faults))
        results.append(gpu.launch(program, launch, memory=GlobalMemory(),
                                  controller_factory=factory))
    return results


def load_fixture() -> Dict[str, List[str]]:
    with open(FIXTURE_PATH, "r", encoding="utf-8") as handle:
        return json.load(handle)


def main() -> int:
    fixture = {cell_id(cell): [payload_digest(result)
                               for result in launch_cell(cell)]
               for cell in cells()}
    fixture.update(
        (accounting_cell_id(cell),
         [payload_digest(result) for result in launch_accounting_cell(cell)])
        for cell in accounting_cells())
    lines = [f"{json.dumps(key)}: {json.dumps(fixture[key])}"
             for key in sorted(fixture)]
    with open(FIXTURE_PATH, "w", encoding="utf-8") as handle:
        handle.write("{\n" + ",\n".join(lines) + "\n}\n")
    print(f"wrote {len(fixture)} cells to {FIXTURE_PATH}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
