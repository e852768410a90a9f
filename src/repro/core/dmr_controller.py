"""DMR controller: the per-SM facade gluing Warped-DMR into the pipeline.

The SM calls four hooks (see :mod:`repro.sim.sm`):

* ``check_raw(warp_id, srcs)`` before issue, with the source registers
  from the program's decode table — the RAW-on-unverified rule;
* ``on_issue(event, executor)`` after issue — dispatches to intra-warp
  DMR (partially utilized) or the Replay Checker (fully utilized) and
  returns stall cycles to charge;
* ``on_idle(cycle)`` on no-issue cycles — free verification slots;
* ``on_kernel_end(cycle)`` — ReplayQ flush.

Redundant executions are compared lane by lane if and only if the
executor is ``faulty`` (a fault hook is armed, so issue events carry
lane values); otherwise the controller reads only an issue's pc,
opcode, unit and masks.  One optional declaration lets the SM skip
idle cycles while a controller is attached (DESIGN.md §10):
``quiescent()`` — ``True`` when an idle cycle would be a no-op.  A
controller that does not declare it gets per-cycle idle calls.
"""

from __future__ import annotations

from typing import Optional, Tuple

from repro.common.bitops import count_active
from repro.common.config import DMRConfig, GPUConfig
from repro.core.comparator import ResultComparator
from repro.core.coverage import CoverageReport, is_coverable
from repro.core.inter_warp import ReplayChecker
from repro.core.intra_warp import IntraWarpDMR
from repro.obs.metrics import MetricsRegistry
from repro.sim.events import IssueEvent
from repro.sim.executor import Executor


class DMRController:
    """One Warped-DMR instance (one per SM, like the ReplayQ)."""

    def __init__(
        self,
        gpu_config: GPUConfig,
        dmr_config: DMRConfig,
        stats: MetricsRegistry,
        probe: Optional[object] = None,
    ) -> None:
        self.gpu_config = gpu_config
        self.config = dmr_config
        self.stats = stats
        self.comparator = ResultComparator()
        # partial thread protection: None protects everything (and every
        # gate below short-circuits to the pre-knob behaviour)
        self._protected_pcs = (
            frozenset(dmr_config.protected_pcs)
            if dmr_config.protected_pcs is not None else None
        )
        self.intra = IntraWarpDMR(
            cluster_size=gpu_config.cluster_size,
            stats=stats,
            comparator=self.comparator,
            probe=probe,
            protected_mask=dmr_config.protected_mask,
        )
        self.checker = ReplayChecker(
            cluster_size=gpu_config.cluster_size,
            dmr_config=dmr_config,
            stats=stats,
            comparator=self.comparator,
            probe=probe,
        )
        if probe is not None:
            # per-cycle ReplayQ depth sampling (see PipelineProbe.on_cycle)
            probe.bind_queue_depth(lambda: len(self.checker.replayq))

    # -- SM hooks ----------------------------------------------------------
    def check_raw(self, warp_id: int, srcs: Tuple[int, ...]) -> int:
        if not self.config.enabled:
            return 0
        return self.checker.check_raw(warp_id, srcs)

    def _protects(self, event: IssueEvent) -> bool:
        """Partial-protection gate: does DMR verify this issue at all?"""
        if (self._protected_pcs is not None
                and event.pc not in self._protected_pcs):
            return False
        mask = self.config.protected_mask
        if mask is not None and not (event.hw_mask & mask):
            return False
        return True

    def _protected_count(self, event: IssueEvent) -> int:
        """Active lanes the lane mask actually lets the checker verify."""
        mask = self.config.protected_mask
        if mask is None:
            return event.active_count
        return count_active(event.hw_mask & mask)

    def on_issue(self, event: IssueEvent, executor: Executor) -> int:
        if not self.config.enabled:
            return 0
        eligible = is_coverable(event.instruction.opcode) and event.active_count > 0
        if eligible:
            self.stats.inc("coverage_eligible_lanes", event.active_count)

        if not self._protects(event):
            # Unprotected instruction: no verification is spent on it,
            # but it is still the DEC/SCHED instruction of Algorithm 1 —
            # the pending latch resolves against it and idle units drain.
            return self.checker.observe_other_issue(event, executor)

        if event.is_full:
            stall = self.checker.accept(event, executor)
            if eligible:
                # Every fully utilized instruction is verified on one of
                # Algorithm 1's paths (co-execute, buffered replay,
                # eager re-execution, or the kernel-end flush).
                verified = self._protected_count(event)
                self.stats.inc("coverage_verified_lanes", verified)
                self.stats.inc("coverage_inter_lanes", verified)
            return stall

        stall = self.checker.observe_other_issue(event, executor)
        if eligible:
            verified = self.intra.process(event, executor)
            self.stats.inc("coverage_verified_lanes", verified)
            self.stats.inc("coverage_intra_lanes", verified)
        return stall

    def on_idle(self, cycle: int) -> None:
        if self.config.enabled:
            self.checker.on_idle(cycle)

    def quiescent(self) -> bool:
        """Whether :meth:`on_idle` is a no-op until the next issue."""
        return not self.config.enabled or self.checker.quiescent()

    def on_kernel_end(self, cycle: int) -> int:
        if not self.config.enabled:
            return 0
        return self.checker.flush(cycle)

    # -- reporting -----------------------------------------------------------
    @property
    def detections(self) -> list:
        return self.comparator.detections

    def coverage_report(self) -> CoverageReport:
        return CoverageReport.from_stats(self.stats)
