"""DMR controller: the per-SM facade gluing Warped-DMR into the pipeline.

The SM calls four hooks (see :mod:`repro.sim.sm`):

* ``check_raw(warp_id, srcs)`` before issue, with the source registers
  from the program's decode table — the RAW-on-unverified rule;
* ``on_issue(event, executor)`` after issue — dispatches to intra-warp
  DMR (partially utilized) or the Replay Checker (fully utilized) and
  returns stall cycles to charge;
* ``on_idle(cycle)`` on no-issue cycles — free verification slots;
* ``on_kernel_end(cycle)`` — ReplayQ flush, then the derived counters.

Each DMR outcome is counted once, when it happens; the counters that
restate others are derived in :meth:`DMRController.on_kernel_end`
(DESIGN.md §7).  Only :meth:`repro.sim.gpu.GPU.launch` decides whether
DMR runs.

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
from repro.core.inter_warp import VERIFY_PATHS, ReplayChecker
from repro.core.intra_warp import IntraWarpDMR
from repro.isa.opcodes import UnitType
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
        self._probe = probe
        # the engines' probe hooks only draw Chrome-trace instants
        trace_probe = (probe if getattr(probe, "tracer", None) is not None
                       else None)
        self.intra = IntraWarpDMR(
            cluster_size=gpu_config.cluster_size,
            stats=stats,
            comparator=self.comparator,
            probe=trace_probe,
            protected_mask=dmr_config.protected_mask,
        )
        self.checker = ReplayChecker(
            cluster_size=gpu_config.cluster_size,
            dmr_config=dmr_config,
            stats=stats,
            comparator=self.comparator,
            probe=trace_probe,
        )
        if probe is not None:
            # per-cycle ReplayQ depth sampling (see PipelineProbe.on_cycle)
            probe.bind_queue_depth(lambda: len(self.checker.replayq))

    # -- SM hooks ----------------------------------------------------------
    def check_raw(self, warp_id: int, srcs: Tuple[int, ...]) -> int:
        return self.checker.check_raw(warp_id, srcs)

    def _protects(self, event: IssueEvent) -> bool:
        """Partial-protection gate: does DMR verify this issue at all?"""
        pcs, mask = self._protected_pcs, self.config.protected_mask
        return ((pcs is None or event.pc in pcs)
                and (mask is None or event.hw_mask & mask != 0))

    def on_issue(self, event: IssueEvent, executor: Executor) -> int:
        if not self._protects(event):
            # Unprotected instruction: no verification is spent on it,
            # but it is still the DEC/SCHED instruction of Algorithm 1 —
            # the pending latch resolves against it and idle units drain.
            return self.checker.observe_other_issue(event, executor)

        if event.is_full:
            stall = self.checker.accept(event, executor)
            if event.coverable:
                # Every fully utilized instruction is verified on one of
                # Algorithm 1's paths (co-execute, buffered replay,
                # eager re-execution, or the kernel-end flush).
                mask = self.config.protected_mask
                self.stats.inc("coverage_inter_lanes",
                               event.active_count if mask is None
                               else count_active(event.hw_mask & mask))
            return stall

        stall = self.checker.observe_other_issue(event, executor)
        if event.coverable and event.active_count:
            self.intra.process(event, executor)
        return stall

    def on_idle(self, cycle: int) -> None:
        self.checker.on_idle(cycle)

    def quiescent(self) -> bool:
        """Whether :meth:`on_idle` is a no-op until the next issue."""
        return self.checker.quiescent()

    def on_kernel_end(self, cycle: int) -> int:
        """Flush the ReplayQ, then derive every counter that restates
        per-issue ones; returns the flush's cycles."""
        flush = self.checker.flush(cycle)
        stats, value = self.stats, self.stats.value
        pairings = value("intra_warp_instructions")
        intra = value("intra_warp_verified_lanes")
        accepted = value("coverage_inter_lanes")
        redundant = sum(value(f"intra_redundant_lanes_{unit.value}")
                        for unit in UnitType)
        paths = {how: value(f"inter_warp_verify_{how}")
                 for how in VERIFY_PATHS}
        verified = sum(paths.values())
        enqueues = value("replayq_enqueues")
        # the checker only takes full warps; every RFU pair copies onto
        # another lane, and so does the checker when shuffling lanes
        replayed = self.gpu_config.warp_size * verified
        shuffled = replayed if self.config.lane_shuffle else 0
        obs = None if self._probe is None else self._probe.registry
        # (registry, counter, amount, whether a counter it restates exists)
        derived = [
            (stats, "coverage_intra_lanes", intra, pairings),
            (stats, "intra_warp_redundant_executions", redundant, pairings),
            (stats, "coverage_verified_lanes", intra + accepted,
             pairings or accepted),
            (stats, "inter_warp_verified_instructions", verified, verified),
            (obs, "dmr_pair_intra", pairings, pairings),
            (obs, "dmr_pair_intra_lanes", intra, pairings),
            (obs, "dmr_pair_inter", verified, verified),
            (obs, "dmr_pair_inter_lanes", replayed, verified),
            (obs, "dmr_enqueues", enqueues, enqueues),
            (obs, "dmr_shuffled_pairs", redundant + shuffled,
             pairings or shuffled),
        ] + [(obs, f"dmr_inter_{how}", count, count)
             for how, count in paths.items()]
        for registry, name, amount, exists in derived:
            if exists and registry is not None:
                registry.inc(name, amount)
        return flush

    # -- reporting -----------------------------------------------------------
    @property
    def detections(self) -> list:
        return self.comparator.detections
