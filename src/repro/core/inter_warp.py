"""Inter-warp DMR: the Replay Checker and Algorithm 1 (paper Section 4.3).

Pipeline framing: when a fully utilized instruction sits in the first
RF stage, the instruction one cycle behind it is in DEC/SCHED.  In this
issue-stream model the checker therefore holds each fully utilized
issue in a one-deep *pending latch* and resolves it when the next issue
(or an idle cycle) arrives:

* next issue uses a **different** unit type → co-execute the DMR copy on
  the pending instruction's now-idle unit: verified for free.
* same type → look in the ReplayQ for any buffered entry of a different
  type; if found, that entry co-executes with the new issue and the
  pending instruction takes its ReplayQ slot.
* otherwise, if the ReplayQ has room → enqueue (verify later).
* otherwise (full) → insert one stall cycle and eagerly re-execute with
  the operands still in the pipeline (paper's 1-cycle penalty).

Idle issue cycles drain the latch and then the queue, one entry per
cycle.  A consumer of an unverified buffered result stalls the pipeline
until its producer is verified (RAW rule).  Lane shuffling places every
redundant execution on a different SP of the same SIMT cluster so
stuck-at faults cannot hide.
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

from repro.common.bitops import active_lane_list, count_active
from repro.common.config import DMRConfig
from repro.core.comparator import ResultComparator
from repro.core.mapping import shuffled_lane
from repro.core.replayq import ReplayQ
from repro.isa.opcodes import UnitType
from repro.obs.metrics import MetricsRegistry
from repro.sim.events import IssueEvent
from repro.sim.executor import Executor

UNITS = tuple(UnitType)  # drain order

#: the paths an instruction is verified on (``inter_warp_verify_<how>``)
VERIFY_PATHS = ("coexec", "coexec_from_queue", "eager", "coexec_idle",
                "drain_idle", "raw_forced", "flush")


class ReplayChecker:
    """Temporal redundancy engine for fully utilized warps."""

    def __init__(
        self,
        cluster_size: int,
        dmr_config: DMRConfig,
        stats: MetricsRegistry,
        comparator: ResultComparator,
        probe: Optional[object] = None,
    ) -> None:
        self.cluster_size = cluster_size
        self.config = dmr_config
        self.stats = stats
        self.comparator = comparator
        self.probe = probe
        self.replayq = ReplayQ(dmr_config.replayq_entries)
        self._pending: Optional[IssueEvent] = None
        # (warp_id, reg) -> producing entry still unverified in the queue
        self._unverified: Dict[Tuple[int, int], IssueEvent] = {}
        self._executor: Optional[Executor] = None

    # ------------------------------------------------------------------
    # Hooks called by the DMR controller
    # ------------------------------------------------------------------
    def accept(self, event: IssueEvent, executor: Optional[Executor]) -> int:
        """A fully utilized instruction issued: latch it for DMR.

        Returns stall cycles charged while resolving the *previous*
        pending instruction (the latch is one deep).
        """
        self._executor = executor
        stall, verified = self._resolve_pending(next_event=event)
        self._drain_idle_units(event.cycle, event.unit, verified)
        self._pending = event
        self.stats.inc("inter_warp_instructions")
        return stall

    def observe_other_issue(self, event: IssueEvent,
                            executor: Optional[Executor]) -> int:
        """A non-fully-utilized instruction issued (intra-warp handles
        it); it still resolves the pending latch as the DEC/SCHED
        instruction of Algorithm 1."""
        self._executor = executor
        stall, verified = self._resolve_pending(next_event=event)
        self._drain_idle_units(event.cycle, event.unit, verified)
        return stall

    def on_idle(self, cycle: int) -> None:
        """No issue this cycle: every unit is idle — verify for free."""
        pending, self._pending = self._pending, None
        if pending is not None:
            self._verify(pending, cycle, "coexec_idle")
        self._drain_idle_units(
            cycle, None, None if pending is None else pending.unit)

    def quiescent(self) -> bool:
        """Nothing latched or buffered: :meth:`on_idle` would do nothing
        (and stays a no-op until the next issue)."""
        return self._pending is None and self.replayq.is_empty

    def _drain_idle_units(self, cycle: int, issued: Optional[UnitType],
                          verified: Optional[UnitType]) -> None:
        """One verification per execution-unit type that neither this
        cycle's issue nor its verification occupies (*issued*,
        *verified*; ``None`` for none): "re-executed whenever the
        corresponding execution unit becomes available" (Section 3.2)."""
        if self.replayq.is_empty:
            return
        for unit in UNITS:
            if unit is issued or unit is verified:
                continue
            entry = self.replayq.dequeue_of_type(unit)
            if entry is None:
                continue
            self._forget_unverified(entry)
            self._verify(entry, cycle, "drain_idle")
            self.stats.inc("replayq_idle_drains")

    def check_raw(self, warp_id: int, srcs: Tuple[int, ...]) -> int:
        """RAW-on-unverified rule: verify buffered producers of the
        source registers *srcs* first.

        Returns the stall cycles to charge (one per producer verified).
        """
        stalls = 0
        for reg in srcs:
            entry = self._unverified.get((warp_id, reg))
            if entry is None:
                continue
            if self.replayq.remove(entry):
                self._forget_unverified(entry)
                self._verify(entry, entry.cycle, "raw_forced")
                stalls += 1
        return stalls

    def flush(self, cycle: int) -> int:
        """Kernel end: verify the latch and every buffered entry.

        Returns the cycles consumed (one per verification).
        """
        cycles = 0
        if self._pending is not None:
            self._verify(self._pending, cycle, "flush")
            self._pending = None
            cycles += 1
        for entry in self.replayq.drain():
            self._forget_unverified(entry)
            self._verify(entry, cycle + cycles, "flush")
            cycles += 1
        self._unverified.clear()
        return cycles

    # ------------------------------------------------------------------
    # Algorithm 1
    # ------------------------------------------------------------------
    def _resolve_pending(self, next_event: IssueEvent) -> tuple:
        """Algorithm 1.  Returns ``(stall_cycles, verified_unit)``: the
        unit type this cycle's verification occupies, or ``None``."""
        pending = self._pending
        if pending is None:
            return 0, None
        self._pending = None

        if pending.unit is not next_event.unit:
            # Different type in DEC/SCHED: co-execute the DMR copy.
            self._verify(pending, next_event.cycle, "coexec")
            self.stats.inc("inter_warp_coexec")
            return 0, pending.unit

        entry = self.replayq.dequeue_different_type(pending.unit)
        if entry is not None:
            # Swap: the buffered different-type entry rides along with
            # the new issue; the pending instruction takes its slot.
            self._forget_unverified(entry)
            self._verify(entry, next_event.cycle, "coexec_from_queue")
            self._enqueue(pending)
            self.stats.inc("replayq_swaps")
            return 0, entry.unit

        if self.replayq.is_full:
            # Eager re-execution: one stall cycle, operands still in
            # the pipeline (paper).  The non-eager ablation re-reads the
            # register file, costing a second cycle.
            self._verify(pending, next_event.cycle, "eager")
            self.stats.inc("replayq_full_stalls")
            return (1 if self.config.eager_reexecution else 2), None

        self._enqueue(pending)
        return 0, None

    def _enqueue(self, event: IssueEvent) -> None:
        self.replayq.enqueue(event)
        if event.dest_reg is not None:
            self._unverified[(event.warp_id, event.dest_reg)] = event
        self.stats.inc("replayq_enqueues")
        if self.probe is not None:
            self.probe.on_enqueue(event, len(self.replayq))

    def _forget_unverified(self, entry: IssueEvent) -> None:
        if entry.dest_reg is None:
            return
        key = (entry.warp_id, entry.dest_reg)
        if self._unverified.get(key) is entry:
            del self._unverified[key]

    # ------------------------------------------------------------------
    # Verification proper
    # ------------------------------------------------------------------
    def _verify(self, event: IssueEvent, cycle: int, how: str) -> None:
        """Redundantly execute *event* on (shuffled) lanes and compare."""
        mask = self.config.protected_mask
        verified = (event.active_count if mask is None
                    else count_active(event.hw_mask & mask))
        stats = self.stats
        stats.inc("inter_warp_verified_lanes", verified)
        stats.inc(f"inter_warp_verify_{how}")
        stats.inc(f"verify_unit_{event.unit.value}")
        if self.probe is not None:
            self.probe.on_inter_verify(event, how, cycle,
                                       shuffled=self.config.lane_shuffle)
        executor = self._executor
        if executor is None or not executor.faulty:
            return
        # partial thread protection: unprotected lanes get no replay
        lanes = active_lane_list(
            event.hw_mask if mask is None else event.hw_mask & mask,
            event.warp_width)
        shuffle = self.config.lane_shuffle
        self.comparator.verify(
            executor, event,
            ((lane, shuffled_lane(lane, self.cluster_size) if shuffle
              else lane) for lane in lanes),
            cycle, "inter",
        )

    # ------------------------------------------------------------------
    @property
    def pending(self) -> Optional[IssueEvent]:
        return self._pending

    @property
    def queue_occupancy(self) -> int:
        return len(self.replayq)
