"""DMTR: dual-modular temporal redundancy (simplified 1-cycle-slack SRT).

The paper's strawman hardware baseline (Section 5.3): *every*
instruction is redundantly executed on the cycle after its original
execution, unconditionally.  On a single-issue SM that means each
instruction consumes two issue slots — full coverage, ~2x kernel time,
no extra transfer.

Implemented as a drop-in replacement for the per-SM DMR controller
(same hook protocol as :class:`repro.core.dmr_controller.DMRController`,
comparing lane values only on a faulty executor), so a DMTR launch
without a fault hook is timing-only and records or replays its control
flow like any other.  It verifies every eligible lane the SM counts.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from repro.common.bitops import active_lane_list
from repro.obs.metrics import MetricsRegistry
from repro.core.comparator import ResultComparator
from repro.sim.events import IssueEvent
from repro.sim.executor import Executor


class DMTRController:
    """Verify every instruction one cycle after it executes."""

    def __init__(self, stats: MetricsRegistry) -> None:
        self.stats = stats
        self.comparator = ResultComparator()

    # -- SM hook protocol ---------------------------------------------------
    def check_raw(self, warp_id: int, srcs: Tuple[int, ...]) -> int:
        # With a 1-cycle slack every result is verified before any
        # realistic consumer (>= 8-cycle RAW distance) arrives.
        return 0

    def on_issue(self, event: IssueEvent,
                 executor: Optional[Executor]) -> int:
        self.stats.inc("dmtr_replays")
        self.stats.inc(f"verify_unit_{event.unit.value}")
        if executor is not None and executor.faulty:
            # Core-affinity replay: DMTR re-executes on the same lane
            # (the hidden-error weakness Warped-DMR's lane shuffling
            # avoids).
            self.comparator.verify(
                executor, event,
                ((lane, lane) for lane in
                 active_lane_list(event.hw_mask, event.warp_width)),
                event.cycle + 1, "inter",
            )
        # The redundant execution consumes the following issue slot.
        return 1

    def on_idle(self, cycle: int) -> None:
        return None

    def on_kernel_end(self, cycle: int) -> int:
        eligible = self.stats.value("coverage_eligible_lanes")
        if eligible:
            self.stats.inc("coverage_verified_lanes", eligible)
        return 0

    @property
    def detections(self) -> List:
        return self.comparator.detections
