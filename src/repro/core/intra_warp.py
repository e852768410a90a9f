"""Intra-warp DMR (paper Section 3.1).

When a warp is partially utilized, the RFU pairs each idle SIMT lane
with an active lane of its own cluster; the idle lane re-executes the
active lane's computation in the *same cycle* and the comparator checks
the two results — verification is free.

Active lanes nobody pairs with (more actives than idles in a cluster)
stay unverified this cycle: that is exactly the paper's coverage gap
for highly utilized warps.
"""

from __future__ import annotations

from typing import Optional

from repro.core.comparator import ResultComparator
from repro.core.rfu import RegisterForwardingUnit
from repro.obs.metrics import MetricsRegistry
from repro.sim.events import IssueEvent
from repro.sim.executor import Executor


class IntraWarpDMR:
    """Spatial redundancy engine for partially utilized warps."""

    def __init__(
        self,
        cluster_size: int,
        stats: MetricsRegistry,
        comparator: ResultComparator,
        probe: Optional[object] = None,
        protected_mask: Optional[int] = None,
    ) -> None:
        self.rfu = RegisterForwardingUnit(cluster_size)
        self.stats = stats
        self.comparator = comparator
        self.probe = probe
        # partial thread protection: only originals in this lane mask
        # are re-executed (None = every active lane, the full scheme)
        self.protected_mask = protected_mask

    def process(self, event: IssueEvent,
                executor: Optional[Executor]) -> int:
        """Verify *event* using idle lanes; returns verified lane count.

        Zero-cost: no stall cycles are ever charged.
        """
        pairs = self.rfu.pair_warp(event.hw_mask, event.warp_width)
        if self.protected_mask is not None:
            pairs = {
                verifier: original for verifier, original in pairs.items()
                if (self.protected_mask >> original) & 1
            }
        verified = len(set(pairs.values()))

        stats = self.stats
        stats.inc("intra_warp_instructions")
        stats.inc("intra_warp_verified_lanes", verified)
        stats.inc(f"intra_redundant_lanes_{event.unit.value}", len(pairs))
        if self.probe is not None:
            self.probe.on_intra_pairing(event, verified, len(pairs))

        if executor is not None and executor.faulty:
            self.comparator.verify(
                executor, event,
                ((original, verifier) for verifier, original in pairs.items()),
                event.cycle, "intra",
            )
        return verified
