"""Register Forwarding Unit: pairing idle lanes with active lanes.

The RFU sits at the output of each SIMT cluster's register banks
(paper Figure 6).  Each of the cluster's MUXes serves one SIMT lane:
when that lane is active the MUX passes the lane's own operands
through; when it is idle, the MUX scans the other lanes of the cluster
in a fixed priority order (Table 1) and forwards the operands of the
first *active* lane it finds — turning the idle lane into a
computational checker for that active lane.

Table 1's priority ordering is exactly ``lane XOR k`` for ``k = 0..3``,
which this module generalizes to any power-of-two cluster size (the
paper's 8-lane-cluster variant in Figure 9(a) uses the 8-wide version).
"""

from __future__ import annotations

from types import MappingProxyType
from typing import Dict, List, Mapping, Tuple

from repro.common.bitops import ActiveMask, lane_slice
from repro.common.errors import ConfigError


def priority_sequence(mux: int, cluster_size: int) -> List[int]:
    """Lane-scan order of MUX *mux* in a *cluster_size*-lane cluster.

    The first entry is always the MUX's own lane (1st priority in
    Table 1): pass-through when active.

    >>> [priority_sequence(m, 4) for m in range(4)]
    [[0, 1, 2, 3], [1, 0, 3, 2], [2, 3, 0, 1], [3, 2, 1, 0]]
    """
    if cluster_size & (cluster_size - 1):
        raise ConfigError(
            f"cluster_size must be a power of two, got {cluster_size}"
        )
    if not 0 <= mux < cluster_size:
        raise ConfigError(f"mux index {mux} outside cluster of {cluster_size}")
    return [mux ^ k for k in range(cluster_size)]


#: Paper Table 1 verbatim: rows are priorities (1st..4th), columns MUXes.
PRIORITY_TABLE: Tuple[Tuple[int, ...], ...] = tuple(
    tuple(priority_sequence(mux, 4)[rank] for mux in range(4))
    for rank in range(4)
)


class RegisterForwardingUnit:
    """Functional model of one cluster-width RFU."""

    def __init__(self, cluster_size: int = 4) -> None:
        if cluster_size & (cluster_size - 1) or cluster_size <= 1:
            raise ConfigError(
                f"cluster_size must be a power of two > 1, got {cluster_size}"
            )
        self.cluster_size = cluster_size
        self._sequences = [
            priority_sequence(mux, cluster_size) for mux in range(cluster_size)
        ]
        # pair_warp results per (hw_mask, warp_size): pure in the mask,
        # and a kernel issues only a handful of distinct masks
        self._warp_pairs: Dict[Tuple[int, int], Mapping[int, int]] = {}

    def pair_cluster(self, cluster_mask: ActiveMask) -> Dict[int, int]:
        """Map each idle lane to the active lane it verifies.

        *cluster_mask* uses cluster-local lane numbering.  Idle lanes
        with no active lane in the cluster stay unmapped.  Several idle
        lanes may verify the same active lane (the paper allows the
        resulting more-than-dual redundancy rather than add MUX logic).

        >>> RegisterForwardingUnit(4).pair_cluster(0b0011)
        {2: 0, 3: 1}

        (The paper's worked example: with active mask 4'b0011, threads
        2 and 3 DMR the execution of threads 0 and 1 — MUX2 scans 3
        then 0 and settles on active lane 0; MUX3 scans 2 then 1.)
        """
        pairs: Dict[int, int] = {}
        for lane in range(self.cluster_size):
            if (cluster_mask >> lane) & 1:
                continue  # active lane: MUX passes through
            for candidate in self._sequences[lane][1:]:
                if (cluster_mask >> candidate) & 1:
                    pairs[lane] = candidate
                    break
        return pairs

    def pair_warp(self, hw_mask: ActiveMask,
                  warp_size: int) -> Mapping[int, int]:
        """Warp-wide pairing: idle hw lane -> active hw lane it verifies.

        Forwarding never crosses a cluster boundary (Section 4.2).  The
        result is memoized per mask and returned read-only;
        :meth:`pair_cluster` stays the Table 1 reference it is built
        from.
        """
        key = (hw_mask, warp_size)
        pairs = self._warp_pairs.get(key)
        if pairs is None:
            pairs = self._warp_pairs[key] = MappingProxyType(
                self._pair_warp(hw_mask, warp_size))
        return pairs

    def _pair_warp(self, hw_mask: ActiveMask,
                   warp_size: int) -> Dict[int, int]:
        if warp_size % self.cluster_size:
            raise ConfigError(
                f"warp_size {warp_size} not a multiple of cluster size "
                f"{self.cluster_size}"
            )
        pairs: Dict[int, int] = {}
        for base in range(0, warp_size, self.cluster_size):
            cluster_mask = lane_slice(hw_mask, base, self.cluster_size)
            if cluster_mask == 0:
                continue  # nothing to verify in this cluster
            for idle, active in self.pair_cluster(cluster_mask).items():
                pairs[base + idle] = base + active
        return pairs

    def verified_lanes(self, hw_mask: ActiveMask,
                       warp_size: int) -> ActiveMask:
        """Mask of active lanes that at least one idle lane verifies."""
        mask = 0
        for active in self.pair_warp(hw_mask, warp_size).values():
            mask |= 1 << active
        return mask


#: Synthesis results the paper reports for the RFU and comparator
#: (Section 4.1, Synopsys Design Compiler, 40 nm / 800 MHz):
RFU_AREA_UM2 = 390.0
COMPARATOR_AREA_UM2 = 622.0
RFU_DELAY_NS = 0.08
COMPARATOR_DELAY_NS = 0.068
TYPICAL_CYCLE_NS = 1.25
