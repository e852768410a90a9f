"""Error-coverage accounting (paper Section 3.3 and Figure 9(a)).

Coverage is measured over *thread-instructions*: each active lane of
each issued computation instruction is one unit of work that either was
redundantly executed (verified) or was not.  Control/bookkeeping
opcodes with no datapath computation (NOP, BAR, EXIT, JMP) are excluded
— there is nothing to verify (``OpInfo.coverable``).  The verified lanes
are derived when each SM finishes: read a finished run's stats.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.obs.metrics import MetricsRegistry


def theoretical_intra_warp_coverage(active_threads: int,
                                    warp_size: int = 32) -> float:
    """Paper Section 3.3's closed form for intra-warp DMR coverage.

    100% when at most half the warp is active (every active thread has
    a checker available), else ``inactive / active``.

    >>> theoretical_intra_warp_coverage(16, 32)
    1.0
    >>> theoretical_intra_warp_coverage(24, 32)
    0.3333333333333333
    """
    if not 0 < active_threads <= warp_size:
        raise ValueError(
            f"active_threads must be in (0, {warp_size}], got {active_threads}"
        )
    inactive = warp_size - active_threads
    if active_threads <= warp_size // 2:
        return 1.0
    return inactive / active_threads


@dataclass(frozen=True)
class CoverageReport:
    """Measured coverage of one simulation run."""

    eligible_lanes: int
    verified_lanes: int
    intra_verified_lanes: int
    inter_verified_lanes: int
    intra_instructions: int
    inter_instructions: int

    @property
    def coverage(self) -> float:
        """Fraction of thread-instructions verified (paper's metric)."""
        if self.eligible_lanes == 0:
            return 1.0
        return self.verified_lanes / self.eligible_lanes

    @property
    def coverage_percent(self) -> float:
        return 100.0 * self.coverage

    @classmethod
    def from_stats(cls, stats: MetricsRegistry) -> "CoverageReport":
        return cls(
            eligible_lanes=stats.value("coverage_eligible_lanes"),
            verified_lanes=stats.value("coverage_verified_lanes"),
            intra_verified_lanes=stats.value("coverage_intra_lanes"),
            inter_verified_lanes=stats.value("coverage_inter_lanes"),
            intra_instructions=stats.value("intra_warp_instructions"),
            inter_instructions=stats.value("inter_warp_instructions"),
        )

    def __str__(self) -> str:
        return (
            f"coverage {self.coverage_percent:.2f}% "
            f"({self.verified_lanes}/{self.eligible_lanes} thread-insts; "
            f"intra {self.intra_verified_lanes}, "
            f"inter {self.inter_verified_lanes})"
        )
