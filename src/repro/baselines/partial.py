"""Partial thread protection (Yang et al., arXiv 2103.02825).

Full DMR verifies everything; partial protection spends a *budget* on
only the most vulnerable program points, chosen from measurements the
fault campaign already produced.  Two knobs exist on
:class:`~repro.common.config.DMRConfig`:

* ``protected_pcs`` — verify only instructions at these PCs (the
  instruction-level budget; unprotected PCs skip DMR entirely, so the
  ReplayQ pressure — and the measured cycle overhead — genuinely
  shrinks with the budget);
* ``protected_mask`` — verify only these hardware lanes (the
  thread-level knob).

The selection policy here is **deterministic** and built from cached
campaign classifications: a :class:`VulnerabilityProfile` counts, per
PC, how often a detected fault surfaced there (the PCs the checker
actually catches errors at) and, per lane, how often a fault on that
lane mattered (neither masked nor hung).  Selection sorts by
``(-weight, site)`` and takes the top *budget* — same runs, same
profile, same protected set, so the chosen set is reproducible and,
once placed in ``DMRConfig.protected_pcs``, automatically part of
every result-cache key (config fingerprints expand all fields).
"""

from __future__ import annotations

import collections
from dataclasses import dataclass
from typing import Iterable, Tuple


@dataclass(frozen=True)
class VulnerabilityProfile:
    """Campaign-measured vulnerability, per PC and per hardware lane.

    Both weight tables are sorted descending by weight (site ascending
    on ties), so the profile itself is canonical plain data.
    """

    pc_weights: Tuple[Tuple[int, int], ...]    # (pc, detections there)
    lane_weights: Tuple[Tuple[int, int], ...]  # (lane, harmful faults)


def _ranked(counter: collections.Counter) -> Tuple[Tuple[int, int], ...]:
    return tuple(sorted(counter.items(), key=lambda kv: (-kv[1], kv[0])))


def vulnerability_profile(runs: Iterable) -> VulnerabilityProfile:
    """Build a profile from classified campaign runs.

    *runs* are :class:`~repro.faults.campaign.FaultRun` objects — e.g.
    a full-DMR calibration campaign's (cached) output.  PC weights come
    from the recorded detection PCs of detected runs; lane weights from
    the injected lane of every harmful (non-masked, non-hung) run.
    """
    from repro.faults.campaign import Outcome

    pc_counts: collections.Counter = collections.Counter()
    lane_counts: collections.Counter = collections.Counter()
    for run in runs:
        if run.outcome in (Outcome.DETECTED, Outcome.DETECTED_AND_CORRUPT):
            for pc in (run.pcs or ()):
                pc_counts[pc] += 1
        if run.outcome not in (Outcome.MASKED, Outcome.HUNG):
            lane_counts[run.fault.hw_lane] += 1
    return VulnerabilityProfile(pc_weights=_ranked(pc_counts),
                                lane_weights=_ranked(lane_counts))


def select_protected_pcs(profile: VulnerabilityProfile,
                         budget: int) -> Tuple[int, ...]:
    """The *budget* most vulnerable PCs, as a sorted tuple.

    Deterministic: weight-descending, PC-ascending on ties.  Fewer
    measured PCs than budget protects them all; an empty profile
    protects nothing (the degenerate zero-coverage scheme).
    """
    if budget < 0:
        raise ValueError(f"budget must be >= 0, got {budget}")
    chosen = [pc for pc, _ in profile.pc_weights[:budget]]
    return tuple(sorted(chosen))


def select_protected_lanes(profile: VulnerabilityProfile,
                           budget: int) -> int:
    """Hardware-lane mask covering the *budget* most vulnerable lanes."""
    if budget < 0:
        raise ValueError(f"budget must be >= 0, got {budget}")
    mask = 0
    for lane, _ in profile.lane_weights[:budget]:
        mask |= 1 << lane
    return mask
