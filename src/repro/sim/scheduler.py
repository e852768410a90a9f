"""Warp schedulers.

The paper's baseline SM has a single scheduler that issues one
warp-instruction per cycle to one of the three execution-unit types
(Section 2.2).  Two standard policies are provided: loose round-robin
(the default) and greedy-then-oldest.

A third, orthogonal mode explores the *space* of legal schedules
(GPUMC-style stateless enumeration): constructed with an integer
``seed``, the scheduler picks uniformly among all issuable warps at
every decision point, where decision ``k`` is a pure function of
``(seed, k)`` — no RNG state is carried, so any schedule can be
replayed from its seed alone and two SMs never share a stream.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

from repro.common.config import SchedulerPolicy
from repro.sim.warp import Warp

_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15


def _mix64(x: int) -> int:
    """SplitMix64 finalizer: a high-quality 64-bit bijective mixer."""
    x &= _MASK64
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & _MASK64
    return x ^ (x >> 31)


def derive_scheduler_seed(schedule_seed: Optional[int], sm_id: int,
                          scheduler_index: int) -> Optional[int]:
    """Per-scheduler sub-seed so no two schedulers replay one stream.

    Pure mixing of (root seed, SM id, scheduler index): the whole
    machine's interleaving remains a function of the root seed.
    """
    if schedule_seed is None:
        return None
    return _mix64(schedule_seed * _GOLDEN + (sm_id << 8) + scheduler_index)


def ready_cycle(warp: Warp, decoded: Sequence) -> int:
    """Cycle from which the scoreboard lets *warp* issue the instruction
    at its pc: the latest pending write of any register or predicate
    among the pc's hazard operands (``decoded[pc]``, the program's
    decode table).

    The value is pure between the warp's issues (its scoreboard changes
    only when it issues), so it is memoized on the warp in ``sb_pc`` /
    ``sb_ready``; the SM invalidates the memo after every issue.  The
    round-robin scan of :meth:`WarpScheduler.select`, which runs every
    cycle, inlines this memo.
    """
    pc = warp.stack.current_pc
    if warp.sb_pc != pc:
        entry = decoded[pc]
        warp.sb_ready = warp.scoreboard.ready_cycle_flat(entry.hazard_regs,
                                                         entry.hazard_preds)
        warp.sb_pc = pc
    return warp.sb_ready


def _issuable(warp: Warp, cycle: int, decoded: Sequence) -> bool:
    return warp.can_issue(cycle) and ready_cycle(warp, decoded) <= cycle


class WarpScheduler:
    """Selects which ready warp issues next.

    A warp is ready when it is live, not waiting at a barrier, past its
    ``stalled_until`` cycle and clear of the scoreboard
    (:func:`ready_cycle`).  When an observability *probe* is attached,
    each pick additionally reports how many warps were inspected before
    one was ready (the scan depth — a direct read on scheduler
    pressure), counted by the same scan an unobserved pick runs.

    With *seed* set, the policy is bypassed: each decision considers
    every issuable warp and picks one by hashing ``(seed, decision
    index)``, enumerating the legal-interleaving space statelessly.
    """

    def __init__(self, policy: SchedulerPolicy = SchedulerPolicy.ROUND_ROBIN,
                 probe: Optional[object] = None,
                 seed: Optional[int] = None):
        self.policy = policy
        self.probe = probe
        self.seed = seed
        self._round_robin = (seed is None
                             and policy is SchedulerPolicy.ROUND_ROBIN)
        self._decisions = 0
        self._last_index = -1
        self._greedy_warp: Optional[int] = None

    def select(self, warps: List[Warp], cycle: int,
               decoded: Sequence) -> Optional[Warp]:
        """Pick the next warp to issue at *cycle*, or None when none is
        ready.  *decoded* is the program's decode table."""
        if not warps:
            return None
        if self._round_robin:
            # the loose round-robin scan, with ready_cycle's memo
            # inlined: this loop is most of the issue stage's cost
            n = len(warps)
            last = self._last_index
            warp = None
            for scanned in range(1, n + 1):
                idx = (last + scanned) % n
                candidate = warps[idx]
                stack = candidate.stack
                if (stack.done or candidate.barrier_blocked
                        or cycle < candidate.stalled_until):
                    continue
                pc = stack.current_pc
                if candidate.sb_pc != pc:
                    entry = decoded[pc]
                    candidate.sb_ready = candidate.scoreboard.ready_cycle_flat(
                        entry.hazard_regs, entry.hazard_preds)
                    candidate.sb_pc = pc
                if candidate.sb_ready > cycle:
                    continue
                self._last_index = idx
                warp = candidate
                break
        elif self.seed is not None:
            warp, scanned = self._select_seeded(warps, cycle, decoded)
        else:
            warp, scanned = self._select_gto(warps, cycle, decoded)
        if self.probe is not None:
            self.probe.on_schedule(scanned, warp is not None)
        return warp

    def _select_seeded(self, warps: List[Warp], cycle: int,
                       decoded: Sequence):
        # Every issuable warp is a candidate; the choice at decision k
        # is mix(seed + k*GOLDEN) mod #candidates.  Cycles with no
        # candidate consume no decision index, so the decision sequence
        # depends only on the choice points, not on stall timing.
        candidates = [warp for warp in warps
                      if _issuable(warp, cycle, decoded)]
        if not candidates:
            return None, len(warps)
        pick = _mix64(self.seed + self._decisions * _GOLDEN) % len(candidates)
        self._decisions += 1
        return candidates[pick], len(warps)

    def _select_gto(self, warps: List[Warp], cycle: int,
                    decoded: Sequence):
        # Greedy: stick with the last-issued warp while it stays ready.
        if self._greedy_warp is not None:
            for warp in warps:
                if warp.warp_id == self._greedy_warp:
                    if _issuable(warp, cycle, decoded):
                        return warp, 1
                    break
        # Oldest: lowest warp id wins.
        for scanned, warp in enumerate(sorted(warps, key=lambda w: w.warp_id),
                                       start=1):
            if _issuable(warp, cycle, decoded):
                self._greedy_warp = warp.warp_id
                return warp, scanned
        self._greedy_warp = None
        return None, len(warps)
