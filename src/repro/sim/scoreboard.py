"""Per-warp scoreboard for register hazards.

The simulated pipeline is in-order and single-issue per SM, so the
scoreboard only needs to track *pending writes*: a register written by
an in-flight instruction blocks any reader (RAW) or writer (WAW) until
its result is written back.  Each pending write carries its ready cycle;
the SM never explicitly "writes back" — readiness is a comparison
against the current cycle.
"""

from __future__ import annotations

from typing import Dict, Iterable

from repro.common.errors import SimulationError


class Scoreboard:
    """Tracks pending register and predicate writes of one warp."""

    def __init__(self) -> None:
        self._reg_ready: Dict[int, int] = {}
        self._pred_ready: Dict[int, int] = {}

    # -- recording -------------------------------------------------------
    def mark_reg_write(self, reg: int, ready_cycle: int) -> None:
        if reg < 0:
            raise SimulationError(f"invalid register index {reg}")
        self._reg_ready[reg] = max(self._reg_ready.get(reg, 0), ready_cycle)

    def mark_pred_write(self, pred: int, ready_cycle: int) -> None:
        if pred < 0:
            raise SimulationError(f"invalid predicate index {pred}")
        self._pred_ready[pred] = max(self._pred_ready.get(pred, 0), ready_cycle)

    # -- queries -----------------------------------------------------------
    def reg_ready_cycle(self, reg: int) -> int:
        """Cycle at which *reg* is readable (0 if no pending write)."""
        return self._reg_ready.get(reg, 0)

    def ready_cycle_flat(self, regs: Iterable[int],
                         preds: Iterable[int]) -> int:
        """Earliest cycle an instruction checking these operands may issue.

        Readers wait for pending producers (RAW); writers wait for
        pending writers of the same register (WAW, conservative in-order
        completion).  The caller merges sources and destination into
        *regs* and all predicates into *preds* once per pc, so the hot
        query is a single pass with no ``max`` calls.
        """
        ready = 0
        get = self._reg_ready.get
        for reg in regs:
            cycle = get(reg, 0)
            if cycle > ready:
                ready = cycle
        if preds:
            get = self._pred_ready.get
            for pred in preds:
                cycle = get(pred, 0)
                if cycle > ready:
                    ready = cycle
        return ready

    def prune(self, now: int) -> None:
        """Drop entries that completed before *now* (bounds memory)."""
        self._reg_ready = {
            reg: cycle for reg, cycle in self._reg_ready.items() if cycle > now
        }
        self._pred_ready = {
            p: cycle for p, cycle in self._pred_ready.items() if cycle > now
        }

    def pending_count(self, now: int) -> int:
        """Number of writes still in flight at *now* (for tests)."""
        return sum(1 for cycle in self._reg_ready.values() if cycle > now) + \
            sum(1 for cycle in self._pred_ready.values() if cycle > now)
