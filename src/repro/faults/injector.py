"""Fault injector: the :class:`~repro.sim.executor.FaultHook` that
perturbs execution-unit outputs at configured sites.

One injector serves the whole chip; faults carry their SM/lane/unit
site.  Transient faults are one-shot: the first matching computation at
or after the strike cycle absorbs the flip (whether that computation is
an original or a redundant execution — exactly like a real particle
strike).  Stuck-at faults perturb every computation on their site,
which is what makes same-lane redundant execution blind to them (the
paper's hidden-error problem).
"""

from __future__ import annotations

from typing import List, Set

from repro.faults.models import Fault, TransientFault
from repro.isa.opcodes import UnitType
from repro.sim.executor import FaultHook


class FaultInjector(FaultHook):
    """Applies a set of faults; counts activations for reporting.

    :meth:`apply` owns the walk over fault sites and the one-shot
    bookkeeping of transients; how a fired fault resolves is
    :meth:`strike`, the one hook a detection backend overrides
    (:class:`~repro.baselines.secded.SECDEDBackend` does).
    """

    def __init__(self, faults: List[Fault]) -> None:
        self.faults = list(faults)
        self.activations = 0
        self._fired: Set[int] = set()  # indices of consumed transients

    def apply(self, sm_id: int, unit: UnitType, hw_lane: int,
              cycle: int, value: object) -> object:
        for index, fault in enumerate(self.faults):
            if not fault.matches_site(sm_id, unit, hw_lane):
                continue
            if isinstance(fault, TransientFault):
                if index in self._fired or not fault.is_armed(cycle):
                    continue
                self._fired.add(index)
            value = self.strike(fault, value, cycle)
        return value

    def strike(self, fault: Fault, value: object, cycle: int) -> object:
        """The value a computation carries on after *fault* fires on it
        (unprotected: the perturbed value, counted if it changed)."""
        perturbed = fault.apply(value, cycle)
        if perturbed is not value:
            self.activations += 1
        return perturbed

    def may_perturb(self, sm_id: int, cycle: int) -> bool:
        """Whether any fault could fire on *sm_id* at *cycle*.

        Drives the executor's windowed engine selection: a stuck-at
        fault on the SM is live forever, while a transient is live only
        from its strike cycle until its one shot is consumed.  Outside
        that window the injector provably leaves every value untouched,
        so the vectorized fast path (which skips the hook entirely) is
        semantics-preserving — transient campaigns run vectorized
        before the strike and again after the flip has been absorbed.
        """
        for index, fault in enumerate(self.faults):
            if fault.sm_id != sm_id:
                continue
            if isinstance(fault, TransientFault):
                if index not in self._fired and fault.is_armed(cycle):
                    return True
            else:
                return True
        return False

    def reset(self) -> None:
        """Re-arm transients and clear counters (for campaign reuse)."""
        self.activations = 0
        self._fired.clear()

    @property
    def any_fired(self) -> bool:
        return self.activations > 0
