"""Result comparison and error-detection events.

The hardware comparator (paper Figure 6, 622 um^2) compares the
original lane's result against the verifier lane's redundant result.
Redundant executions recompute through the same pure ALU from the same
captured inputs, so any mismatch is — by construction — an injected (or
real) execution-unit error, never modeling noise.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, List, Optional, Tuple

from repro.isa.opcodes import Opcode
from repro.sim.events import IssueEvent
from repro.sim.executor import Executor


@dataclass(frozen=True)
class DetectionEvent:
    """One detected execution error."""

    cycle: int
    sm_id: int
    warp_id: int
    pc: int
    opcode: Opcode
    original_lane: int
    verifier_lane: int
    original_value: object
    verify_value: object
    mode: str  # "intra" or "inter"

    def __str__(self) -> str:
        return (
            f"[cycle {self.cycle}] SM{self.sm_id} warp{self.warp_id} "
            f"pc={self.pc} {self.opcode.value}: lane {self.original_lane} "
            f"produced {self.original_value!r}, verifier lane "
            f"{self.verifier_lane} produced {self.verify_value!r} "
            f"({self.mode}-warp DMR)"
        )

    def to_payload(self) -> dict:
        """Plain-data form (opcode by name) for result serialization."""
        return {
            "cycle": self.cycle,
            "sm_id": self.sm_id,
            "warp_id": self.warp_id,
            "pc": self.pc,
            "opcode": self.opcode.name,
            "original_lane": self.original_lane,
            "verifier_lane": self.verifier_lane,
            "original_value": self.original_value,
            "verify_value": self.verify_value,
            "mode": self.mode,
        }

    @classmethod
    def from_payload(cls, payload: dict) -> "DetectionEvent":
        fields = dict(payload)
        fields["opcode"] = Opcode[fields["opcode"]]
        return cls(**fields)


class ResultComparator:
    """Collects mismatches between original and redundant executions."""

    def __init__(self) -> None:
        self.detections: List[DetectionEvent] = []

    def compare(
        self,
        cycle: int,
        sm_id: int,
        warp_id: int,
        pc: int,
        opcode: Opcode,
        original_lane: int,
        verifier_lane: int,
        original_value: object,
        verify_value: object,
        mode: str,
    ) -> Optional[DetectionEvent]:
        """Compare two results; record and return an event on mismatch."""
        if _values_equal(original_value, verify_value):
            return None
        event = DetectionEvent(
            cycle=cycle,
            sm_id=sm_id,
            warp_id=warp_id,
            pc=pc,
            opcode=opcode,
            original_lane=original_lane,
            verifier_lane=verifier_lane,
            original_value=original_value,
            verify_value=verify_value,
            mode=mode,
        )
        self.detections.append(event)
        return event

    def verify(self, executor: Executor, event: IssueEvent,
               pairs: Iterable[Tuple[int, int]], cycle: int,
               mode: str) -> None:
        """Redundantly execute *event*'s ``(original, verifier)`` lane
        *pairs* at *cycle*, in pair order, and compare each result.

        Verification by exception: only pairs whose original result was
        perturbed (``event.perturbed_mask``) or whose verifier lane the
        hook may perturb now (``site_lanes``) are recomputed.  Any other
        recompute equals the recorded original: ``compute_lane`` is
        pure, off-site ``apply`` is the identity and stateless, and an
        unperturbed original is exactly ``compute_lane`` of its inputs
        (the engines' bit-identity contract).  Lanes without recorded
        inputs (bookkeeping issues) have nothing to re-execute.
        """
        site = executor.fault_hook.site_lanes(event.sm_id, event.unit, cycle)
        perturbed = event.perturbed_mask
        if not (site or perturbed):
            return
        inputs = event.lane_inputs
        for original, verifier in pairs:
            if (((perturbed >> original) | (site >> verifier)) & 1
                    and original in inputs):
                self.compare(
                    cycle, event.sm_id, event.warp_id, event.pc,
                    event.instruction.opcode, original, verifier,
                    event.lane_results[original],
                    executor.reexecute_lane(event, original, verifier, cycle),
                    mode,
                )

    @property
    def detection_count(self) -> int:
        return len(self.detections)


def _values_equal(a: object, b: object) -> bool:
    """Bit-exact comparison as the hardware comparator would perform.

    Redundant executions are deterministic re-runs of the same pure
    function on the same inputs, so exact equality is the right test;
    NaNs compare equal to themselves (same bit pattern).
    """
    if isinstance(a, float) and isinstance(b, float):
        if a != a and b != b:  # both NaN
            return True
        return a == b
    return a == b
