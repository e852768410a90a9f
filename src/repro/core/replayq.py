"""ReplayQ: the buffer of unverified fully-utilized warp instructions.

Paper Section 4.3: when a fully utilized warp instruction cannot be
co-executed with a different-type instruction in the next cycle, the
Replay Checker buffers it here — opcode, per-lane source values, and
per-lane original results — until a cycle with an idle execution unit
of the right type comes along (or the pipeline is forced to stall).

:class:`ReplayQGeometry` reproduces Section 4.3.1's sizing arithmetic:
an entry is 32 lanes x 3 operands x 4 B of sources + 32 x 4 B of
results + 2-4 B of opcode = 514-516 B, so 10 entries are ~5 KB — 4% of
a 128 KB register file.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, List, Optional

from repro.common.errors import ConfigError
from repro.isa.opcodes import UnitType
from repro.sim.events import IssueEvent


class ReplayQ:
    """FIFO of unverified instructions with type-directed dequeue.

    An entry is the buffered instruction's :class:`IssueEvent`: its
    opcode, unit, captured source values and original results.
    ``capacity == 0`` is a legal configuration (the Fig 9(b) sweep's
    leftmost point): every enqueue attempt reports "full" and the
    pipeline takes the eager re-execution stall instead.
    """

    def __init__(self, capacity: int) -> None:
        if capacity < 0:
            raise ConfigError(f"ReplayQ capacity must be >= 0, got {capacity}")
        self.capacity = capacity
        self._entries: List[IssueEvent] = []

    def __len__(self) -> int:
        return len(self._entries)

    def __iter__(self) -> Iterator[IssueEvent]:
        return iter(self._entries)

    @property
    def is_full(self) -> bool:
        return len(self._entries) >= self.capacity

    @property
    def is_empty(self) -> bool:
        return not self._entries

    def enqueue(self, event: IssueEvent) -> None:
        if self.is_full:
            raise ConfigError("enqueue on a full ReplayQ; check is_full first")
        self._entries.append(event)

    def dequeue_different_type(self, unit: UnitType) -> Optional[IssueEvent]:
        """Remove and return the oldest entry whose type differs from *unit*.

        The paper picks randomly among candidates; oldest-first is used
        here for determinism (the choice does not affect coverage, only
        which verification happens first).
        """
        for i, event in enumerate(self._entries):
            if event.unit is not unit:
                return self._entries.pop(i)
        return None

    def dequeue_of_type(self, unit: UnitType) -> Optional[IssueEvent]:
        """Remove and return the oldest entry executing on *unit*."""
        for i, event in enumerate(self._entries):
            if event.unit is unit:
                return self._entries.pop(i)
        return None

    def remove(self, event: IssueEvent) -> bool:
        """Remove *event* itself (RAW-forced early verification)."""
        for i, queued in enumerate(self._entries):
            if queued is event:
                del self._entries[i]
                return True
        return False

    def drain(self) -> List[IssueEvent]:
        """Remove and return everything (kernel-end flush)."""
        entries, self._entries = self._entries, []
        return entries


@dataclass(frozen=True)
class ReplayQGeometry:
    """Section 4.3.1 storage arithmetic."""

    entries: int = 10
    lanes: int = 32
    max_operands: int = 3
    operand_bytes: int = 4
    result_bytes: int = 4
    opcode_bytes_min: int = 2
    opcode_bytes_max: int = 4

    @property
    def source_bytes(self) -> int:
        """32 lanes x 3 operands x 4 B = 384 B."""
        return self.lanes * self.max_operands * self.operand_bytes

    @property
    def result_bytes_total(self) -> int:
        """32 lanes x 4 B = 128 B."""
        return self.lanes * self.result_bytes

    @property
    def entry_bytes_min(self) -> int:
        """384 + 128 + 2 = 514 B."""
        return self.source_bytes + self.result_bytes_total + self.opcode_bytes_min

    @property
    def entry_bytes_max(self) -> int:
        """384 + 128 + 4 = 516 B."""
        return self.source_bytes + self.result_bytes_total + self.opcode_bytes_max

    @property
    def total_bytes_max(self) -> int:
        """~5 KB for the paper's 10-entry queue."""
        return self.entries * self.entry_bytes_max

    def fraction_of_register_file(self, rf_bytes: int = 128 * 1024) -> float:
        """ReplayQ size relative to the register file (paper: ~4%)."""
        return self.total_bytes_max / rf_bytes
