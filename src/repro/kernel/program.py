"""Immutable, validated kernel programs.

A :class:`Program` is what the simulator executes: a resolved
instruction sequence, its label map, the SIMT reconvergence table, and
a little static metadata (register/predicate footprint) used for
validation and reporting.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, Mapping, Sequence, Tuple, TypeVar

T = TypeVar("T")

from repro.common.errors import KernelError
from repro.isa.instruction import Instruction
from repro.isa.opcodes import Opcode, UnitType
from repro.kernel.cfg import compute_reconvergence_table


@dataclass(frozen=True)
class Program:
    """A compiled kernel ready for simulation."""

    name: str
    instructions: Tuple[Instruction, ...]
    labels: Mapping[str, int] = field(default_factory=dict)
    reconvergence: Mapping[int, int] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if not self.instructions:
            raise KernelError(f"program {self.name!r} is empty")
        for pc, inst in enumerate(self.instructions):
            if not inst.is_resolved:
                raise KernelError(
                    f"program {self.name!r}: unresolved label at pc={pc}: "
                    f"{inst.disassemble()}"
                )
        if self.instructions[-1].opcode not in (Opcode.EXIT, Opcode.JMP):
            raise KernelError(
                f"program {self.name!r} must end with exit or an "
                "unconditional jump"
            )

    def memo(self, key: str, build: Callable[["Program"], T]) -> T:
        """Per-program memo slot for derived artifacts (decode caches).

        A program is immutable, so anything computed from it — operand
        fetch plans, vectorized handler tables, static analyses — is
        computed at most once and shared by every SM executing the
        program.  ``build(program)`` runs on first request for *key*;
        later calls return the stored artifact.  The memo lives outside
        the dataclass fields (lazy ``object.__setattr__``), so equality,
        hashing of instructions, and pickling are unaffected.
        """
        cache = self.__dict__.get("_memo")
        if cache is None:
            cache = {}
            object.__setattr__(self, "_memo", cache)
        if key not in cache:
            cache[key] = build(self)
        return cache[key]

    def __getstate__(self):
        """Pickle only the declared fields, never the memo cache."""
        return {
            field_name: self.__dict__[field_name]
            for field_name in self.__dataclass_fields__  # type: ignore[attr-defined]
            if field_name in self.__dict__
        }

    def __setstate__(self, state) -> None:
        self.__dict__.update(state)

    def __len__(self) -> int:
        return len(self.instructions)

    def __getitem__(self, pc: int) -> Instruction:
        return self.instructions[pc]

    @property
    def num_registers(self) -> int:
        """Highest general register index used, plus one."""
        return self.memo("program.num_registers", _num_registers)

    @property
    def num_predicates(self) -> int:
        """Highest predicate register index used, plus one."""
        return self.memo("program.num_predicates", _num_predicates)

    def unit_mix(self) -> Dict[UnitType, int]:
        """Static instruction count per execution unit type."""
        mix = {unit: 0 for unit in UnitType}
        for inst in self.instructions:
            mix[inst.unit] += 1
        return mix

    def disassemble(self) -> str:
        """Full program listing with labels and PCs."""
        label_at: Dict[int, list] = {}
        for label, pc in self.labels.items():
            label_at.setdefault(pc, []).append(label)
        lines = []
        for pc, inst in enumerate(self.instructions):
            for label in sorted(label_at.get(pc, [])):
                lines.append(f"{label}:")
            lines.append(f"  {pc:4d}  {inst.disassemble()}")
        return "\n".join(lines)

    @classmethod
    def from_instructions(
        cls,
        name: str,
        instructions: Sequence[Instruction],
        labels: Mapping[str, int] | None = None,
    ) -> "Program":
        """Build a program from already-resolved instructions.

        Computes the reconvergence table; use :class:`KernelBuilder` for
        label-based construction.
        """
        instructions = tuple(instructions)
        reconv = compute_reconvergence_table(instructions)
        return cls(
            name=name,
            instructions=instructions,
            labels=dict(labels or {}),
            reconvergence=reconv,
        )


def _num_registers(program: Program) -> int:
    highest = -1
    for inst in program.instructions:
        regs = inst.source_registers()
        dest = inst.dest_register()
        if regs:
            highest = max(highest, max(regs))
        if dest is not None:
            highest = max(highest, dest)
    return highest + 1


def _num_predicates(program: Program) -> int:
    highest = -1
    for inst in program.instructions:
        for p in (inst.pred, inst.pdst, inst.psrc):
            if p is not None:
                highest = max(highest, p)
    return highest + 1
