"""Property tests: generator invariants over the seed space.

Hypothesis drives ``generate_kernel`` across arbitrary seeds and checks
the contracts everything downstream leans on: structural
well-formedness (valid operands come free from ``Instruction``
validation, so the checks here are the ones the type system can't
enforce — terminator, top-level unpredicated barriers, register
budget), byte-identical regeneration, payload round-tripping, and —
for a smaller sample, since it simulates — termination within the
declared cycle budget with all four executions bit-identical.
"""

from __future__ import annotations

from hypothesis import given, settings, strategies as st

from repro.common.config import ENGINE_NAMES
from repro.fuzz import (FuzzKernel, generate_kernel, validate_kernel)
from repro.fuzz.profile import PRESETS
from repro.isa.opcodes import Opcode

SEEDS = st.integers(min_value=0, max_value=2 ** 32 - 1)


def _barrier_pcs(program):
    return [pc for pc, inst in enumerate(program.instructions)
            if inst.opcode is Opcode.BAR]


class TestWellFormedness:
    @given(seed=SEEDS)
    @settings(max_examples=40, deadline=None)
    def test_structure(self, seed):
        kernel = generate_kernel(seed)
        program = kernel.program
        instructions = program.instructions
        # Terminates the instruction stream properly.
        assert instructions[-1].opcode is Opcode.EXIT
        # Launch geometry is positive and warp-aligned enough to run.
        assert kernel.grid_dim >= 1
        assert 1 <= kernel.block_dim <= 64
        assert kernel.cycle_budget > 0
        # The register budget the profile promised is respected.
        assert program.num_registers <= 14
        assert program.num_predicates <= 2

    @given(seed=SEEDS)
    @settings(max_examples=40, deadline=None)
    def test_barriers_are_top_level_and_unpredicated(self, seed):
        """Every thread must reach every barrier exactly once.

        Structurally: no BAR is predicated, and no BAR sits inside any
        branch's span — neither a loop body (backward branch) nor a
        diamond shadow (forward branch) — so barrier arrival can never
        depend on a divergent path.
        """
        kernel = generate_kernel(seed)
        instructions = kernel.program.instructions
        barriers = _barrier_pcs(kernel.program)
        for pc in barriers:
            assert instructions[pc].pred is None
        for pc, inst in enumerate(instructions):
            if inst.opcode is not Opcode.BRA:
                continue
            lo, hi = sorted((pc, inst.target))
            for bar_pc in barriers:
                assert not (lo < bar_pc < hi), (
                    f"seed {seed}: BAR at {bar_pc} inside branch "
                    f"{pc}->{inst.target}")

    @given(seed=SEEDS)
    @settings(max_examples=40, deadline=None)
    def test_stores_hit_only_own_output_slots(self, seed):
        """Race freedom: global stores address gtid + output-slot base."""
        from repro.fuzz.generator import IN_STRIDE, OUT_BASE
        kernel = generate_kernel(seed)
        gtid_reg = kernel.program.instructions[0].dst
        for inst in kernel.program.instructions:
            if inst.opcode is Opcode.ST_GLOBAL:
                assert inst.srcs[0] == gtid_reg
                assert inst.offset >= OUT_BASE
                assert (inst.offset - OUT_BASE) % IN_STRIDE == 0
            elif inst.opcode is Opcode.LD_GLOBAL:
                assert inst.srcs[0] == gtid_reg
                assert 0 <= inst.offset < OUT_BASE


class TestDeterminism:
    @given(seed=SEEDS)
    @settings(max_examples=40, deadline=None)
    def test_regeneration_is_byte_identical(self, seed):
        first = generate_kernel(seed)
        second = generate_kernel(seed)
        assert first.canonical_bytes() == second.canonical_bytes()
        assert first.digest() == second.digest()

    @given(seed=SEEDS)
    @settings(max_examples=40, deadline=None)
    def test_payload_round_trip_preserves_digest(self, seed):
        kernel = generate_kernel(seed)
        clone = FuzzKernel.from_payload(kernel.to_payload())
        assert clone.canonical_bytes() == kernel.canonical_bytes()
        assert clone.digest() == kernel.digest()
        # Labels are builder-side cosmetics and not serialized, so the
        # round trip preserves instructions/reconvergence, not names.
        assert len(clone.program.instructions) == \
            len(kernel.program.instructions)
        assert clone.program.reconvergence == kernel.program.reconvergence

    @given(seed=SEEDS, name=st.sampled_from(sorted(PRESETS)))
    @settings(max_examples=20, deadline=None)
    def test_explicit_profile_is_deterministic_too(self, seed, name):
        profile = PRESETS[name]
        first = generate_kernel(seed, profile)
        second = generate_kernel(seed, profile)
        assert first.canonical_bytes() == second.canonical_bytes()
        assert first.profile_name == name


class TestExecution:
    @given(seed=SEEDS)
    @settings(max_examples=12, deadline=None)
    def test_validates_within_declared_budget(self, seed):
        """Terminates under its own cycle budget, bit-identical 3 ways.

        ``validate_kernel`` simulates with ``max_cycles`` set to the
        kernel's declared budget, so a budget overrun surfaces as a
        SimulationError in the outcome — no separate timeout needed.
        """
        kernel = generate_kernel(seed, PRESETS["tiny"])
        outcome = validate_kernel(kernel)
        assert outcome.ok, (seed, outcome.errors)
        assert set(outcome.engine_digests) == set(ENGINE_NAMES)
        for digest in outcome.engine_digests.values():
            assert digest == outcome.reference_digest
