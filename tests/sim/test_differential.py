"""Differential tests: warp (SIMT) execution vs scalar per-thread runs.

Hypothesis generates random *structured* programs — arithmetic, nested
if/else on data-dependent predicates, and bounded loops — compiles them
once, and executes them both on the simulator (with its SIMT stack,
masks and reconvergence) and on the scalar reference interpreter.  The
final global-memory images must be identical.
"""

from __future__ import annotations

import itertools

from hypothesis import given, settings, strategies as st

from repro.common.config import DMRConfig, GPUConfig, LaunchConfig
from repro.isa.opcodes import CmpOp, Opcode
from repro.kernel.builder import KernelBuilder
from repro.sim.gpu import GPU
from repro.sim.memory import GlobalMemory
from repro.sim.scalar_ref import run_scalar_block

NUM_REGS = 6  # r0..r5 scratch; program stores them all at the end

_ALU_OPS = [
    Opcode.IADD, Opcode.ISUB, Opcode.IMUL, Opcode.AND,
    Opcode.OR, Opcode.XOR, Opcode.IMIN, Opcode.IMAX,
]
_CMPS = [CmpOp.EQ, CmpOp.NE, CmpOp.LT, CmpOp.LE, CmpOp.GT, CmpOp.GE]


# ---------------------------------------------------------------------------
# Random structured-program AST
# ---------------------------------------------------------------------------
def _alu_stmt():
    return st.tuples(
        st.just("alu"),
        st.sampled_from(_ALU_OPS),
        st.integers(0, NUM_REGS - 1),                 # dst
        st.integers(0, NUM_REGS - 1),                 # src reg
        st.one_of(st.integers(0, NUM_REGS - 1).map(lambda r: ("reg", r)),
                  st.integers(-7, 13).map(lambda v: ("imm", v))),
    )


def _block(depth: int):
    stmt = _alu_stmt()
    if depth > 0:
        stmt = st.one_of(
            _alu_stmt(),
            st.tuples(
                st.just("if"),
                st.integers(0, NUM_REGS - 1),         # condition register
                st.sampled_from(_CMPS),
                st.integers(-3, 9),                   # compared immediate
                st.deferred(lambda: _block(depth - 1)),   # then
                st.deferred(lambda: _block(depth - 1)),   # else
            ),
            st.tuples(
                st.just("loop"),
                st.integers(1, 3),                    # trip count
                st.deferred(lambda: _block(depth - 1)),
            ),
        )
    return st.lists(stmt, min_size=1, max_size=4)


programs = _block(depth=2)


# ---------------------------------------------------------------------------
# AST -> kernel
# ---------------------------------------------------------------------------
def compile_ast(ast) -> object:
    builder = KernelBuilder("fuzz")
    regs = builder.regs(NUM_REGS)
    # one loop counter per nesting depth: nested loops must not share a
    # counter or an inner reset can make the outer loop spin forever
    loop_counters = builder.regs(4)
    gid = builder.reg()
    pred = builder.pred()
    labels = itertools.count()

    builder.gtid(gid)
    # seed scratch registers with thread-dependent values
    for i, reg in enumerate(regs):
        builder.imad(reg, gid, i + 1, 3 * i - 4)

    def emit_operand(spec):
        kind, value = spec
        return regs[value] if kind == "reg" else value

    def emit_block(stmts, depth):
        for stmt in stmts:
            if stmt[0] == "alu":
                _, op, dst, src, other = stmt
                builder._alu(op, regs[dst], regs[src], emit_operand(other))
            elif stmt[0] == "if":
                _, creg, cmp, imm, then_ops, else_ops = stmt
                n = next(labels)
                builder.setp(pred, regs[creg], cmp, imm)
                builder.bra(f"else_{n}", pred=pred, neg=True)
                emit_block(then_ops, depth + 1)
                builder.jmp(f"end_{n}")
                builder.label(f"else_{n}")
                emit_block(else_ops, depth + 1)
                builder.label(f"end_{n}")
            elif stmt[0] == "loop":
                _, trips, body = stmt
                n = next(labels)
                counter = loop_counters[depth]
                builder.mov(counter, 0)
                builder.label(f"top_{n}")
                emit_block(body, depth + 1)
                builder.iadd(counter, counter, 1)
                builder.setp(pred, counter, CmpOp.LT, trips)
                builder.bra(f"top_{n}", pred=pred)

    emit_block(ast, 0)
    # store every scratch register to a thread-private output slab
    out = builder.reg()
    for i, reg in enumerate(regs):
        builder.imad(out, gid, NUM_REGS, i)
        builder.st_global(out, reg)
    builder.exit()
    return builder.build()


# ---------------------------------------------------------------------------
# The differential property
# ---------------------------------------------------------------------------
@settings(max_examples=60, deadline=None)
@given(ast=programs)
def test_simt_execution_matches_scalar_reference(ast):
    program = compile_ast(ast)
    block_dim = 32
    grid_dim = 2

    simulated = GlobalMemory()
    gpu = GPU(GPUConfig.small(2), dmr=DMRConfig.disabled())
    gpu.launch(program, LaunchConfig(grid_dim, block_dim), memory=simulated)

    reference: dict = {}
    for block in range(grid_dim):
        run_scalar_block(program, block, block_dim, grid_dim, reference)

    for gtid in range(grid_dim * block_dim):
        for reg in range(NUM_REGS):
            addr = gtid * NUM_REGS + reg
            assert simulated.load(addr) == reference.get(addr, 0), (
                f"mismatch at thread {gtid} r{reg}\n"
                f"program:\n{program.disassemble()}"
            )


@settings(max_examples=20, deadline=None)
@given(ast=programs)
def test_warped_dmr_never_changes_results(ast):
    """DMR is an observer: architectural state must be bit-identical."""
    program = compile_ast(ast)
    plain = GlobalMemory()
    GPU(GPUConfig.small(1), dmr=DMRConfig.disabled()).launch(
        program, LaunchConfig(1, 32), memory=plain
    )
    with_dmr = GlobalMemory()
    GPU(GPUConfig.small(1), dmr=DMRConfig.paper_default()).launch(
        program, LaunchConfig(1, 32), memory=with_dmr
    )
    for gtid in range(32):
        for reg in range(NUM_REGS):
            addr = gtid * NUM_REGS + reg
            assert plain.load(addr) == with_dmr.load(addr)
