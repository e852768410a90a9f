"""Differential tests: vectorized engine vs the scalar interpreter.

The vector engine's contract is *bit-identity*: for any instruction and
any register state, executing on the vectorized path must leave the
architectural state (registers with their exact Python types, predicates,
memory), the issue event (per-lane inputs/results), and the control
outcome indistinguishable from the scalar path.  These tests enforce the
contract two ways:

* **per-opcode Hypothesis differentials** — every vectorizable opcode
  over adversarial operands: i32 boundary integers (``±2**31``, 0, -1),
  int64 extremes, float specials (``inf``/``nan``/``-0.0``), mixed
  int/float warps, partial warps, permuted lane mappings and guard
  predicates;
* **full-workload payload equality** — all 11 Table 4 workloads under
  every Figure 9(b) configuration (plus an in-order mapping), on the
  scalar engine and the fast engine, comparing the complete
  ``KernelResult.to_payload()`` pickles — obs snapshot included —
  byte for byte, plus an unobserved fast run that takes the SM's
  inlined issue scan.

When an example makes *both* engines raise (``f2i`` of ``inf``, ``sin``
of ``inf``), only the exception type is compared: the scalar path may
have retired earlier lanes before raising, while the vector path raises
before mutating state, and the simulation aborts either way.
"""

from __future__ import annotations

import math
import pickle

import pytest
from hypothesis import given, settings, strategies as st

from repro.analysis.overhead_sweep import REPLAYQ_SIZES
from repro.analysis.runner import experiment_config
from repro.common.config import (DMRConfig, GPUConfig, LaunchConfig,
                                 MappingPolicy)
from repro.core.mapping import lane_permutation
from repro.isa.instruction import Instruction
from repro.isa.opcodes import CmpOp, Opcode
from repro.isa.operands import Imm, Reg, SReg, SpecialReg
from repro.kernel.builder import KernelBuilder
from repro.kernel.program import Program
from repro.sim.executor import Executor
from repro.sim.gpu import GPU
from repro.sim.memory import GlobalMemory
from repro.sim.warp import ThreadBlock, Warp
from repro.workloads import all_workloads, get_workload

#: engine differentials compare launches that execute: a replayed
#: launch (repro.sim.replay) would only repeat its own recording
pytestmark = pytest.mark.usefixtures("executing")

WARP_SIZE = 32
NUM_REGS = 4
NUM_PREDS = 2
SHARED_WORDS = 1024
MEM_WORDS = 4096

CROSS = lane_permutation(MappingPolicy.CROSS, WARP_SIZE, 8)
IDENTITY = list(range(WARP_SIZE))

# ----------------------------------------------------------------------
# Operand strategies
# ----------------------------------------------------------------------
BOUNDARY_INTS = [
    0, 1, -1, 2, 31, 32,
    (1 << 31) - 1, -(1 << 31), 1 << 31, -(1 << 31) - 1,
    (1 << 32) - 1, 1 << 32, -(1 << 32),
    (1 << 62), -(1 << 62), (1 << 63) - 1, -(1 << 63),
]
SPECIAL_FLOATS = [
    0.0, -0.0, 1.0, -1.0, 0.5, -2.5,
    float("inf"), float("-inf"), float("nan"),
    1e308, -1e308, 5e-324, 2.0 ** 53, -(2.0 ** 53) - 1.0,
]

INTS = st.one_of(
    st.sampled_from(BOUNDARY_INTS),
    st.integers(min_value=-(1 << 34), max_value=1 << 34),
)
FLOATS = st.one_of(
    st.sampled_from(SPECIAL_FLOATS),
    st.floats(allow_nan=True, allow_infinity=True, width=64),
)
ADDRS = st.integers(min_value=0, max_value=500)


def _lane_values(draw, n, mode):
    if mode == "int":
        return draw(st.lists(INTS, min_size=n, max_size=n))
    if mode == "float":
        return draw(st.lists(FLOATS, min_size=n, max_size=n))
    return draw(st.lists(st.one_of(INTS, FLOATS), min_size=n, max_size=n))


# ----------------------------------------------------------------------
# Instruction specimens (one per vectorizable shape)
# ----------------------------------------------------------------------
def _alu2(op):
    return Instruction(opcode=op, dst=Reg(3), srcs=(Reg(0), Reg(1)))


def _alu1(op):
    return Instruction(opcode=op, dst=Reg(3), srcs=(Reg(0),))


SPECS = {
    "iadd": _alu2(Opcode.IADD), "isub": _alu2(Opcode.ISUB),
    "imul": _alu2(Opcode.IMUL), "idiv": _alu2(Opcode.IDIV),
    "irem": _alu2(Opcode.IREM), "imin": _alu2(Opcode.IMIN),
    "imax": _alu2(Opcode.IMAX), "and": _alu2(Opcode.AND),
    "or": _alu2(Opcode.OR), "xor": _alu2(Opcode.XOR),
    "shl": _alu2(Opcode.SHL), "shr": _alu2(Opcode.SHR),
    "imad": Instruction(opcode=Opcode.IMAD, dst=Reg(3),
                        srcs=(Reg(0), Reg(1), Reg(2))),
    "not": _alu1(Opcode.NOT),
    "fadd": _alu2(Opcode.FADD), "fsub": _alu2(Opcode.FSUB),
    "fmul": _alu2(Opcode.FMUL), "fmin": _alu2(Opcode.FMIN),
    "fmax": _alu2(Opcode.FMAX),
    "ffma": Instruction(opcode=Opcode.FFMA, dst=Reg(3),
                        srcs=(Reg(0), Reg(1), Reg(2))),
    "fabs": _alu1(Opcode.FABS), "fneg": _alu1(Opcode.FNEG),
    "i2f": _alu1(Opcode.I2F), "f2i": _alu1(Opcode.F2I),
    "sin": _alu1(Opcode.SIN), "cos": _alu1(Opcode.COS),
    "sqrt": _alu1(Opcode.SQRT), "rsqrt": _alu1(Opcode.RSQRT),
    "exp": _alu1(Opcode.EXP), "log": _alu1(Opcode.LOG),
    "mov_reg": _alu1(Opcode.MOV),
    "mov_imm_i": Instruction(opcode=Opcode.MOV, dst=Reg(3),
                             srcs=(Imm(-(1 << 31)),)),
    "mov_imm_f": Instruction(opcode=Opcode.MOV, dst=Reg(3),
                             srcs=(Imm(-0.0),)),
    "mov_gtid": Instruction(opcode=Opcode.MOV, dst=Reg(3),
                            srcs=(SReg(SpecialReg.GTID),)),
    "mov_laneid": Instruction(opcode=Opcode.MOV, dst=Reg(3),
                              srcs=(SReg(SpecialReg.LANEID),)),
    "selp": Instruction(opcode=Opcode.SELP, dst=Reg(3),
                        srcs=(Reg(0), Reg(1)), psrc=0),
    "nop": Instruction(opcode=Opcode.NOP),
}
for cmp in CmpOp:
    SPECS[f"setp_{cmp.value}"] = Instruction(
        opcode=Opcode.SETP, pdst=1, srcs=(Reg(0), Reg(1)), cmp=cmp)

MEM_SPECS = {
    "ld_global": Instruction(opcode=Opcode.LD_GLOBAL, dst=Reg(3),
                             srcs=(Reg(0),), offset=3),
    "st_global": Instruction(opcode=Opcode.ST_GLOBAL,
                             srcs=(Reg(0), Reg(1)), offset=2),
    "ld_shared": Instruction(opcode=Opcode.LD_SHARED, dst=Reg(3),
                             srcs=(Reg(0),), offset=1),
    "st_shared": Instruction(opcode=Opcode.ST_SHARED,
                             srcs=(Reg(0), Reg(1))),
}


# ----------------------------------------------------------------------
# Harness
# ----------------------------------------------------------------------
def _build(engine, block_dim, mapping, inst):
    block = ThreadBlock(block_id=1, block_dim=block_dim,
                        warp_size=WARP_SIZE, shared_words=SHARED_WORDS)
    warp = Warp(warp_id=0, block=block, warp_base=0, warp_size=WARP_SIZE,
                num_registers=NUM_REGS, num_predicates=NUM_PREDS,
                lane_of_slot=mapping, grid_dim=3)
    block.attach_warps([warp])
    memory = GlobalMemory(size_words=MEM_WORDS)
    for addr in range(600):
        memory.store(addr, addr * 3 if addr % 3 else float(addr) / 2)
        block.shared.store(addr, addr * 7 if addr % 2 else -float(addr))
    program = Program("probe", (inst, Instruction(Opcode.EXIT)))
    executor = Executor(0, program, memory, None, engine=engine)
    return warp, executor, memory


def _snapshot(warp, executor, memory, result):
    regs = [[warp.read_reg(slot, reg) for reg in range(NUM_REGS)]
            for slot in range(warp.live_slots)]
    preds = warp.preds.tolist()
    event, taken = result
    return pickle.dumps({
        "regs": regs,
        "preds": preds,
        "lane_inputs": event.lane_inputs,
        "lane_results": event.lane_results,
        "logical_mask": event.logical_mask,
        "hw_mask": event.hw_mask,
        "dest_reg": event.dest_reg,
        "taken": taken,
        "global_mem": memory.to_payload(),
        "shared_mem": list(warp.block.shared._words),
    })


def _run_both(inst, reg_values, pred_values, block_dim, mapping):
    """Execute *inst* on both engines; compare state or exception type."""
    outcomes = []
    for engine in ("scalar", "fast"):
        warp, executor, memory = _build(engine, block_dim, mapping, inst)
        for reg, column in enumerate(reg_values):
            for slot in range(warp.live_slots):
                warp.write_reg(slot, reg, column[slot])
        for pred, column in enumerate(pred_values):
            for slot in range(warp.live_slots):
                warp.write_pred(slot, pred, column[slot])
        try:
            result = executor.execute(warp, 0, cycle=9)
        except Exception as error:  # both engines must agree on the abort
            outcomes.append(("raise", type(error)))
            continue
        outcomes.append(("ok", _snapshot(warp, executor, memory, result)))
    scalar, vector = outcomes
    assert scalar[0] == vector[0], (
        f"{inst!r}: scalar {scalar[0]} but vector {vector[0]}"
    )
    assert scalar[1] == vector[1], (
        f"{inst!r}: engines diverged ({scalar[0]})"
    )


@pytest.mark.parametrize("name", sorted(SPECS))
@given(data=st.data())
@settings(max_examples=25, deadline=None)
def test_opcode_bit_identity(name, data):
    inst = SPECS[name]
    block_dim = data.draw(st.sampled_from([WARP_SIZE, 17, 1]), label="dim")
    mapping = data.draw(st.sampled_from([IDENTITY, CROSS]), label="map")
    mode = data.draw(st.sampled_from(["int", "float", "mixed"]),
                     label="mode")
    reg_values = [_lane_values(data.draw, WARP_SIZE, mode)
                  for _ in range(3)]
    pred_values = [data.draw(st.lists(st.booleans(), min_size=WARP_SIZE,
                                      max_size=WARP_SIZE))
                   for _ in range(NUM_PREDS)]
    if data.draw(st.booleans(), label="guarded"):
        inst = Instruction(**{**{f: getattr(inst, f) for f in
                                 inst.__dataclass_fields__},
                              "pred": 0,
                              "pred_neg": data.draw(st.booleans())})
    _run_both(inst, reg_values, pred_values, block_dim, mapping)


@pytest.mark.parametrize("name", sorted(MEM_SPECS))
@given(data=st.data())
@settings(max_examples=25, deadline=None)
def test_memory_opcode_bit_identity(name, data):
    inst = MEM_SPECS[name]
    block_dim = data.draw(st.sampled_from([WARP_SIZE, 9]))
    mapping = data.draw(st.sampled_from([IDENTITY, CROSS]))
    addr_col = data.draw(st.lists(ADDRS, min_size=WARP_SIZE,
                                  max_size=WARP_SIZE))
    value_col = _lane_values(data.draw, WARP_SIZE, "mixed")
    pred_values = [data.draw(st.lists(st.booleans(), min_size=WARP_SIZE,
                                      max_size=WARP_SIZE))
                   for _ in range(NUM_PREDS)]
    _run_both(inst, [addr_col, value_col, addr_col], pred_values,
              block_dim, mapping)


@given(data=st.data())
@settings(max_examples=25, deadline=None)
def test_bra_bit_identity(data):
    inst = Instruction(opcode=Opcode.BRA, pred=0,
                       pred_neg=data.draw(st.booleans()), target=7)
    block_dim = data.draw(st.sampled_from([WARP_SIZE, 13, 1]))
    mapping = data.draw(st.sampled_from([IDENTITY, CROSS]))
    pred_values = [data.draw(st.lists(st.booleans(), min_size=WARP_SIZE,
                                      max_size=WARP_SIZE))
                   for _ in range(NUM_PREDS)]
    _run_both(inst, [], pred_values, block_dim, mapping)


# ----------------------------------------------------------------------
# Whole-workload equivalence
# ----------------------------------------------------------------------
SCALE = 0.25
SEED = 0

#: Figure 9(b)'s five configurations (DMR off, and the paper's DMR at
#: every swept ReplayQ size) plus an in-order-mapping variant
ENGINE_DMR_VARIANTS = [
    pytest.param(None, id="no_dmr"),
    *(pytest.param(DMRConfig.paper_default().with_replayq(size),
                   id=f"cross_q{size}") for size in REPLAYQ_SIZES),
    pytest.param(DMRConfig(mapping=MappingPolicy.IN_ORDER,
                           replayq_entries=0), id="inorder_q0"),
]

#: (engine, obs) per leg: both engines recording obs metrics (a probe
#: runs the SM's general issue stage); the last leg records none, so
#: the SM runs its inlined issue scan instead
ENGINE_LEGS = {
    "scalar": ("scalar", "metrics"),
    "fast": ("fast", "metrics"),
    "fast_unobserved": ("fast", False),
}


@pytest.mark.parametrize("dmr", ENGINE_DMR_VARIANTS)
@pytest.mark.parametrize("name", list(all_workloads()))
def test_workload_payloads_identical_across_engines(name, dmr):
    """Scalar and fast runs must produce byte-identical payloads, obs
    metric snapshots (ReplayQ depth, stall partition) included; the
    unobserved run must match them but for its obs."""
    payloads = {}
    for leg, (engine, obs) in ENGINE_LEGS.items():
        run = get_workload(name).prepare(SCALE, SEED)
        gpu = GPU(experiment_config(num_sms=2, engine=engine),
                  dmr=dmr or DMRConfig.disabled(), obs=obs)
        result = gpu.launch(run.program, run.launch, memory=run.memory)
        run.check(run.memory)
        assert (result.obs is not None) == bool(obs)
        payloads[leg] = result.to_payload()
    assert pickle.dumps(payloads["fast"]) == \
        pickle.dumps(payloads["scalar"]), (
            f"{name} diverged between scalar and fast under {dmr!r}")
    assert pickle.dumps(payloads["fast_unobserved"]) == \
        pickle.dumps({**payloads["scalar"], "obs": None}), (
            f"{name}: the inlined issue scan diverged under {dmr!r}")


def test_vector_engine_actually_engages():
    """The payload equality above must not be vacuous: a fault-free
    fast-engine run executes (nearly) everything vectorized."""
    run = get_workload("matrixmul").prepare(SCALE, SEED)
    counts = {"vector": 0, "scalar": 0}
    from repro.sim.sm import SM
    original = SM.run

    def spying_run(self):
        try:
            return original(self)
        finally:
            counts["vector"] += self.executor.vector_issues
            counts["scalar"] += self.executor.scalar_issues

    SM.run = spying_run
    try:
        GPU(experiment_config(num_sms=2, engine="fast")).launch(
            run.program, run.launch, memory=run.memory)
    finally:
        SM.run = original
    assert counts["vector"] > 0
    assert counts["scalar"] == 0  # matrixmul has no fallback triggers


# ----------------------------------------------------------------------
# The FFMA corner, pinned on every execution path
# ----------------------------------------------------------------------
#: the operands of the rare Hypothesis ``ffma`` falsification (infinity,
#: signed zeros, the smallest subnormal, +-2**53, NaNs of both signs)
#: plus a finite float and an int-tagged lane for mixed warps
FFMA_CORNERS = [float("-inf"), 0.0, -0.0, 5e-324, 2.0 ** 53, -(2.0 ** 53),
                float("nan"), -float("nan"), 1.0, 3]
FFMA_WARPS = 32
FFMA_LANES = FFMA_WARPS * WARP_SIZE


def _ffma_corner_triples():
    """Every (a, b, c) corner triple once, padded to whole warps."""
    triples = [(a, b, c) for a in FFMA_CORNERS for b in FFMA_CORNERS
               for c in FFMA_CORNERS]
    return (triples + triples)[:FFMA_LANES]


#: results the corner kernel stores per lane
FFMA_RESULTS = 4


def _ffma_corner_kernel(lanes):
    """Four operand loads, a straight-line run of four FFMAs (operands
    in three orders, one guarded, one with a float immediate), then a
    store of every FFMA's result."""
    b = KernelBuilder("ffma_corner")
    g, a, x, c, k, t = b.regs(6)
    results = b.regs(FFMA_RESULTS)
    d, e, f, h = results
    p = b.pred()
    b.gtid(g)
    b.ld_global(a, g)
    b.ld_global(x, g, offset=lanes)
    b.ld_global(c, g, offset=2 * lanes)
    b.ld_global(k, g, offset=3 * lanes)
    b.ffma(d, a, x, c)
    b.ffma(e, c, x, a)
    b.irem(t, k, 3)
    b.setp(p, t, CmpOp.EQ, 0)
    b.ffma(f, x, c, a, pred=p)
    b.ffma(h, e, d, -0.0)
    for index, reg in enumerate(results):
        b.st_global(g, reg, offset=(4 + index) * lanes)
    b.exit()
    return b.build()


def _ffma_corner_outputs(triples, engine):
    """Launch the corner kernel over *triples* on 2 SMs (the guard keys
    on each triple's index); per-lane FFMA results."""
    lanes = len(triples)
    memory = GlobalMemory()
    for lane, operands in enumerate(triples):
        for index, value in enumerate(operands + (lane,)):
            memory.store(index * lanes + lane, value)
    GPU(GPUConfig(num_sms=2, engine=engine)).launch(
        _ffma_corner_kernel(lanes),
        LaunchConfig(FFMA_WARPS // 4, 4 * WARP_SIZE), memory=memory)
    return [tuple(memory.load((4 + index) * lanes + lane)
                  for index in range(FFMA_RESULTS))
            for lane in range(lanes)]


def test_ffma_corner_operands_identical_on_every_path():
    """FFMA over the corner operands, mixed per lane, is bit-identical
    on the scalar engine and the vector engine (pickles compare float
    bit patterns)."""
    triples = _ffma_corner_triples()
    scalar = _ffma_corner_outputs(triples, "scalar")
    fast = _ffma_corner_outputs(triples, "fast")
    if pickle.dumps(fast) != pickle.dumps(scalar):
        lane = next(lane for lane, pair in enumerate(fast)
                    if pickle.dumps(pair) != pickle.dumps(scalar[lane]))
        pytest.fail(f"fast diverged from scalar at lane {lane}: operands "
                    f"{triples[lane]!r} -> {fast[lane]!r}, scalar "
                    f"{scalar[lane]!r}")
