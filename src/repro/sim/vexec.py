"""Lane-vectorized execution engine (the fast path of the executor).

The scalar interpreter in :mod:`repro.sim.executor` resolves operands
and walks a ~40-branch opcode chain once per lane per instruction.  This
module replaces that with the shape GPGPU-Sim-class simulators use:

* **decode once** — :func:`decoded` builds, per :class:`Program`, one
  :class:`DecodedInst` per instruction: an operand fetch plan, the
  memoized opcode metadata, and a handler resolved from a dispatch table
  of compiled per-opcode NumPy kernels;
* **execute lane-batched** — per dynamic issue the handler runs once
  over the warp's active-slot register columns (gathered straight from
  the warp's NumPy value planes) instead of once per lane.

Bit-identity with the scalar path is a hard contract: every handler
reproduces :func:`repro.sim.executor.compute_lane` exactly (i32
wrap-around, truncating division, Python ``min``/``max`` NaN ordering,
the first-operand rule for two NaN operands, SETP's per-lane
int-vs-float comparison rule), and issue events carry
the same Python-native per-lane inputs and results, so the RFU /
ReplayQ / comparator layers cannot tell which engine executed an
instruction.  Anything the vector engine cannot reproduce exactly — a
register value outside the planes, a float operand to an integer op, a
non-finite F2I — raises :class:`VectorFallback` *before any state is
mutated* and the issue re-runs on the scalar path.

The SFU opcodes are "list-mapped": operands are gathered vectorized,
but the transcendental itself runs through the same ``math`` routines
as the scalar ALU, because NumPy's SIMD transcendentals are not
guaranteed bit-identical to libm.
"""

from __future__ import annotations

import functools
import math
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from repro.isa.instruction import Instruction
from repro.isa.opcodes import CmpOp, Opcode
from repro.isa.operands import Imm, Reg, SReg, SpecialReg
from repro.sim.events import IssueEvent

_U32 = 0xFFFFFFFF
_I32_SIGN = 0x80000000
_I64_MIN = -(1 << 63)
_TWO63 = float(1 << 63)


class VectorFallback(Exception):
    """Raised when an issue needs the scalar engine for exactness.

    Guaranteed to fire before the issue mutates any architectural state,
    so the caller can simply re-execute on the scalar path.
    """


# ----------------------------------------------------------------------
# Mask geometry (memoized per mask value)
# ----------------------------------------------------------------------
@functools.lru_cache(maxsize=1 << 15)
def mask_bits(mask: int, width: int) -> np.ndarray:
    """Read-only bool lane vector for *mask* (bit ``i`` -> element ``i``)."""
    shifts = np.arange(width, dtype=np.uint64)
    bits = ((np.uint64(mask) >> shifts) & np.uint64(1)).astype(np.bool_)
    bits.setflags(write=False)
    return bits


@functools.lru_cache(maxsize=64)
def _lane_powers(width: int) -> np.ndarray:
    powers = np.left_shift(np.int64(1), np.arange(width, dtype=np.int64))
    powers.setflags(write=False)
    return powers


def pack_mask(bits: np.ndarray) -> int:
    """Inverse of :func:`mask_bits`: bool lane vector -> int mask."""
    return int(np.dot(bits, _lane_powers(bits.shape[0])))


# ----------------------------------------------------------------------
# Gathered operand values
# ----------------------------------------------------------------------
class Val:
    """One operand (or result) column over the active lanes.

    ``isf`` tells which plane holds the architectural value:
    ``None`` — all-int (``i`` is an int64 array or a Python int);
    ``True`` — all-float (``f`` is a float64 array or a Python float);
    bool array — mixed, per-lane tags (both planes populated).
    """

    __slots__ = ("i", "f", "isf")

    def __init__(self, i, f, isf) -> None:
        self.i = i
        self.f = f
        self.isf = isf


def _vi(x) -> Val:
    return Val(x, None, None)


def _vf(x) -> Val:
    return Val(None, x, True)


def _ints(val: Val):
    """Integer view; any float-tagged lane needs scalar semantics."""
    if val.isf is None:
        return val.i
    raise VectorFallback


def _floats(val: Val, n: int):
    """Float view, converting int lanes exactly like ``_as_float``."""
    isf = val.isf
    if isf is True:
        return val.f
    if isf is None:
        if isinstance(val.i, np.ndarray):
            return val.i.astype(np.float64)
        return float(val.i)
    return np.where(isf, val.f, val.i.astype(np.float64))


def _to_lanes(x, n: int) -> np.ndarray:
    """Broadcast scalars/0-d results to an ``n``-lane array."""
    x = np.asarray(x)
    if x.shape != (n,):
        x = np.broadcast_to(x, (n,))
    return x


def _py(val: Val, n: int) -> list:
    """Per-lane Python values with the exact scalar-path types."""
    isf = val.isf
    if isf is None:
        v = val.i
    elif isf is True:
        v = val.f
    else:
        ints = val.i.tolist()
        floats = val.f.tolist()
        return [f if t else i
                for i, f, t in zip(ints, floats, isf.tolist())]
    if isinstance(v, np.ndarray):
        lst = v.tolist()
        return lst if isinstance(lst, list) else [lst] * n
    return [v] * n


def _normalize(val: Val, n: int) -> Val:
    """Force result planes to lane arrays (for write-back and events)."""
    if val.isf is None:
        return Val(_to_lanes(val.i, n), None, None)
    if val.isf is True:
        return Val(None, _to_lanes(val.f, n), True)
    return Val(_to_lanes(val.i, n), _to_lanes(val.f, n),
               _to_lanes(val.isf, n))


# ----------------------------------------------------------------------
# Compiled per-opcode kernels
# ----------------------------------------------------------------------
def _wrap(x):
    """Vector form of ``_wrap_i32`` (int64 in, signed-32 range out)."""
    return ((x + _I32_SIGN) & _U32) - _I32_SIGN


def _guard_i64_min(*arrays) -> None:
    # |INT64_MIN| overflows int64 abs(); those values only reach the
    # planes through out-of-ISA immediates, so punt to bigint semantics.
    for array in arrays:
        if isinstance(array, np.ndarray):
            if np.any(np.equal(array, _I64_MIN)):
                raise VectorFallback
        elif array == _I64_MIN:
            raise VectorFallback


def _h_mov(v, n):
    return v[0]


def _h_iadd(v, n):
    return _vi(_wrap(_ints(v[0]) + _ints(v[1])))


def _h_isub(v, n):
    return _vi(_wrap(_ints(v[0]) - _ints(v[1])))


def _h_imul(v, n):
    return _vi(_wrap(_ints(v[0]) * _ints(v[1])))


def _h_imad(v, n):
    return _vi(_wrap(_ints(v[0]) * _ints(v[1]) + _ints(v[2])))


def _h_idiv(v, n):
    a = _to_lanes(_ints(v[0]), n)
    b = _to_lanes(_ints(v[1]), n)
    _guard_i64_min(a, b)
    nonzero = b != 0
    safe_b = np.where(nonzero, b, 1)
    q = np.abs(a) // np.abs(safe_b)
    q = np.where((a < 0) != (safe_b < 0), -q, q)
    return _vi(_wrap(np.where(nonzero, q, 0)))


def _h_irem(v, n):
    a = _to_lanes(_ints(v[0]), n)
    b = _to_lanes(_ints(v[1]), n)
    _guard_i64_min(a, b)
    nonzero = b != 0
    safe_b = np.where(nonzero, b, 1)
    r = np.abs(a) % np.abs(safe_b)
    r = np.where(a < 0, -r, r)
    return _vi(np.where(nonzero, _wrap(r), 0))


def _h_imin(v, n):
    a, b = _ints(v[0]), _ints(v[1])
    return _vi(np.where(np.less(b, a), b, a))  # == Python min(a, b)


def _h_imax(v, n):
    a, b = _ints(v[0]), _ints(v[1])
    return _vi(np.where(np.greater(b, a), b, a))  # == Python max(a, b)


def _h_and(v, n):
    return _vi(_wrap((_ints(v[0]) & _U32) & (_ints(v[1]) & _U32)))


def _h_or(v, n):
    return _vi(_wrap((_ints(v[0]) & _U32) | (_ints(v[1]) & _U32)))


def _h_xor(v, n):
    return _vi(_wrap((_ints(v[0]) & _U32) ^ (_ints(v[1]) & _U32)))


def _h_not(v, n):
    return _vi(_wrap(~(_to_lanes(_ints(v[0]), n) & _U32)))


def _h_shl(v, n):
    return _vi(_wrap((_ints(v[0]) & _U32) << (_ints(v[1]) & 31)))


def _h_shr(v, n):
    return _vi(_wrap((_ints(v[0]) & _U32) >> (_ints(v[1]) & 31)))


def _nan_first(r, a, b):
    """Vector form of the ALU's two-NaN rule (``executor._nan_first``):
    where both operands are NaN, the result is *a*'s NaN, quieted —
    never whichever operand NumPy's loop happened to propagate."""
    if np.isnan(r).any():
        both = np.isnan(a) & np.isnan(b)
        if both.any():
            r = np.where(both, np.add(a, 0.0), r)
    return r


def _h_fadd(v, n):
    a, b = _floats(v[0], n), _floats(v[1], n)
    return _vf(_nan_first(a + b, a, b))


def _h_fsub(v, n):
    a, b = _floats(v[0], n), _floats(v[1], n)
    return _vf(_nan_first(a - b, a, b))


def _h_fmul(v, n):
    a, b = _floats(v[0], n), _floats(v[1], n)
    return _vf(_nan_first(a * b, a, b))


def _h_ffma(v, n):
    # two roundings (mul then add), exactly like the scalar ALU
    a, b, c = _floats(v[0], n), _floats(v[1], n), _floats(v[2], n)
    product = _nan_first(a * b, a, b)
    return _vf(_nan_first(product + c, product, c))


def _h_fmin(v, n):
    a, b = _floats(v[0], n), _floats(v[1], n)
    return _vf(np.where(np.less(b, a), b, a))  # Python min() NaN ordering


def _h_fmax(v, n):
    a, b = _floats(v[0], n), _floats(v[1], n)
    return _vf(np.where(np.greater(b, a), b, a))


def _h_fabs(v, n):
    return _vf(np.abs(_to_lanes(_floats(v[0], n), n)))


def _h_fneg(v, n):
    return _vf(np.negative(_to_lanes(_floats(v[0], n), n)))


def _h_i2f(v, n):
    return _vf(_to_lanes(_ints(v[0]), n).astype(np.float64))


def _h_f2i(v, n):
    x = _to_lanes(_floats(v[0], n), n)
    # int(nan/inf) raises and |x| >= 2**63 needs bigints: scalar path.
    if not np.isfinite(x).all() or np.any(np.abs(x) >= _TWO63):
        raise VectorFallback
    return _vi(_wrap(x.astype(np.int64)))


# SFU transcendentals reuse the scalar ALU's exact formulas (libm via
# ``math``); only the operand gather is vectorized.
def _sfu_sqrt(x: float) -> float:
    return math.sqrt(max(0.0, x))


def _sfu_rsqrt(x: float) -> float:
    return 1.0 / math.sqrt(x) if x > 0.0 else 0.0


def _sfu_exp(x: float) -> float:
    return math.exp(min(x, 700.0))


def _sfu_log(x: float) -> float:
    return math.log(x) if x > 0.0 else float("-inf")


#: scalar transcendental per SFU opcode, list-mapped over the lanes by
#: :func:`_make_sfu`
SFU_SCALAR_FNS: Dict[Opcode, Callable[[float], float]] = {
    Opcode.SIN: math.sin, Opcode.COS: math.cos,
    Opcode.SQRT: _sfu_sqrt, Opcode.RSQRT: _sfu_rsqrt,
    Opcode.EXP: _sfu_exp, Opcode.LOG: _sfu_log,
}


def _make_sfu(scalar_fn: Callable[[float], float]):
    def handler(v, n):
        x = _to_lanes(_floats(v[0], n), n)
        return _vf(np.asarray([scalar_fn(value) for value in x.tolist()],
                              dtype=np.float64))
    return handler


_CMP_UFUNCS = {
    CmpOp.EQ: np.equal, CmpOp.NE: np.not_equal,
    CmpOp.LT: np.less, CmpOp.LE: np.less_equal,
    CmpOp.GT: np.greater, CmpOp.GE: np.greater_equal,
}


def _make_setp(cmp: CmpOp):
    """SETP kernel: per-lane int-vs-float comparison rule of the ALU."""
    ufunc = _CMP_UFUNCS[cmp]

    def handler(v, n) -> np.ndarray:
        a, b = v
        fa, fb = a.isf, b.isf
        if fa is True or fb is True:
            # a float on one side makes every lane a float compare
            return _to_lanes(ufunc(_floats(a, n), _floats(b, n)), n)
        if fa is None and fb is None:
            return _to_lanes(ufunc(a.i, b.i), n)
        # mixed tags: int compare where both lanes are ints, float
        # compare where either side holds a float
        any_float = ((fa if fa is not None else False)
                     | (fb if fb is not None else False))
        as_int = ufunc(a.i, b.i)
        as_float = ufunc(_floats(a, n), _floats(b, n))
        return _to_lanes(np.where(any_float, as_float, as_int), n)

    return handler


def _h_selp(v, n, pred: np.ndarray) -> Val:
    a, b = v
    fa, fb = a.isf, b.isf
    if fa is None and fb is None:
        return _vi(np.where(pred, a.i, b.i))
    if fa is True and fb is True:
        return _vf(np.where(pred, a.f, b.f))
    plane_ai = a.i if a.i is not None else 0
    plane_bi = b.i if b.i is not None else 0
    plane_af = a.f if a.f is not None else 0.0
    plane_bf = b.f if b.f is not None else 0.0
    tag_a = fa if isinstance(fa, np.ndarray) else (fa is True)
    tag_b = fb if isinstance(fb, np.ndarray) else (fb is True)
    return Val(np.where(pred, plane_ai, plane_bi),
               np.where(pred, plane_af, plane_bf),
               _to_lanes(np.where(pred, tag_a, tag_b), n))


def _h_nop(v, n):
    return _vi(0)


_ALU_HANDLERS: Dict[Opcode, Callable] = {
    Opcode.MOV: _h_mov,
    Opcode.IADD: _h_iadd, Opcode.ISUB: _h_isub, Opcode.IMUL: _h_imul,
    Opcode.IMAD: _h_imad, Opcode.IDIV: _h_idiv, Opcode.IREM: _h_irem,
    Opcode.IMIN: _h_imin, Opcode.IMAX: _h_imax,
    Opcode.AND: _h_and, Opcode.OR: _h_or, Opcode.XOR: _h_xor,
    Opcode.NOT: _h_not, Opcode.SHL: _h_shl, Opcode.SHR: _h_shr,
    Opcode.FADD: _h_fadd, Opcode.FSUB: _h_fsub, Opcode.FMUL: _h_fmul,
    Opcode.FFMA: _h_ffma, Opcode.FMIN: _h_fmin, Opcode.FMAX: _h_fmax,
    Opcode.FABS: _h_fabs, Opcode.FNEG: _h_fneg,
    Opcode.I2F: _h_i2f, Opcode.F2I: _h_f2i,
    **{op: _make_sfu(fn) for op, fn in SFU_SCALAR_FNS.items()},
    Opcode.NOP: _h_nop,
}


# ----------------------------------------------------------------------
# Decode cache
# ----------------------------------------------------------------------
_SRC_REG = 0
_SRC_IMM_I = 1
_SRC_IMM_F = 2
_SRC_SREG = 3

_SREG_FETCH = {
    SpecialReg.TID: lambda warp, sel: warp.tid_vec[sel],
    SpecialReg.NTID: lambda warp, sel: warp.block.block_dim,
    SpecialReg.CTAID: lambda warp, sel: warp.block.block_id,
    SpecialReg.NCTAID: lambda warp, sel: warp.grid_dim,
    SpecialReg.GTID: lambda warp, sel: warp.gtid_vec[sel],
    SpecialReg.LANEID: lambda warp, sel: warp.laneid_vec[sel],
}

#: execution shapes the vector engine knows how to run
_KIND_ALU = "alu"
_KIND_SETP = "setp"
_KIND_SELP = "selp"
_KIND_BRA = "bra"
_KIND_LOAD = "load"
_KIND_STORE = "store"


class DecodedInst:
    """Per-instruction decode artifacts, built once per program."""

    __slots__ = ("inst", "opcode", "info", "kind", "fn", "dest", "pdst",
                 "psrc", "pred", "pred_neg", "offset", "src_plans",
                 "is_global")

    def __init__(self, inst: Instruction) -> None:
        self.inst = inst
        self.opcode = inst.opcode
        self.info = inst.info
        self.dest = inst.dest_register()
        self.pdst = inst.pdst
        self.psrc = inst.psrc
        self.pred = inst.pred
        self.pred_neg = inst.pred_neg
        self.offset = inst.offset
        self.src_plans = tuple(_plan_operand(op) for op in inst.srcs)
        self.is_global = inst.opcode in (Opcode.LD_GLOBAL, Opcode.ST_GLOBAL)
        op = inst.opcode
        if op is Opcode.SETP:
            self.kind, self.fn = _KIND_SETP, _make_setp(inst.cmp)
        elif op is Opcode.SELP:
            self.kind, self.fn = _KIND_SELP, _h_selp
        elif op is Opcode.BRA:
            self.kind, self.fn = _KIND_BRA, _h_nop
        elif self.info.is_load:
            self.kind, self.fn = _KIND_LOAD, _h_iadd
        elif self.info.is_store:
            self.kind, self.fn = _KIND_STORE, _h_iadd
        else:
            self.kind = _KIND_ALU
            self.fn = _ALU_HANDLERS.get(op)  # None -> scalar only


def _plan_operand(operand) -> Tuple[int, object]:
    if isinstance(operand, Reg):
        return (_SRC_REG, operand.idx)
    if isinstance(operand, Imm):
        if type(operand.value) is float:
            return (_SRC_IMM_F, operand.value)
        return (_SRC_IMM_I, operand.value)
    if isinstance(operand, SReg):
        return (_SRC_SREG, _SREG_FETCH[operand.kind])
    raise TypeError(f"unknown operand {operand!r}")


def decoded(program) -> List[DecodedInst]:
    """The program's decode cache (built once, shared by every SM)."""
    return program.memo(
        "vexec.decoded",
        lambda p: [DecodedInst(inst) for inst in p.instructions],
    )


# ----------------------------------------------------------------------
# Issue execution
# ----------------------------------------------------------------------
def _gather(warp, sel, plan) -> Val:
    kind, payload = plan
    if kind == _SRC_REG:
        tags = warp.reg_isf[sel, payload]
        if not tags.any():
            return Val(warp.reg_i[sel, payload], None, None)
        if tags.all():
            return Val(None, warp.reg_f[sel, payload], True)
        return Val(warp.reg_i[sel, payload], warp.reg_f[sel, payload], tags)
    if kind == _SRC_IMM_I:
        return Val(payload, None, None)
    if kind == _SRC_IMM_F:
        return Val(None, payload, True)
    return Val(payload(warp, sel), None, None)


def _write_back(warp, sel, dest: int, val: Val) -> None:
    if val.isf is None:
        warp.reg_i[sel, dest] = val.i
        warp.reg_isf[sel, dest] = False
    elif val.isf is True:
        warp.reg_f[sel, dest] = val.f
        warp.reg_isf[sel, dest] = True
    else:
        warp.reg_i[sel, dest] = val.i
        warp.reg_f[sel, dest] = val.f
        warp.reg_isf[sel, dest] = val.isf


def _fill_event(event: IssueEvent, hw_lanes, cols, results) -> None:
    """Populate per-lane inputs/results exactly like the scalar loop."""
    if cols:
        tuples = list(zip(*cols))
    else:
        tuples = [()] * len(hw_lanes)
    event.lane_inputs.update(zip(hw_lanes, tuples))
    event.lane_results.update(zip(hw_lanes, results))


@np.errstate(all="ignore")
def execute_vector(executor, warp, entry: DecodedInst, event: IssueEvent,
                   exec_mask: int) -> int:
    """Run one issue on the vector engine.

    Mutates the warp/memory state and fills *event* (when
    ``executor.record_lanes`` asks for lane values); returns a BRA's
    taken mask (0 for any other opcode).  Raises
    :class:`VectorFallback` — before touching any state — when the
    issue needs the scalar engine.
    """
    sel, slots, hw_lanes = warp.issue_view(exec_mask)
    n = len(slots)
    kind = entry.kind
    record = executor.record_lanes

    if kind == _KIND_BRA:
        condition = warp.preds[sel, entry.pred] != entry.pred_neg
        results = condition.tolist()
        taken = 0
        for slot, taken_flag in zip(slots, results):
            if taken_flag:
                taken |= 1 << slot
        if record:
            _fill_event(event, hw_lanes, [results], results)
        return taken

    vals = [_gather(warp, sel, plan) for plan in entry.src_plans]

    if kind == _KIND_ALU:
        result = _normalize(entry.fn(vals, n), n)
        # fill before write-back: _gather returns register-file *views*,
        # so writing the dest first would corrupt recorded inputs when a
        # source aliases the destination (functional verify re-executes
        # from these inputs)
        if record:
            _fill_event(event, hw_lanes, [_py(v, n) for v in vals],
                        _py(result, n))
        if entry.dest is not None:
            _write_back(warp, sel, entry.dest, result)
        return 0

    if kind == _KIND_SETP:
        outcome = entry.fn(vals, n)
        warp.preds[sel, entry.pdst] = outcome
        if record:
            _fill_event(event, hw_lanes, [_py(v, n) for v in vals],
                        outcome.tolist())
        return 0

    if kind == _KIND_SELP:
        pred = _to_lanes(warp.preds[sel, entry.psrc], n)
        result = _normalize(_h_selp(vals, n, pred), n)
        if record:
            cols = [_py(v, n) for v in vals] + [pred.tolist()]
            _fill_event(event, hw_lanes, cols, _py(result, n))
        if entry.dest is not None:
            _write_back(warp, sel, entry.dest, result)
        return 0

    # memory: vectorized effective addresses, per-lane word access
    addresses = (_to_lanes(_ints(vals[0]), n) + entry.offset).tolist()
    memory = executor.global_memory if entry.is_global else warp.block.shared
    if record:
        cols = [_py(v, n) for v in vals]
        _fill_event(event, hw_lanes, cols, addresses)
    if kind == _KIND_LOAD:
        dest = entry.dest
        for slot, addr in zip(slots, addresses):
            warp.write_reg(slot, dest, memory.load(addr))
    else:
        stored = cols[1] if record else _py(vals[1], n)
        for addr, value in zip(addresses, stored):
            memory.store(addr, value)
    return 0
