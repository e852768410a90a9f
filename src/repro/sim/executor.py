"""Functional execution of mini-ISA instructions.

Three layers:

* :func:`compute_lane` — the *pure* scalar ALU: opcode + operand values
  in, result value out.  Every DMR re-execution and the scalar
  (slow-path) interpreter go through this single function, so a
  redundant execution is bit-identical unless a fault model perturbs
  one of them.
* :mod:`repro.sim.vexec` — the lane-vectorized fast path: per-program
  decode cache plus compiled per-opcode NumPy kernels that execute a
  whole warp issue at once.
* :class:`Executor` — the stateful layer that picks between them.  The
  vector engine runs every vectorizable issue, faulted runs included:
  only the lanes an armed fault hook may perturb
  (:meth:`FaultHook.site_lanes`) then pass through the hook.  Loads and
  stores with such a lane, and anything the vector engine declines via
  :class:`~repro.sim.vexec.VectorFallback`, run the scalar path, which
  remains the differential oracle for the fast path.

Integer results wrap to signed 32-bit (like real SPs); shifts and
bitwise operations act on the unsigned 32-bit pattern.
"""

from __future__ import annotations

import math
import operator
from typing import Dict, Optional, Tuple

from repro.common.bitops import ActiveMask, active_lane_list
from repro.common.config import ENGINE_NAMES
from repro.common.errors import SimulationError
from repro.isa.instruction import Instruction
from repro.isa.opcodes import CmpOp, Opcode, UnitType
from repro.isa.operands import Imm, Reg, SReg, SpecialReg
from repro.sim import vexec
from repro.sim.events import IssueEvent
from repro.sim.memory import GlobalMemory
from repro.sim.warp import Warp

_U32 = 0xFFFFFFFF

#: SETP comparison semantics, resolved once at import instead of
#: rebuilding a dict (and evaluating all six compares) per lane.
_SETP_CMP = {
    CmpOp.EQ: operator.eq, CmpOp.NE: operator.ne,
    CmpOp.LT: operator.lt, CmpOp.LE: operator.le,
    CmpOp.GT: operator.gt, CmpOp.GE: operator.ge,
}


def _wrap_i32(value: int) -> int:
    """Wrap a Python int to signed 32-bit two's complement."""
    value &= _U32
    return value - (1 << 32) if value & 0x80000000 else value


def _as_u32(value: object) -> int:
    return int(value) & _U32


def _as_int(value: object) -> int:
    # int() already truncates floats toward zero, which is exactly the
    # F2I semantics; no float special-casing needed.
    return int(value)


def _as_float(value: object) -> float:
    return float(value)


def _nan_first(result: float, a: float, b: float) -> float:
    """*result* of ``a op b``, except that two NaN operands give *a*'s.

    IEEE 754 leaves open which NaN a two-NaN operation returns.  x86
    returns its first source register's, but which operand is first is
    the compiler's choice: CPython's ``a * b`` and ``a + b`` return
    *b*'s NaN until its adaptive interpreter specializes the code site
    and *a*'s after, NumPy's array loops *a*'s, and its
    scalar-broadcast loops either.  The ISA therefore fixes it — the
    first operand in instruction order, quieted (``a + 0.0``), as the
    hardware returns it — and both engines apply the rule
    (:mod:`repro.sim.vexec`).
    """
    if a != a and b != b:
        return a + 0.0
    return result


def compute_lane(inst: Instruction, inputs: Tuple) -> object:
    """Pure per-lane ALU/AGU computation.

    For memory instructions the *result* is the effective address (the
    quantity Warped-DMR verifies); for SETP it is the boolean outcome;
    for BRA it is the taken flag (the guard predicate value is passed as
    the single input); for SELP the predicate is appended as a final
    input.
    """
    op = inst.opcode
    if op is Opcode.MOV:
        return inputs[0]
    if op is Opcode.IADD:
        return _wrap_i32(_as_int(inputs[0]) + _as_int(inputs[1]))
    if op is Opcode.ISUB:
        return _wrap_i32(_as_int(inputs[0]) - _as_int(inputs[1]))
    if op is Opcode.IMUL:
        return _wrap_i32(_as_int(inputs[0]) * _as_int(inputs[1]))
    if op is Opcode.IMAD:
        return _wrap_i32(
            _as_int(inputs[0]) * _as_int(inputs[1]) + _as_int(inputs[2])
        )
    if op is Opcode.IDIV:
        b = _as_int(inputs[1])
        if b == 0:
            return 0  # hardware "undefined"; modeled as 0 for determinism
        q = abs(_as_int(inputs[0])) // abs(b)
        if (_as_int(inputs[0]) < 0) != (b < 0):
            q = -q
        return _wrap_i32(q)
    if op is Opcode.IREM:
        b = _as_int(inputs[1])
        if b == 0:
            return 0
        a = _as_int(inputs[0])
        r = abs(a) % abs(b)
        return _wrap_i32(-r if a < 0 else r)
    if op is Opcode.IMIN:
        return min(_as_int(inputs[0]), _as_int(inputs[1]))
    if op is Opcode.IMAX:
        return max(_as_int(inputs[0]), _as_int(inputs[1]))
    if op is Opcode.AND:
        return _wrap_i32(_as_u32(inputs[0]) & _as_u32(inputs[1]))
    if op is Opcode.OR:
        return _wrap_i32(_as_u32(inputs[0]) | _as_u32(inputs[1]))
    if op is Opcode.XOR:
        return _wrap_i32(_as_u32(inputs[0]) ^ _as_u32(inputs[1]))
    if op is Opcode.NOT:
        return _wrap_i32(~_as_u32(inputs[0]))
    if op is Opcode.SHL:
        return _wrap_i32(_as_u32(inputs[0]) << (_as_int(inputs[1]) & 31))
    if op is Opcode.SHR:
        return _wrap_i32(_as_u32(inputs[0]) >> (_as_int(inputs[1]) & 31))
    if op is Opcode.FADD:
        a, b = _as_float(inputs[0]), _as_float(inputs[1])
        r = a + b
        return r if r == r else _nan_first(r, a, b)
    if op is Opcode.FSUB:
        a, b = _as_float(inputs[0]), _as_float(inputs[1])
        r = a - b
        return r if r == r else _nan_first(r, a, b)
    if op is Opcode.FMUL:
        a, b = _as_float(inputs[0]), _as_float(inputs[1])
        r = a * b
        return r if r == r else _nan_first(r, a, b)
    if op is Opcode.FFMA:
        # two roundings: the product, then the sum
        a, b, c = (_as_float(inputs[0]), _as_float(inputs[1]),
                   _as_float(inputs[2]))
        product = a * b
        if product != product:
            product = _nan_first(product, a, b)
        r = product + c
        return r if r == r else _nan_first(r, product, c)
    if op is Opcode.FMIN:
        return min(_as_float(inputs[0]), _as_float(inputs[1]))
    if op is Opcode.FMAX:
        return max(_as_float(inputs[0]), _as_float(inputs[1]))
    if op is Opcode.FABS:
        return abs(_as_float(inputs[0]))
    if op is Opcode.FNEG:
        return -_as_float(inputs[0])
    if op is Opcode.I2F:
        return float(_as_int(inputs[0]))
    if op is Opcode.F2I:
        return _wrap_i32(int(_as_float(inputs[0])))
    if op is Opcode.SIN:
        return math.sin(_as_float(inputs[0]))
    if op is Opcode.COS:
        return math.cos(_as_float(inputs[0]))
    if op is Opcode.SQRT:
        return math.sqrt(max(0.0, _as_float(inputs[0])))
    if op is Opcode.RSQRT:
        x = _as_float(inputs[0])
        return 1.0 / math.sqrt(x) if x > 0.0 else 0.0
    if op is Opcode.EXP:
        return math.exp(min(_as_float(inputs[0]), 700.0))
    if op is Opcode.LOG:
        x = _as_float(inputs[0])
        return math.log(x) if x > 0.0 else float("-inf")
    if op is Opcode.SETP:
        a, b = inputs
        if isinstance(a, float) or isinstance(b, float):
            a, b = _as_float(a), _as_float(b)
        else:
            a, b = _as_int(a), _as_int(b)
        return _SETP_CMP[inst.cmp](a, b)
    if op is Opcode.SELP:
        return inputs[0] if inputs[2] else inputs[1]
    if op is Opcode.BRA:
        return bool(inputs[0])
    if op in (Opcode.LD_GLOBAL, Opcode.LD_SHARED):
        return _as_int(inputs[0]) + inst.offset  # effective address
    if op in (Opcode.ST_GLOBAL, Opcode.ST_SHARED):
        return _as_int(inputs[0]) + inst.offset  # effective address
    if op in (Opcode.JMP, Opcode.EXIT, Opcode.BAR, Opcode.NOP):
        return 0
    raise SimulationError(f"no functional semantics for {op}")


class FaultHook:
    """Interface for perturbing execution-unit outputs.

    The default implementation is fault free.  The fault-injection
    package provides real implementations.  The fault-model contract:
    :meth:`apply` sees a lane-computation on the *hardware lane* that
    performed it, in slot order within an issue; off :meth:`site_lanes`
    it is the identity and changes no state, so it is called there only.
    """

    def apply(self, sm_id: int, unit: UnitType, hw_lane: int,
              cycle: int, value: object) -> object:
        return value

    def site_lanes(self, sm_id: int, unit: UnitType, cycle: int) -> int:
        """Mask of the hw lanes on which :meth:`apply` may change a
        value computed by *unit* on *sm_id* at *cycle* (0: none).  The
        conservative default, every bit set (``-1``), keeps any hook
        exact."""
        return -1


class Executor:
    """Stateful functional executor bound to one SM.

    ``engine`` selects the execution strategy (the SM passes its
    ``GPUConfig.engine``): ``"fast"`` (default) runs the vectorized
    engine whenever it can reproduce scalar semantics bit-for-bit;
    ``"scalar"`` pins every issue to the per-lane interpreter.  With a
    fault hook armed, an ALU, SETP, SELP or BRA issue runs vectorized,
    then passes only its active site lanes
    (:meth:`FaultHook.site_lanes`) through :meth:`FaultHook.apply`, in
    slot order, and writes back what changed; ``perturbed_mask``
    records those lanes.  A load or store with a site lane runs scalar:
    a perturbed address picks the word, and the per-lane order of hook
    calls and accesses decides which lane faults first.

    ``record_lanes`` says whether issue events must carry per-lane
    inputs and results.  The SM clears it when nothing attached reads
    lane values (:meth:`repro.sim.sm.SM.lane_values_unread`); the
    vector engine then skips building them.
    """

    def __init__(self, sm_id: int, global_memory: GlobalMemory,
                 fault_hook: Optional[FaultHook] = None,
                 engine: str = "fast") -> None:
        if engine not in ENGINE_NAMES:
            raise SimulationError(
                f"unknown execution engine {engine!r}; expected one of "
                f"{ENGINE_NAMES}"
            )
        self.sm_id = sm_id
        self.global_memory = global_memory
        self.fault_hook = fault_hook or FaultHook()
        self.engine = engine
        #: whether a fault hook is armed (it reads every lane value)
        self.faulty = fault_hook is not None
        self._vector_enabled = engine == "fast"
        #: whether issue events carry per-lane inputs/results
        self.record_lanes = True
        self._decoded: Optional[list] = None
        self._adhoc: Dict[Instruction, vexec.DecodedInst] = {}
        #: issue counts per engine (diagnostics; not part of the stats registry so
        #: result payloads stay byte-identical across engines).
        #: ``replayed_issues`` counts issues a replaying executor took
        #: from a recorded trace (:mod:`repro.sim.replay`) without
        #: executing
        self.vector_issues = 0
        self.scalar_issues = 0
        self.replayed_issues = 0

    def bind_program(self, program) -> None:
        """Attach *program*'s decode cache for O(1) per-pc lookups."""
        self._decoded = (vexec.decoded(program)
                         if self._vector_enabled else None)

    def issue_event(self, warp: Warp, inst: Instruction, pc: int,
                    cycle: int, exec_mask: ActiveMask) -> IssueEvent:
        """The issue's event with no lane values recorded (yet).

        Carries everything a timing-only consumer reads: pc, opcode,
        unit, masks and destination.  :meth:`execute` fills the lanes
        in when ``record_lanes`` asks for them.
        """
        return IssueEvent(
            cycle=cycle,
            sm_id=self.sm_id,
            warp_id=warp.warp_id,
            pc=pc,
            instruction=inst,
            logical_mask=exec_mask,
            hw_mask=warp.hw_mask(exec_mask),
            warp_width=warp.warp_size,
            dest_reg=inst.dest_register(),
        )

    # ------------------------------------------------------------------
    def _operand_value(self, warp: Warp, slot: int, operand) -> object:
        if isinstance(operand, Reg):
            return warp.read_reg(slot, operand.idx)
        if isinstance(operand, Imm):
            return operand.value
        if isinstance(operand, SReg):
            kind = operand.kind
            if kind is SpecialReg.TID:
                return warp.tid(slot)
            if kind is SpecialReg.NTID:
                return warp.block.block_dim
            if kind is SpecialReg.CTAID:
                return warp.block.block_id
            if kind is SpecialReg.NCTAID:
                return warp.grid_dim
            if kind is SpecialReg.GTID:
                return warp.gtid(slot)
            if kind is SpecialReg.LANEID:
                return warp.lane_of_slot[slot]
            raise SimulationError(f"unknown special register {kind}")
        raise SimulationError(f"unknown operand {operand!r}")

    def _guard_mask(self, warp: Warp, inst: Instruction,
                    mask: ActiveMask) -> ActiveMask:
        """Apply the instruction's guard predicate to the SIMT mask."""
        if inst.pred is None:
            return mask
        bits = vexec.mask_bits(mask, warp.live_slots)
        holds = warp.preds[:, inst.pred] != inst.pred_neg
        return vexec.pack_mask(bits & holds)

    def _decoded_entry(self, warp: Warp, inst: Instruction,
                       pc: int) -> Optional[vexec.DecodedInst]:
        """Decode-cache lookup, or ``None`` if the issue must go scalar."""
        if not self._vector_enabled or warp.reg_overflow:
            return None
        decoded = self._decoded
        if (decoded is not None and pc < len(decoded)
                and decoded[pc].inst is inst):
            entry = decoded[pc]
        else:
            # unbound program (direct Executor use): decode on demand,
            # keyed by instruction equality
            entry = self._adhoc.get(inst)
            if entry is None:
                entry = vexec.DecodedInst(inst)
                self._adhoc[inst] = entry
        return entry if entry.fn is not None else None

    # ------------------------------------------------------------------
    def execute(self, warp: Warp, inst: Instruction, pc: int,
                cycle: int) -> Tuple[IssueEvent, ActiveMask]:
        """Execute *inst* for the warp's current active mask.

        Architectural state (registers, predicates, memory) is updated
        immediately; control flow and timing are the SM's job.  Returns
        the issue's event, which captures per-lane inputs and results
        for DMR re-execution, and the mask of slots that take a BRA (0
        for any other opcode).  Every other control outcome follows from
        the opcode and ``event.logical_mask``: a BRA's is the SIMT mask,
        and an EXIT retires exactly its guarded lanes.
        """
        op = inst.opcode
        simt_mask = warp.stack.current_mask
        # BRA's predicate is the branch *condition*, not an execution
        # guard: every SIMT-active lane evaluates the branch.
        if op is Opcode.BRA:
            exec_mask = simt_mask
        else:
            exec_mask = self._guard_mask(warp, inst, simt_mask)
        event = self.issue_event(warp, inst, pc, cycle, exec_mask)
        if op is Opcode.BAR or op is Opcode.EXIT or op is Opcode.JMP:
            return event, 0
        info = inst.info

        entry = self._decoded_entry(warp, inst, pc)
        site = 0
        if entry is not None and self.faulty:
            site = (self.fault_hook.site_lanes(self.sm_id, inst.unit, cycle)
                    & event.hw_mask)
            if site and (info.is_load or info.is_store):
                entry = None  # a perturbed address picks the word: scalar
        if entry is not None:
            # Counted before it runs, like the scalar path, so an issue
            # that raises (a bad address) counts on the engine that ran it.
            self.vector_issues += 1
            try:
                taken = vexec.execute_vector(self, warp, entry, event,
                                             exec_mask)
            except vexec.VectorFallback:
                # state untouched; only the scalar re-run below counts
                self.vector_issues -= 1
            else:
                if site:
                    taken = self._apply_site_lanes(warp, event, taken, site)
                return event, taken

        self.scalar_issues += 1
        taken = 0
        for slot in active_lane_list(exec_mask, warp.live_slots):
            hw_lane = warp.lane_of_slot[slot]
            if op is Opcode.BRA:
                condition = warp.read_pred(slot, inst.pred) != inst.pred_neg
                inputs: Tuple = (condition,)
            elif op is Opcode.SELP:
                inputs = tuple(
                    self._operand_value(warp, slot, s) for s in inst.srcs
                ) + (warp.read_pred(slot, inst.psrc),)
            else:
                inputs = tuple(
                    self._operand_value(warp, slot, s) for s in inst.srcs
                )
            raw = compute_lane(inst, inputs)
            value = self.fault_hook.apply(
                self.sm_id, inst.unit, hw_lane, cycle, raw
            )
            if value is not raw:
                event.perturbed_mask |= 1 << hw_lane
            event.lane_inputs[hw_lane] = inputs
            event.lane_results[hw_lane] = value

            if op is Opcode.BRA:
                if value:
                    taken |= 1 << slot
            elif op is Opcode.SETP:
                warp.write_pred(slot, inst.pdst, bool(value))
            elif info.is_load:
                addr = value
                if op is Opcode.LD_GLOBAL:
                    loaded = self.global_memory.load(addr)
                else:
                    loaded = warp.block.shared.load(addr)
                warp.write_reg(slot, inst.dst.idx, loaded)
            elif info.is_store:
                addr = value
                stored = inputs[1]
                if op is Opcode.ST_GLOBAL:
                    self.global_memory.store(addr, stored)
                else:
                    warp.block.shared.store(addr, stored)
            elif info.writes_reg:
                warp.write_reg(slot, inst.dst.idx, value)

        # a BRA's guard-false lanes fall through; the taken mask drives
        # divergence
        return event, taken

    def _apply_site_lanes(self, warp: Warp, event: IssueEvent,
                          taken: ActiveMask, site: int) -> ActiveMask:
        """Pass the *site* lanes' vector results through the fault hook,
        in slot order, and write back each value it changed (register,
        predicate or taken bit); no such write can raise.  Returns the
        BRA taken mask with the changed bits."""
        inst = event.instruction
        op = inst.opcode
        results = event.lane_results
        _, slots, hw_lanes = warp.issue_view(event.logical_mask)
        for slot, hw_lane in zip(slots, hw_lanes):
            if not (site >> hw_lane) & 1:
                continue
            raw = results[hw_lane]
            value = self.fault_hook.apply(
                self.sm_id, inst.unit, hw_lane, event.cycle, raw
            )
            if value is raw:
                continue
            results[hw_lane] = value
            event.perturbed_mask |= 1 << hw_lane
            if op is Opcode.BRA:
                taken = taken & ~(1 << slot) | bool(value) << slot
            elif op is Opcode.SETP:
                warp.write_pred(slot, inst.pdst, bool(value))
            elif inst.info.writes_reg:
                warp.write_reg(slot, inst.dst.idx, value)
        return taken

    # ------------------------------------------------------------------
    def reexecute_lane(self, event: IssueEvent, original_lane: int,
                       verify_lane: int, cycle: int) -> object:
        """Redundantly recompute *original_lane*'s result on *verify_lane*.

        Uses the source values captured at issue time (the ReplayQ /
        RFU store values, not register names), runs the pure ALU, and
        applies the fault hook at the *verifier's* lane — so a defect on
        either lane makes the comparison fail.
        """
        inputs = event.lane_inputs[original_lane]
        raw = compute_lane(event.instruction, inputs)
        return self.fault_hook.apply(
            event.sm_id, event.instruction.unit, verify_lane, cycle, raw
        )
