"""Trace-fused megakernel execution engine.

:mod:`repro.sim.vexec` executes one instruction per warp per issue; this
layer fuses *regions* — straight-line runs of vectorizable ALU/SETP/SELP
instructions — into one batched NumPy evaluation, and additionally
batches every warp (across all SMs of a launch) sitting at the same
region entry with the same active mask into a single ``(warps, lanes)``
wide evaluation.

The timing model is untouched.  The SM still issues the region's
instructions one per cycle through the scheduler/scoreboard machinery;
only the *functional* work is hoisted: at the first issue of a region
the whole region executes on staged copies of the gathered register
columns, commits once, and leaves each participating warp a
:class:`RegionStash`.  Subsequent issues of that warp consume the stash
— they produce the same :class:`~repro.sim.events.IssueEvent` stream
(cycle, pc, masks, units) without re-running any arithmetic.

Bit-identity invariants, in the order they are enforced:

* **Region boundaries.**  A region contains only ``alu``/``setp``/
  ``selp`` decoded kinds with a compiled kernel (``fn``), never control
  flow, barriers, EXIT, or memory ops (cross-warp ordering), and never
  *contains* a reconvergence-target PC (advancing into one can pop the
  SIMT stack and change the active mask mid-region; such a PC may still
  *start* a region).  Within a region the SIMT mask is therefore
  constant, so per-instruction execution masks depend only on staged
  guard predicates.
* **Lane-value gating.**  Fusion is enabled only when nothing reads
  per-lane values (:meth:`repro.sim.sm.SM.lane_values_unread`): no
  fault hook, no issue listeners, and no DMR controller or a
  timing-only one (``functional_verify=False``).  Stash-produced
  events carry empty per-lane input/result maps — a timing-only
  controller reads only their pc, unit and masks.
* **Copy-then-commit.**  The region executes entirely on staged copies;
  a :class:`~repro.sim.vexec.VectorFallback` anywhere aborts with no
  state touched and the issue re-runs on the per-issue engines.  A
  region that keeps falling back is disabled after
  :data:`MAX_REGION_FAILURES` attempts.
* **Batch independence.**  All fused math is elementwise (or per-lane
  list-mapped for SFUs), so a warp's results are identical whether it
  executes solo, batched with its SM's warps, or across SMs.

Early commit is safe: registers and predicates are warp-private, a
region reads no memory, and a stashed warp's next issues are exactly
the region's instructions (validated at consume time — a mismatch
raises, it can never silently corrupt).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Set, Tuple

import numpy as np

from repro.common.errors import SimulationError
from repro.sim import vexec
from repro.sim.vexec import (
    Val, VectorFallback, _KIND_ALU, _KIND_SELP, _KIND_SETP, _SRC_IMM_F,
    _SRC_IMM_I, _SRC_REG, _h_selp, _lane_powers, _normalize, _to_lanes,
    mask_bits,
)

_I64_MIN = -(1 << 63)
_I64_MAX = (1 << 63) - 1

#: shortest instruction run worth fusing (a 1-instruction "region" is
#: just the per-issue vector engine with extra bookkeeping)
MIN_REGION_LEN = 2

#: VectorFallback strikes before a region stops trying to fuse
MAX_REGION_FAILURES = 4

_FUSABLE_KINDS = (_KIND_ALU, _KIND_SETP, _KIND_SELP)


class Region:
    """One fusable straight-line run of decoded instructions."""

    __slots__ = ("start", "entries", "failures", "enabled")

    def __init__(self, start: int, entries: Tuple) -> None:
        self.start = start
        self.entries = entries
        self.failures = 0
        self.enabled = True

    @property
    def end(self) -> int:
        return self.start + len(self.entries)

    def __repr__(self) -> str:
        return (f"Region(pc={self.start}..{self.end - 1}, "
                f"n={len(self.entries)}, enabled={self.enabled})")


class RegionStash:
    """Precomputed issue bookkeeping for one warp's trip through a region.

    ``masks[i]`` is the execution mask (logical-slot space) instruction
    ``start + i`` would have computed; the functional results are
    already committed.  ``index`` is the next entry to consume.
    """

    __slots__ = ("region", "masks", "index")

    def __init__(self, region: Region, masks: List[int]) -> None:
        self.region = region
        self.masks = masks
        self.index = 0


def _fusable(entry) -> bool:
    if entry.kind not in _FUSABLE_KINDS or entry.fn is None:
        return False
    for kind, payload in entry.src_plans:
        # an out-of-int64 immediate cannot enter an int64 batch array
        if kind == _SRC_IMM_I and not (_I64_MIN <= payload <= _I64_MAX):
            return False
    return True


def _build_regions(program) -> Dict[int, Region]:
    entries = vexec.decoded(program)
    # Advancing into a reconvergence-target PC may pop the SIMT stack
    # (mask change with no instruction in between), so such PCs bound
    # regions; they may still start one (the pop happens *before* the
    # fuse attempt, at the previous issue's advance).
    reconv_targets = set(program.reconvergence.values())
    table: Dict[int, Region] = {}

    def flush(run_start: int, run_end: int) -> None:
        # Suffix regions: every start position of the run gets its own
        # region over the shared decoded slice, so a warp entering the
        # run mid-way (after a branch) still fuses the tail.
        for s in range(run_start, run_end - MIN_REGION_LEN + 1):
            table[s] = Region(s, tuple(entries[s:run_end]))

    run_start: Optional[int] = None
    for pc in range(len(entries)):
        if _fusable(entries[pc]):
            if run_start is None:
                run_start = pc
            elif pc in reconv_targets:
                flush(run_start, pc)
                run_start = pc
        else:
            if run_start is not None:
                flush(run_start, pc)
                run_start = None
    if run_start is not None:
        flush(run_start, len(entries))
    return table


def region_table(program) -> Dict[int, Region]:
    """The program's region table (built once, shared by every SM)."""
    return program.memo("megakernel.regions", _build_regions)


# ----------------------------------------------------------------------
# Staged batch execution
# ----------------------------------------------------------------------
class _RegState:
    """Staged register/predicate state for one batched region execution.

    Columns are gathered lazily from the warps' planes — ``(K, L)``
    stacks for a batch, flat copied ``(L,)`` columns for a solo warp;
    both are always copies, never aliases — and every write produces
    *fresh* arrays, so aborting mid-region leaves no trace and value
    sharing between staged entries (``MOV``) is safe.
    """

    __slots__ = ("warps", "shape", "regs", "preds", "written_regs",
                 "written_preds")

    def __init__(self, warps: Sequence, shape: Tuple[int, ...]) -> None:
        self.warps = warps
        self.shape = shape
        self.regs: Dict[int, Val] = {}
        self.preds: Dict[int, np.ndarray] = {}
        self.written_regs: Set[int] = set()
        self.written_preds: Set[int] = set()

    def reg(self, r: int) -> Val:
        val = self.regs.get(r)
        if val is None:
            warps = self.warps
            if len(warps) == 1:
                # solo fast path: one copied column in (lanes,) shape —
                # the copy keeps the no-aliasing guarantee (commit may
                # overwrite the source column) at a fraction of the
                # np.stack machinery
                w = warps[0]
                tags = w.reg_isf[:, r]
                if not tags.any():
                    val = Val(w.reg_i[:, r].copy(), None, None)
                elif tags.all():
                    val = Val(None, w.reg_f[:, r].copy(), True)
                else:
                    val = Val(w.reg_i[:, r].copy(), w.reg_f[:, r].copy(),
                              tags.copy())
            else:
                tags = np.stack([w.reg_isf[:, r] for w in warps])
                if not tags.any():
                    val = Val(np.stack([w.reg_i[:, r] for w in warps]),
                              None, None)
                elif tags.all():
                    val = Val(None,
                              np.stack([w.reg_f[:, r] for w in warps]),
                              True)
                else:
                    val = Val(np.stack([w.reg_i[:, r] for w in warps]),
                              np.stack([w.reg_f[:, r] for w in warps]),
                              tags)
            self.regs[r] = val
        return val

    def pred(self, p: int) -> np.ndarray:
        col = self.preds.get(p)
        if col is None:
            warps = self.warps
            if len(warps) == 1:
                col = warps[0].preds[:, p].copy()
            else:
                col = np.stack([w.preds[:, p] for w in warps])
            self.preds[p] = col
        return col

    def operand(self, plan) -> Val:
        kind, payload = plan
        if kind == _SRC_REG:
            return self.reg(payload)
        if kind == _SRC_IMM_I:
            return Val(payload, None, None)
        if kind == _SRC_IMM_F:
            return Val(None, payload, True)
        # special register: per-warp fetch, scalars broadcast per row
        lanes = self.shape[-1]
        warps = self.warps
        if len(warps) == 1:
            row = _to_lanes(np.asarray(payload(warps[0], slice(None))),
                            lanes)
            return Val(row.astype(np.int64, copy=False), None, None)
        rows = [_to_lanes(np.asarray(payload(w, slice(None))), lanes)
                for w in warps]
        return Val(np.stack(rows).astype(np.int64, copy=False), None, None)

    def write_reg(self, r: int, val: Val,
                  wmask: Optional[np.ndarray]) -> None:
        if wmask is not None:
            val = _merge_val(wmask, val, self.reg(r), self.shape)
        self.regs[r] = val
        self.written_regs.add(r)

    def write_pred(self, p: int, outcome: np.ndarray,
                   wmask: Optional[np.ndarray]) -> None:
        if wmask is not None:
            outcome = np.where(wmask, outcome, self.pred(p))
        self.preds[p] = outcome
        self.written_preds.add(p)

    def commit(self) -> None:
        shape = self.shape
        warps = self.warps
        if len(warps) == 1:
            w = warps[0]
            for r in self.written_regs:
                val = self.regs[r]
                isf = val.isf
                if isf is None:
                    w.reg_i[:, r] = _to_lanes(val.i, shape)
                    w.reg_isf[:, r] = False
                elif isf is True:
                    w.reg_f[:, r] = _to_lanes(val.f, shape)
                    w.reg_isf[:, r] = True
                else:
                    w.reg_i[:, r] = _to_lanes(val.i, shape)
                    w.reg_f[:, r] = _to_lanes(val.f, shape)
                    w.reg_isf[:, r] = _to_lanes(isf, shape)
            for p in self.written_preds:
                w.preds[:, p] = self.preds[p]
            return
        for r in self.written_regs:
            val = self.regs[r]
            isf = val.isf
            if isf is None:
                plane = _to_lanes(val.i, shape)
                for k, w in enumerate(warps):
                    w.reg_i[:, r] = plane[k]
                    w.reg_isf[:, r] = False
            elif isf is True:
                plane = _to_lanes(val.f, shape)
                for k, w in enumerate(warps):
                    w.reg_f[:, r] = plane[k]
                    w.reg_isf[:, r] = True
            else:
                pi = _to_lanes(val.i, shape)
                pf = _to_lanes(val.f, shape)
                pt = _to_lanes(isf, shape)
                for k, w in enumerate(warps):
                    w.reg_i[:, r] = pi[k]
                    w.reg_f[:, r] = pf[k]
                    w.reg_isf[:, r] = pt[k]
        for p in self.written_preds:
            col = self.preds[p]
            for k, w in enumerate(warps):
                w.preds[:, p] = col[k]


def _merge_val(wmask: np.ndarray, new: Val, old: Val,
               shape: Tuple[int, ...]) -> Val:
    """Guarded merge: *new* where *wmask*, *old* elsewhere (fresh arrays)."""
    nf, of = new.isf, old.isf
    if nf is None and of is None:
        return Val(np.where(wmask, _to_lanes(new.i, shape),
                            _to_lanes(old.i, shape)), None, None)
    if nf is True and of is True:
        return Val(None, np.where(wmask, _to_lanes(new.f, shape),
                                  _to_lanes(old.f, shape)), True)
    # mixed dtypes: materialize both planes plus per-lane tags (lanes
    # whose plane is unset get a placeholder their tag never selects)
    ni = _to_lanes(new.i if new.i is not None else 0, shape)
    oi = _to_lanes(old.i if old.i is not None else 0, shape)
    nfp = _to_lanes(new.f if new.f is not None else 0.0, shape)
    ofp = _to_lanes(old.f if old.f is not None else 0.0, shape)
    nt = _to_lanes(nf if isinstance(nf, np.ndarray) else (nf is True), shape)
    ot = _to_lanes(of if isinstance(of, np.ndarray) else (of is True), shape)
    return Val(np.where(wmask, ni, oi), np.where(wmask, nfp, ofp),
               np.where(wmask, nt, ot))


@np.errstate(all="ignore")
def execute_region(region: Region, warps: Sequence,
                   mask: int) -> List[RegionStash]:
    """Run *region* for *warps* (all at its entry with SIMT mask *mask*).

    Commits results and returns one stash per warp, in order.  Raises
    :class:`VectorFallback` with **no** state mutated when any fused
    kernel needs scalar semantics.
    """
    width = len(warps)
    lanes = warps[0].live_slots
    # solo groups run in flat (lanes,) shape — same math, none of the
    # (1, lanes) stacking overhead
    shape: Tuple[int, ...] = (lanes,) if width == 1 else (width, lanes)
    simt_row = mask_bits(mask, lanes)  # (lanes,), broadcasts over warps
    simt_full = bool(simt_row.all())
    state = _RegState(warps, shape)
    entries = region.entries
    masks = [[0] * len(entries) for _ in range(width)]

    for idx, entry in enumerate(entries):
        if entry.pred is None:
            # unguarded: executes under the (uniform) SIMT mask
            wmask = None if simt_full else simt_row
            for warp_masks in masks:
                warp_masks[idx] = mask
        else:
            holds = state.pred(entry.pred) != entry.pred_neg
            wmask = holds & simt_row
            if width == 1:
                masks[0][idx] = int(np.dot(wmask, _lane_powers(lanes)))
            else:
                packed = np.dot(wmask, _lane_powers(lanes))
                for k, m in enumerate(packed.tolist()):
                    masks[k][idx] = int(m)
        vals = [state.operand(plan) for plan in entry.src_plans]
        kind = entry.kind
        if kind == _KIND_SETP:
            outcome = entry.fn(vals, shape)
            state.write_pred(entry.pdst, outcome, wmask)
        else:
            if kind == _KIND_SELP:
                raw = _h_selp(vals, shape, state.pred(entry.psrc))
            else:
                raw = entry.fn(vals, shape)
            if entry.dest is not None:
                state.write_reg(entry.dest, _normalize(raw, shape), wmask)

    state.commit()
    return [RegionStash(region, warp_masks) for warp_masks in masks]


# ----------------------------------------------------------------------
# Cross-SM batching
# ----------------------------------------------------------------------
class WarpBatcher:
    """Fuses regions across every fusion-capable SM of a launch.

    SMs simulate sequentially, so when the first warp reaches a region
    entry, peers on *any* SM (including ones that have not started
    running) that sit at the same PC with the same live-slot count and
    active mask join the batch: the whole group executes as one
    ``(warps, lanes)`` evaluation and each member is left a stash its
    own SM consumes when it gets there.  Group membership can only
    widen the arrays — all fused math is elementwise — so results are
    independent of how warps happen to batch.
    """

    __slots__ = ("_sms", "_table", "fused_regions", "fused_warps")

    def __init__(self, sms: Sequence) -> None:
        if not sms:
            raise SimulationError("WarpBatcher needs at least one SM")
        self._sms = list(sms)
        self._table = region_table(sms[0].program)
        #: diagnostics (not part of the stats registry, which must stay
        #: byte-identical across engines)
        self.fused_regions = 0
        self.fused_warps = 0

    def attach(self) -> "WarpBatcher":
        for sm in self._sms:
            sm._batcher = self
            sm.executor._mega = self
        return self

    def detach(self) -> None:
        """Unlink from every SM once they have all run.

        SM -> batcher -> SM is a reference cycle: left linked, a
        launch's warps, register planes and controllers would live
        until the next full garbage collection.
        """
        for sm in self._sms:
            sm._batcher = None
            sm.executor._mega = None
        self._sms = []

    def try_fuse(self, warp, pc: int, inst) -> Optional[RegionStash]:
        """Attempt region fusion for *warp* issuing *inst* at *pc*.

        Returns the warp's stash (peers get theirs as a side effect) or
        ``None`` when no region starts here / fusion is not worthwhile.
        """
        region = self._table.get(pc)
        if region is None or not region.enabled:
            return None
        if region.entries[0].inst is not inst:
            return None  # executor bound to a different program
        mask = warp.stack.current_mask
        lanes = warp.live_slots
        group = [warp]
        for sm in self._sms:
            for peer in sm._resident_warps:
                if (peer is warp or peer.done
                        or peer.mega_stash is not None
                        or peer.reg_overflow
                        or peer.live_slots != lanes):
                    continue
                stack = peer.stack
                if stack.current_pc == pc and stack.current_mask == mask:
                    group.append(peer)
        try:
            stashes = execute_region(region, group, mask)
        except VectorFallback:
            region.failures += 1
            if region.failures >= MAX_REGION_FAILURES:
                region.enabled = False
            return None
        for peer, stash in zip(group, stashes):
            peer.mega_stash = stash
        self.fused_regions += 1
        self.fused_warps += len(group)
        return stashes[0]
