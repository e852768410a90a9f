"""Warp and thread-block state.

A :class:`Warp` owns the architectural state of its 32 threads: general
registers, predicate registers, the SIMT reconvergence stack, and the
logical-thread-slot to hardware-lane mapping installed by the
thread-to-core mapping policy (paper Section 4.2).

Logical slot ``j`` of a warp is thread ``warp_base + j`` of its block.
The SIMT stack and all functional state are indexed by logical slot; the
hardware lane only matters to Warped-DMR (cluster pairing, fault sites),
so the mapping is a pure permutation applied when building hw masks.

Register state is held in NumPy *planes* so the vectorized execution
engine (:mod:`repro.sim.vexec`) can gather a whole operand column in one
slice: an ``int64`` value plane, a ``float64`` value plane, and a dtype
tag plane saying which one holds lane ``slot``'s architectural value for
each register.  Integer results always wrap to signed 32 bits before
write-back, so ``int64`` is lossless; the rare value that fits neither
plane (a huge immediate, a bool smuggled through memory) parks in an
overflow side table and drops the warp back to the scalar engine.
"""

from __future__ import annotations

from typing import Dict, List, Sequence, Tuple

import numpy as np

from repro.common.bitops import ActiveMask, active_lane_list, full_mask
from repro.common.errors import SimulationError
from repro.sim.scoreboard import Scoreboard
from repro.sim.simt_stack import SIMTStack

_I64_MIN = -(1 << 63)
_I64_MAX = (1 << 63) - 1

#: hw-mask permutation tables, shared across warps: one entry per
#: distinct lane mapping, holding four 256-entry byte tables so
#: ``hw_mask`` is four lookups instead of a per-bit permutation loop.
_HW_MASK_TABLES: Dict[Tuple[int, ...], List[List[int]]] = {}


def _hw_mask_tables(lane_of_slot: Tuple[int, ...]) -> List[List[int]]:
    tables = _HW_MASK_TABLES.get(lane_of_slot)
    if tables is None:
        width = len(lane_of_slot)
        tables = []
        for byte_index in range((width + 7) // 8):
            base = byte_index * 8
            table = [0] * 256
            for byte in range(256):
                hw = 0
                for bit in range(8):
                    slot = base + bit
                    if slot < width and (byte >> bit) & 1:
                        hw |= 1 << lane_of_slot[slot]
                table[byte] = hw
            tables.append(table)
        _HW_MASK_TABLES[lane_of_slot] = tables
    return tables


class ThreadBlock:
    """One CUDA thread block resident on an SM."""

    def __init__(self, block_id: int, block_dim: int, warp_size: int,
                 shared_words: int) -> None:
        from repro.sim.memory import SharedMemory  # local import: cycle-free

        self.block_id = block_id
        self.block_dim = block_dim
        self.warp_size = warp_size
        self.shared = SharedMemory(shared_words)
        self.num_warps = -(-block_dim // warp_size)
        self._barrier_arrived = 0
        self._barrier_waiting: List["Warp"] = []

    # -- barrier ---------------------------------------------------------
    def arrive_at_barrier(self, warp: "Warp") -> bool:
        """Register *warp* at the block barrier.

        Returns True when this arrival completes the barrier (all live
        warps arrived), in which case every waiting warp is released.
        """
        self._barrier_arrived += 1
        self._barrier_waiting.append(warp)
        live_warps = sum(1 for w in self.warps if not w.done)
        if self._barrier_arrived >= live_warps:
            for waiting in self._barrier_waiting:
                waiting.barrier_blocked = False
            self._barrier_arrived = 0
            self._barrier_waiting = []
            return True
        warp.barrier_blocked = True
        return False

    @property
    def warps(self) -> Sequence["Warp"]:
        return self._warps

    def attach_warps(self, warps: Sequence["Warp"]) -> None:
        self._warps = list(warps)

    @property
    def done(self) -> bool:
        return all(warp.done for warp in self._warps)


class Warp:
    """Architectural state of one warp."""

    def __init__(
        self,
        warp_id: int,
        block: ThreadBlock,
        warp_base: int,
        warp_size: int,
        num_registers: int,
        num_predicates: int,
        lane_of_slot: Sequence[int],
        grid_dim: int,
    ) -> None:
        self.warp_id = warp_id
        self.block = block
        self.warp_base = warp_base  # first thread index (within block)
        self.warp_size = warp_size
        self.grid_dim = grid_dim
        live_threads = min(warp_size, block.block_dim - warp_base)
        if live_threads <= 0:
            raise SimulationError(
                f"warp {warp_id} has no threads (base {warp_base}, "
                f"block dim {block.block_dim})"
            )
        self.live_slots = live_threads
        self.stack = SIMTStack(full_mask(live_threads))
        self.scoreboard = Scoreboard()
        self.barrier_blocked = False
        self.stalled_until = 0  # cycle before which the warp cannot issue
        #: control-flow replay (:mod:`repro.sim.replay`): this warp
        #: instance's log while its launch records, its recorded trace
        #: while its launch replays, else None
        self.flow = None
        #: SM-maintained scoreboard-readiness memo: the pc the cached
        #: ready cycle was computed for (-1 = invalid) and that cycle
        self.sb_pc = -1
        self.sb_ready = 0
        #: SM-maintained RAW-distance tracking: register -> last write
        #: cycle (Fig 8b bookkeeping)
        self.raw_last_write: Dict[int, int] = {}

        # lane mapping: logical slot -> hw lane, and its inverse
        if sorted(lane_of_slot) != list(range(warp_size)):
            raise SimulationError("lane mapping must be a permutation")
        self.lane_of_slot = list(lane_of_slot)
        self.slot_of_lane = [0] * warp_size
        for slot, lane in enumerate(self.lane_of_slot):
            self.slot_of_lane[lane] = slot
        self.identity_mapping = self.lane_of_slot == list(range(warp_size))
        self._live_mask = full_mask(live_threads)
        self._hw_tables = (None if self.identity_mapping
                           else _hw_mask_tables(tuple(self.lane_of_slot)))

        # architectural registers: value planes + dtype tags, [slot, reg]
        regs = max(1, num_registers)
        preds = max(1, num_predicates)
        self.reg_i = np.zeros((live_threads, regs), dtype=np.int64)
        self.reg_f = np.zeros((live_threads, regs), dtype=np.float64)
        self.reg_isf = np.zeros((live_threads, regs), dtype=np.bool_)
        self.preds = np.zeros((live_threads, preds), dtype=np.bool_)
        #: (slot, reg) -> value for the rare value no plane can hold;
        #: non-empty forces the scalar execution path.
        self.reg_overflow: Dict[Tuple[int, int], object] = {}

        # per-slot identity vectors for vectorized special-register reads
        self.tid_vec = np.arange(warp_base, warp_base + live_threads,
                                 dtype=np.int64)
        self.gtid_vec = block.block_id * block.block_dim + self.tid_vec
        self.laneid_vec = np.asarray(self.lane_of_slot[:live_threads],
                                     dtype=np.int64)

        #: mask -> (slot selector, slot list, hw-lane list) for issues
        self._issue_views: Dict[int, Tuple[object, Sequence[int],
                                           List[int]]] = {}

    # -- identity --------------------------------------------------------
    def tid(self, slot: int) -> int:
        """Thread index within the block for logical slot *slot*."""
        return self.warp_base + slot

    def gtid(self, slot: int) -> int:
        """Global thread index for logical slot *slot*."""
        return self.block.block_id * self.block.block_dim + self.tid(slot)

    # -- masks -------------------------------------------------------------
    def hw_mask(self, logical_mask: ActiveMask) -> ActiveMask:
        """Permute a logical-slot mask into hardware-lane space.

        Identity mappings (the believed-default in-order policy) pass
        the mask through; permuted mappings combine four byte-table
        lookups instead of re-permuting bit by bit on every issue.
        """
        logical_mask &= self._live_mask
        if self.identity_mapping:
            return logical_mask
        tables = self._hw_tables
        hw = tables[0][logical_mask & 0xFF]
        byte = logical_mask >> 8
        index = 1
        while byte:
            hw |= tables[index][byte & 0xFF]
            byte >>= 8
            index += 1
        return hw

    def issue_view(self, logical_mask: ActiveMask):
        """Memoized per-mask issue geometry.

        Returns ``(sel, slots, hw_lanes)`` where ``sel`` indexes the
        register planes for the mask's active slots (a full slice when
        every live slot is active — a view, not a copy), ``slots`` is
        the ascending active-slot list and ``hw_lanes`` the matching
        hardware lanes.  Warps see only a handful of distinct masks over
        a kernel, so this is computed once per (warp, mask).
        """
        view = self._issue_views.get(logical_mask)
        if view is None:
            if logical_mask == self._live_mask:
                slots: Sequence[int] = range(self.live_slots)
                sel: object = slice(None)
            else:
                slots = active_lane_list(logical_mask, self.live_slots)
                sel = np.asarray(slots, dtype=np.intp)
            hw_lanes = [self.lane_of_slot[slot] for slot in slots]
            view = (sel, slots, hw_lanes)
            self._issue_views[logical_mask] = view
        return view

    @property
    def done(self) -> bool:
        return self.stack.done

    @property
    def active_mask(self) -> ActiveMask:
        """Current logical active mask (empty when done)."""
        return 0 if self.done else self.stack.current_mask

    @property
    def pc(self) -> int:
        return self.stack.current_pc

    def can_issue(self, cycle: int) -> bool:
        """Whether the warp is schedulable this cycle (ignoring hazards)."""
        return (not self.done and not self.barrier_blocked
                and cycle >= self.stalled_until)

    # -- register access -----------------------------------------------------
    def read_reg(self, slot: int, reg: int) -> object:
        if self.reg_overflow:
            value = self.reg_overflow.get((slot, reg))
            if value is not None:
                return value
        if self.reg_isf[slot, reg]:
            return self.reg_f[slot, reg].item()
        return self.reg_i[slot, reg].item()

    def write_reg(self, slot: int, reg: int, value: object) -> None:
        kind = type(value)
        if kind is int:
            if _I64_MIN <= value <= _I64_MAX:
                self.reg_i[slot, reg] = value
                self.reg_isf[slot, reg] = False
            else:
                self.reg_overflow[(slot, reg)] = value
                return
        elif kind is float:
            self.reg_f[slot, reg] = value
            self.reg_isf[slot, reg] = True
        else:
            # bools, numpy scalars, whatever a workload smuggled through
            # memory: preserved verbatim, at the cost of scalar execution.
            self.reg_overflow[(slot, reg)] = value
            return
        if self.reg_overflow:
            self.reg_overflow.pop((slot, reg), None)

    def read_pred(self, slot: int, pred: int) -> bool:
        return bool(self.preds[slot, pred])

    def write_pred(self, slot: int, pred: int, value: bool) -> None:
        self.preds[slot, pred] = value

    def __repr__(self) -> str:
        return (
            f"Warp(id={self.warp_id}, block={self.block.block_id}, "
            f"pc={'done' if self.done else self.pc}, "
            f"stack={self.stack!r})"
        )
