"""Control-flow replay for timing-only launches of race-free kernels.

A timing-only launch — the ``fast`` engine with nothing attached that
reads lane values (:meth:`repro.sim.sm.SM.lane_values_unread`) — needs
from each issue only its pc, unit and masks.  Those follow from each
warp's data-dependent control outcomes, so one recorded run of a
launch fixes every later timing-only run of it, provided the launch
behaves the same under every warp schedule.  A barrier-interval race
and barrier-divergence check, computed once at the end of the
recording, decides that (DESIGN.md §14 has the argument).

:meth:`repro.sim.gpu.GPU.launch` picks one of three modes per launch,
never per issue:

* **execute** — today's path: ``engine="scalar"``, an armed fault
  hook, an issue listener, Chrome tracing, a ``controller_factory``, or
  a key whose stored verdict is "not certified";
* **record** — an eligible launch whose key has no verdict yet: it
  executes as ever on a :class:`RecordingExecutor`, which logs each
  warp instance's guarded outcomes, BARs and memory accesses in a
  :class:`WarpLog`;
* **replay** — an eligible launch whose key holds a certified record:
  its SMs issue on a :class:`ReplayExecutor`, which executes nothing
  and takes each guarded issue's mask or taken mask from the warp's
  :class:`WarpTrace`; the SM's one issue step applies control flow,
  scoreboard, stats, probes and the DMR controller as ever, and the
  caller gets the recorded final memory image.

All three modes share the SM's issue stage and issue step
(:meth:`repro.sim.sm.SM._issue`); the mode only picks the executor.

The store lives in :meth:`Program.memo`, at most :data:`MAX_KEYS` keys
per program.  A key (:func:`launch_key`) covers everything control
flow or memory can depend on; everything else a config names changes
only the schedule, which the verdict covers.
"""

from __future__ import annotations

import hashlib
from collections import OrderedDict, deque
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

from repro.common.errors import SimulationError
from repro.isa.opcodes import Opcode
from repro.isa.operands import SReg, SpecialReg
from repro.sim.executor import Executor
from repro.sim.memory import GlobalMemory

#: verdicts a program keeps, one per key; the least recently used goes
MAX_KEYS = 8

#: a warp instance: (dispatch position of its block, warp index in it)
WarpKey = Tuple[int, int]

_GLOBAL_OPS = (Opcode.LD_GLOBAL, Opcode.ST_GLOBAL)


@dataclass(frozen=True)
class Verdict:
    """Whether a recorded launch is schedule-independent, and if not, why.

    ``global_words`` are conflicting global words; ``shared_words``
    are ``(dispatch position, word)`` pairs of conflicting shared words;
    ``divergence`` names each barrier divergence found.
    """

    global_words: Tuple[int, ...] = ()
    shared_words: Tuple[Tuple[int, int], ...] = ()
    divergence: Tuple[str, ...] = ()

    @property
    def certified(self) -> bool:
        return not (self.global_words or self.shared_words
                    or self.divergence)


@dataclass
class _Record:
    """A stored verdict; a certified one also keeps each warp
    instance's ``(pc, value)`` outcomes and the final memory image."""

    verdict: Verdict
    warps: Optional[Dict[WarpKey, Tuple]] = None
    image: Optional[GlobalMemory] = None


def _records(program) -> "OrderedDict[bytes, _Record]":
    return program.memo("replay.records", lambda _: OrderedDict())


def verdicts(program) -> List[Verdict]:
    """The verdicts stored for *program*, least recently used first."""
    return [record.verdict for record in _records(program).values()]


def forget(program) -> None:
    """Drop every record of *program*, so its next eligible launch
    executes (and records) again."""
    _records(program).clear()


def _reads_laneid(program) -> bool:
    return any(isinstance(operand, SReg)
               and operand.kind is SpecialReg.LANEID
               for inst in program.instructions for operand in inst.srcs)


def launch_key(program, launch, memory: GlobalMemory,
               dispatch: Sequence[int], config,
               lane_of_slot: Sequence[int]) -> bytes:
    """Content key of a launch's control flow and final memory.

    Covers the type-exact input image (:meth:`GlobalMemory.digest`, with
    the memory size), grid and block dims, the dispatch list,
    ``warp_size`` and the shared-memory size (both decide range
    errors), and the lane map when the program reads ``%laneid``.
    """
    reads_laneid = program.memo("replay.reads_laneid", _reads_laneid)
    geometry = (launch.grid_dim, launch.block_dim, tuple(dispatch),
                config.warp_size, config.shared_memory_bytes,
                tuple(lane_of_slot) if reads_laneid else None)
    return hashlib.blake2b(memory.digest() + repr(geometry).encode(),
                           digest_size=20).digest()


def plan(program, launch, memory: GlobalMemory, dispatch: Sequence[int],
         config, lane_of_slot: Sequence[int]):
    """How an eligible launch runs: a recording, a replay, or ``None``
    (execute: its key was found racy or barrier-divergent)."""
    store = _records(program)
    key = launch_key(program, launch, memory, dispatch, config,
                     lane_of_slot)
    record = store.get(key)
    if record is None:
        return _Recording(store, key)
    store.move_to_end(key)
    if record.verdict.certified:
        return _Replay(record)
    return None


class _SMShare:
    """One SM's part of a launch: the executor class its issues run on,
    the dispatch positions of its blocks in admission order, and the
    launch that hands out warp flows."""

    __slots__ = ("executor_class", "_launch", "_positions")

    def __init__(self, launch, positions: Sequence[int]) -> None:
        self.executor_class = launch.executor_class
        self._launch = launch
        self._positions = deque(positions)

    def attach(self, warps: Sequence) -> None:
        """Give the warps of the SM's next admitted block their flows."""
        position = self._positions.popleft()
        for index, warp in enumerate(warps):
            warp.flow = self._launch.warp_flow(position, index)


# ----------------------------------------------------------------------
# Recording
# ----------------------------------------------------------------------
class WarpLog:
    """What one warp instance did in a recording launch.

    ``outcomes`` holds ``(pc, value)`` per guarded issue: the taken mask
    of a BRA, the exec mask of anything else.  ``bars`` holds each BAR's
    pc.  ``intervals[k]`` holds the words the warp touched after its
    *k*-th BAR, as four sets: global reads, global writes, shared
    reads, shared writes.
    """

    __slots__ = ("outcomes", "bars", "partial_bar", "intervals",
                 "_current")

    def __init__(self) -> None:
        self.outcomes: List[Tuple[int, int]] = []
        self.bars: List[int] = []
        #: pc of the first BAR issued with less than the live mask
        self.partial_bar: Optional[int] = None
        self._current: List[Set[int]] = [set(), set(), set(), set()]
        self.intervals: List[List[Set[int]]] = [self._current]

    def touch(self, is_global: bool, is_store: bool,
              addresses: Iterable[int]) -> None:
        """Log one issue's accessed words."""
        self._current[(0 if is_global else 2) + is_store].update(addresses)

    def barrier(self, pc: int, exec_mask: int, live_mask: int) -> None:
        """Log a BAR and open the warp's next barrier interval."""
        self.bars.append(pc)
        if exec_mask != live_mask and self.partial_bar is None:
            self.partial_bar = pc
        self._current = [set(), set(), set(), set()]
        self.intervals.append(self._current)


class RecordingExecutor(Executor):
    """An :class:`Executor` that logs each issue's control outcome and
    accessed words to its warp's :class:`WarpLog`.

    A load's or store's event holds every active lane's word address in
    ``lane_results`` once ``record_lanes`` asks for lane values, so a
    memory issue is executed with it set.
    """

    def execute(self, warp, inst, pc: int, cycle: int):
        info = inst.info
        if info.is_memory:
            record_lanes = self.record_lanes
            self.record_lanes = True
            try:
                event, taken = Executor.execute(self, warp, inst, pc, cycle)
            finally:
                self.record_lanes = record_lanes
            warp.flow.touch(inst.opcode in _GLOBAL_OPS, info.is_store,
                            event.lane_results.values())
        else:
            event, taken = Executor.execute(self, warp, inst, pc, cycle)
        log = warp.flow
        if inst.pred is not None:
            log.outcomes.append((pc, taken if inst.opcode is Opcode.BRA
                                 else event.logical_mask))
        if inst.opcode is Opcode.BAR:
            log.barrier(pc, event.logical_mask, warp.stack.live_mask)
        return event, taken


def _repeated_writes(actors) -> Set[int]:
    """Words written by one actor and touched by another, given each
    actor's ``(touched, written)`` word sets."""
    seen: Set[int] = set()
    repeated: Set[int] = set()
    written: Set[int] = set()
    for touched, wrote in actors:
        repeated |= touched & seen
        seen |= touched
        written |= wrote
    return repeated & written


def check(logs: Dict[WarpKey, WarpLog]) -> Verdict:
    """The barrier-interval race and barrier-divergence verdict.

    A conflict is a global word written by one block and touched by
    another, or a word written by one warp and touched by another warp
    of the same block in the same barrier interval.  Lanes of one warp
    run in lock-step, so overlap inside a warp is no race.  Barrier
    divergence is a BAR issued with less than the warp's live mask, or
    warps of one block issuing different sequences of BAR pcs.
    """
    blocks: Dict[int, List[Tuple[int, WarpLog]]] = {}
    for (position, index), log in sorted(logs.items()):
        blocks.setdefault(position, []).append((index, log))
    global_words: Set[int] = set()
    shared_words: Set[Tuple[int, int]] = set()
    divergence: List[str] = []
    per_block = []
    for position, warps in blocks.items():
        where = f"block at dispatch position {position}"
        if len({tuple(log.bars) for _, log in warps}) > 1:
            divergence.append(f"{where}: warps issue different BAR pc "
                              "sequences")
        for index, log in warps:
            if log.partial_bar is not None:
                divergence.append(
                    f"{where}, warp {index}: BAR at pc {log.partial_bar} "
                    "issued with less than the live mask")
        depth = max(len(log.intervals) for _, log in warps)
        for k in range(depth):
            present = [log.intervals[k] for _, log in warps
                       if k < len(log.intervals)]
            if len(present) < 2:
                continue
            global_words |= _repeated_writes(
                (sets[0] | sets[1], sets[1]) for sets in present)
            shared_words.update(
                (position, word) for word in _repeated_writes(
                    (sets[2] | sets[3], sets[3]) for sets in present))
        touched: Set[int] = set()
        written: Set[int] = set()
        for _, log in warps:
            for sets in log.intervals:
                touched |= sets[0]
                touched |= sets[1]
                written |= sets[1]
        per_block.append((touched, written))
    global_words |= _repeated_writes(per_block)
    return Verdict(tuple(sorted(global_words)), tuple(sorted(shared_words)),
                   tuple(divergence))


class _Recording:
    """A recording launch: one :class:`WarpLog` per warp instance,
    judged and stored by :meth:`finish`."""

    executor_class = RecordingExecutor

    def __init__(self, store, key: bytes) -> None:
        self._store = store
        self._key = key
        self._logs: Dict[WarpKey, WarpLog] = {}

    def share(self, positions: Sequence[int]) -> _SMShare:
        return _SMShare(self, positions)

    def warp_flow(self, position: int, index: int) -> WarpLog:
        log = self._logs[(position, index)] = WarpLog()
        return log

    def finish(self, memory: GlobalMemory) -> None:
        """Judge the launch; store its verdict, and if certified its
        outcomes and a copy of its final image."""
        verdict = check(self._logs)
        if verdict.certified:
            record = _Record(verdict, {key: tuple(log.outcomes)
                                       for key, log in self._logs.items()},
                             memory.copy())
        else:
            record = _Record(verdict)
        store = self._store
        store[self._key] = record
        while len(store) > MAX_KEYS:
            store.popitem(last=False)


# ----------------------------------------------------------------------
# Replay
# ----------------------------------------------------------------------
class WarpTrace:
    """A cursor over one warp instance's recorded outcomes."""

    __slots__ = ("position", "index", "outcomes", "cursor")

    def __init__(self, position: int, index: int,
                 outcomes: Tuple[Tuple[int, int], ...]) -> None:
        self.position = position
        self.index = index
        self.outcomes = outcomes
        self.cursor = 0

    def _desync(self, warp, pc: int, what: str) -> SimulationError:
        return SimulationError(
            f"replay desync on warp {warp.warp_id} (warp {self.index} of "
            f"the block at dispatch position {self.position}) at pc "
            f"{pc}: {what}")

    def take(self, warp, pc: int) -> int:
        """The recorded value of the warp's guarded issue at *pc*."""
        cursor = self.cursor
        if cursor >= len(self.outcomes):
            raise self._desync(warp, pc, "the record is exhausted")
        recorded_pc, value = self.outcomes[cursor]
        if recorded_pc != pc:
            raise self._desync(warp, pc,
                               f"the record has pc {recorded_pc} next")
        self.cursor = cursor + 1
        return value


class ReplayExecutor(Executor):
    """An :class:`Executor` that executes nothing: each issue's event
    takes its mask, and a BRA its taken mask, from the warp's
    :class:`WarpTrace` (the SIMT mask for an unguarded issue)."""

    def execute(self, warp, inst, pc: int, cycle: int):
        self.replayed_issues += 1
        mask = warp.stack.current_mask
        taken = 0
        if inst.pred is not None:
            if inst.opcode is Opcode.BRA:
                taken = warp.flow.take(warp, pc)
            else:
                mask = warp.flow.take(warp, pc)
        return self.issue_event(warp, inst, pc, cycle, mask), taken


class _Replay:
    """A replaying launch of a certified record."""

    executor_class = ReplayExecutor

    def __init__(self, record: _Record) -> None:
        self._record = record
        self._traces: List[WarpTrace] = []

    def share(self, positions: Sequence[int]) -> _SMShare:
        return _SMShare(self, positions)

    def warp_flow(self, position: int, index: int) -> WarpTrace:
        outcomes = self._record.warps.get((position, index))
        if outcomes is None:
            raise SimulationError(
                f"replay record has no warp {index} of the block at "
                f"dispatch position {position} (pc 0)")
        trace = WarpTrace(position, index, outcomes)
        self._traces.append(trace)
        return trace

    def finish(self, memory: GlobalMemory) -> None:
        """Check that every warp used up its record, then hand the
        caller's memory the recorded final image."""
        for trace in self._traces:
            left = len(trace.outcomes) - trace.cursor
            if left:
                raise SimulationError(
                    f"replay desync: warp {trace.index} of the block at "
                    f"dispatch position {trace.position} left {left} "
                    "recorded outcomes unused")
        memory.assign(self._record.image)
