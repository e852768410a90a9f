"""Streaming multiprocessor: the per-SM issue/timing loop.

The SM model is issue-centric: each cycle the single warp scheduler
issues at most one warp-instruction (paper Section 2.2).  Latencies are
charged through the scoreboard (dependents wait for the producer's
ready cycle) rather than by simulating every pipeline register, which
matches the paper's abstraction: the EXE stage is super-pipelined so a
new instruction can issue every cycle.

Warped-DMR attaches through the ``dmr`` hook object (duck-typed; see
:class:`repro.core.dmr_controller.DMRController`).  The hook can charge
stall cycles, which the SM consumes as non-issue cycles — exactly how
the paper's ReplayQ full/RAW stalls behave.

Three throughput features are layered on top without touching the
cycle accounting (each asserted cycle/byte-identical by the invariance
tests):

* **Lane-value gating**: when nothing reads per-lane values
  (:meth:`SM.lane_values_unread` — a timing-only DMR controller reads
  none), issue events carry no per-lane inputs or results, and the
  vector engine skips building them.
* **Control-flow replay** (:mod:`repro.sim.replay`): in timing-only
  launches on the ``fast`` engine, a
  :class:`~repro.sim.replay.ReplaySM` takes each warp's masks and
  branch and exit outcomes from a certified recording of the launch
  and executes nothing; scheduler, scoreboard, stats, probes and DMR
  run as ever.
* **Event-driven cycle skipping** (``GPUConfig.cycle_skip``): pending
  stall cycles with one cause burn as a single booked span, and when
  every resident warp is stalled the cycle counter jumps to the next
  wakeup, bulk-charging the idle counters and probe samples the burned
  ticks would have produced.  Skipping is disabled under Chrome tracing
  (which records per-cycle instants), and under DMR only idle spans the
  controller reports quiescent are skipped.
"""

from __future__ import annotations

from collections import deque
from typing import Callable, Deque, Dict, List, Optional, Tuple

from repro.common.config import GPUConfig, LaunchConfig, SchedulerPolicy
from repro.common.errors import SimulationError
from repro.isa.opcodes import Opcode, UnitType
from repro.obs.metrics import MetricsRegistry
from repro.obs.probes import PipelineProbe
from repro.kernel.program import Program
from repro.sim.events import IssueEvent
from repro.sim.executor import ExecResult, Executor, FaultHook
from repro.sim.memory import GlobalMemory
from repro.sim.scheduler import WarpScheduler, derive_scheduler_seed
from repro.sim.warp import ThreadBlock, Warp

#: Hard cap on SM cycles; hitting it means livelock (kernel bug).
DEFAULT_MAX_CYCLES = 20_000_000


def _hazard_plans(program: Program) -> List[Tuple]:
    """Per-pc scoreboard operand tuples, built once per program.

    ``(src_regs, dest_reg, hazard_regs, hazard_preds)`` for every
    instruction: the first two feed RAW-distance stats, the flattened
    hazard tuples (sources plus destination, RAW + WAW) feed
    :meth:`Scoreboard.ready_cycle_flat`.  The old per-check list
    comprehension was one of the hottest allocations in the issue loop.
    """
    plans = []
    for inst in program.instructions:
        srcs = inst.source_registers()
        dest = inst.dest_register()
        hazard_regs = srcs if dest is None else srcs + (dest,)
        hazard_preds = tuple(
            p for p in (inst.pred, inst.psrc, inst.pdst) if p is not None
        )
        plans.append((srcs, dest, hazard_regs, hazard_preds))
    return plans


class SM:
    """One streaming multiprocessor executing a queue of thread blocks.

    ``flow`` is this SM's share of a recording or replaying launch
    (:mod:`repro.sim.replay`, which also subclasses the SM for those
    two modes): it hands each admitted warp its per-instance log or
    trace.  ``None``, the default, is plain execution.
    """

    #: the executor class this SM runs issues on
    executor_class = Executor

    def __init__(
        self,
        sm_id: int,
        config: GPUConfig,
        program: Program,
        launch: LaunchConfig,
        block_ids: List[int],
        global_memory: GlobalMemory,
        lane_of_slot: List[int],
        dmr: Optional[object] = None,
        fault_hook: Optional[FaultHook] = None,
        max_cycles: int = DEFAULT_MAX_CYCLES,
        probe: Optional[object] = None,
        flow: Optional[object] = None,
    ) -> None:
        self.sm_id = sm_id
        self.config = config
        self.program = program
        self.launch = launch
        self.global_memory = global_memory
        self.lane_of_slot = lane_of_slot
        self.dmr = dmr
        self.max_cycles = max_cycles
        self._flow = flow
        self.executor = self.executor_class(sm_id, global_memory, fault_hook,
                                            engine=config.engine)
        self.executor.bind_program(program)
        self._schedulers = [
            WarpScheduler(
                config.scheduler, probe=probe,
                seed=derive_scheduler_seed(config.schedule_seed, sm_id, index),
            )
            for index in range(config.num_schedulers)
        ]
        self.stats = MetricsRegistry()
        # single unseeded round-robin scheduler with no probe: the issue
        # stage may run the inlined fast scan (see _tick_fast)
        self._fast_issue = (
            len(self._schedulers) == 1
            and probe is None
            and self._schedulers[0].seed is None
            and config.scheduler is SchedulerPolicy.ROUND_ROBIN
        )
        self.cycle = 0
        # Pending stall cycles, one deque entry per cycle, labeled with
        # the cause that charged it ("raw" / "replay" / "bank").  The
        # label is consumed when the cycle actually burns, so the
        # per-cause counters partition cycles_dmr_stall exactly.
        self._stall_causes: Deque[str] = deque()
        self._probe = probe
        self._pending_blocks = list(block_ids)
        self._resident_warps: List[Warp] = []
        self._resident_blocks: List[ThreadBlock] = []
        self._next_warp_id = 0
        self._retire_pending = False
        self._unit_run: Tuple[Optional[UnitType], int] = (None, 0)
        self._issue_listeners: List[Callable[[IssueEvent], None]] = []
        self._num_regs = max(1, program.num_registers)
        self._num_preds = max(1, program.num_predicates)
        #: the DMR controller's ``quiescent`` check while idle skipping
        #: is on (bound by run(), after attachment)
        self._dmr_idle_skip: Optional[Callable[[], bool]] = None
        # -- per-cycle hot-path caches --------------------------------
        self._insts = program.instructions
        self._plans = program.memo("sm.hazard_plans", _hazard_plans)
        # per-pc issue-charge plan: (rf + unit latency, dest reg, dest
        # pred), filled on first issue of each pc
        self._pc_latency: List[Optional[Tuple]] = [None] * len(program)
        self._sched_lists: List[List[Warp]] = [
            [] for _ in self._schedulers
        ]
        # always-present stats objects, bound at first issue (every run
        # issues at least EXIT, so creating them lazily keeps payloads
        # of never-run SMs unchanged)
        self._c_issued = None
        self._c_thread_insts = None
        self._hb_active = None
        self._hb_unit = None
        self._hb_raw = None
        # Cycle skipping must not change what a probe records; the
        # bulk-count replay below is exact only for the real
        # PipelineProbe (duck-typed test probes may do anything per
        # call) and only without a tracer (which records per-cycle
        # instants).
        self._skip_enabled = config.cycle_skip and (
            probe is None
            or (type(probe) is PipelineProbe and probe.tracer is None)
        )

    # ------------------------------------------------------------------
    # Setup
    # ------------------------------------------------------------------
    def add_issue_listener(self, fn: Callable[[IssueEvent], None]) -> None:
        """Register a callback invoked on every issue (tracing hook)."""
        self._issue_listeners.append(fn)

    def lane_values_unread(self) -> bool:
        """Whether nothing attached to this SM reads per-lane values.

        Holds with no fault hook, no issue listener, and no DMR
        controller or one declaring ``functional_verify=False`` (a
        timing-only checker reads pcs, units and masks only).  A
        controller that does not declare the flag counts as a reader.
        Gates lane recording (``Executor.record_lanes``); evaluated
        when :meth:`run` starts, after GPU.launch has attached
        controllers and listeners.  GPU.launch records or replays
        control flow (:mod:`repro.sim.replay`) only in launches where
        it holds on every SM.
        """
        dmr = self.dmr
        return (not self.executor.faulty and not self._issue_listeners
                and (dmr is None
                     or not getattr(dmr, "functional_verify", True)))

    def _admit_blocks(self) -> None:
        """Launch pending blocks while thread capacity allows."""
        while self._pending_blocks:
            threads_resident = sum(
                b.block_dim for b in self._resident_blocks if not b.done
            )
            if (threads_resident + self.launch.block_dim
                    > self.config.max_threads_per_sm):
                break
            block_id = self._pending_blocks.pop(0)
            block = ThreadBlock(
                block_id=block_id,
                block_dim=self.launch.block_dim,
                warp_size=self.config.warp_size,
                shared_words=self.config.shared_memory_bytes // 4,
            )
            warps = []
            for w in range(block.num_warps):
                warp = Warp(
                    warp_id=self._next_warp_id,
                    block=block,
                    warp_base=w * self.config.warp_size,
                    warp_size=self.config.warp_size,
                    num_registers=self._num_regs,
                    num_predicates=self._num_preds,
                    lane_of_slot=self.lane_of_slot,
                    grid_dim=self.launch.grid_dim,
                )
                # Stagger first issue so resident warps sit at different
                # program phases (see GPUConfig.warp_start_stagger).
                warp.stalled_until = (
                    self.cycle
                    + len(self._resident_warps + warps)
                    * self.config.warp_start_stagger
                )
                self._next_warp_id += 1
                warps.append(warp)
            if self._flow is not None:
                self._flow.attach(warps)
            block.attach_warps(warps)
            self._resident_blocks.append(block)
            self._resident_warps.extend(warps)
        self._rebuild_sched_lists()

    def _rebuild_sched_lists(self) -> None:
        if len(self._schedulers) == 1:
            self._sched_lists = [self._resident_warps]
        else:
            self._sched_lists = [
                [w for w in self._resident_warps if w.warp_id % 2 == index]
                for index in range(len(self._schedulers))
            ]

    # ------------------------------------------------------------------
    # Main loop
    # ------------------------------------------------------------------
    def run(self) -> MetricsRegistry:
        """Execute every assigned block to completion; returns the stats."""
        self.executor.record_lanes = not self.lane_values_unread()
        quiescent = getattr(self.dmr, "quiescent", None)
        self._dmr_idle_skip = quiescent if self._skip_enabled else None
        self._admit_blocks()
        while self._has_work():
            self._tick()
            if self.cycle > self.max_cycles:
                raise SimulationError(
                    f"SM {self.sm_id} exceeded {self.max_cycles} "
                    "cycles; likely a livelocked kernel (barrier "
                    "divergence or non-terminating loop)"
                )
        if self.dmr is not None:
            flush = self.dmr.on_kernel_end(self.cycle)
            if flush:
                self._book_stall("flush", flush)
            self.cycle += flush
        self.stats.counter("cycles_total").set(self.cycle)
        return self.stats

    def _has_work(self) -> bool:
        # the resident list is pruned as soon as a warp finishes
        # (see _retire_pending), so membership implies live work
        if self._retire_pending:
            return any(not warp.done for warp in self._resident_warps)
        return bool(self._pending_blocks or self._resident_warps)

    def _retire_finished(self) -> None:
        before = len(self._resident_warps)
        self._resident_warps = [w for w in self._resident_warps if not w.done]
        self._resident_blocks = [b for b in self._resident_blocks if not b.done]
        if len(self._resident_warps) != before:
            self._admit_blocks()
        else:
            self._rebuild_sched_lists()

    def _tick(self) -> None:
        cycle = self.cycle
        probe = self._probe
        stalls = self._stall_causes

        if stalls:
            # burn pending stall cycles, attributed to their cause; with
            # skipping on, a leading run of one cause burns as a single
            # booked span (clamped so the livelock watchdog still fires
            # at the identical cycle)
            cause = stalls.popleft()
            run = 1
            if self._skip_enabled:
                allowed = self.max_cycles + 1 - cycle
                while run < allowed and stalls and stalls[0] == cause:
                    stalls.popleft()
                    run += 1
            self.cycle = cycle + run
            if probe is not None:
                probe.on_cycle(cycle, len(self._resident_warps), run)
            self._book_stall(cause, run)
            return

        self.cycle = cycle + 1
        if probe is not None:
            probe.on_cycle(cycle, len(self._resident_warps))

        if self._fast_issue:
            issued = self._tick_fast(cycle)
        elif len(self._schedulers) == 1:
            issued = self._tick_single(cycle)
        else:
            issued = self._tick_dual(cycle)

        if issued == 0:
            self.stats.inc("cycles_idle")
            dmr = self.dmr
            if dmr is None:
                if self._skip_enabled:
                    self._skip_idle(cycle)
            else:
                dmr.on_idle(cycle)
                quiescent = self._dmr_idle_skip
                if quiescent is not None and quiescent():
                    self._skip_idle(cycle)
        elif issued == 2:
            self.stats.inc("dual_issue_cycles")
        if self._retire_pending:
            # warps only finish through an issued EXIT (flagged by
            # _issue), so ticks without a finishing issue skip the
            # retire scan entirely
            self._retire_pending = False
            self._retire_finished()

    def _tick_fast(self, cycle: int) -> int:
        """Issue stage for the dominant configuration, single frame.

        Semantically identical to :meth:`_tick_single` with a
        round-robin scheduler: same scan order, same cursor update,
        same readiness memo, same DMR RAW check after the pick.  Only
        taken when the scheduler is unseeded round-robin and no probe
        is attached (``select`` would have to report scan depths).
        """
        scheduler = self._schedulers[0]
        warps = self._sched_lists[0]
        n = len(warps)
        last = scheduler._last_index
        plans = self._plans
        for step in range(1, n + 1):
            idx = (last + step) % n
            warp = warps[idx]
            stack = warp.stack
            if (stack.done or warp.barrier_blocked
                    or cycle < warp.stalled_until):
                continue
            pc = stack.current_pc
            if warp.sb_pc == pc:
                if warp.sb_ready > cycle:
                    continue
            else:
                _, _, hazard_regs, hazard_preds = plans[pc]
                ready = warp.scoreboard.ready_cycle_flat(
                    hazard_regs, hazard_preds
                )
                warp.sb_pc = pc
                warp.sb_ready = ready
                if ready > cycle:
                    continue
            scheduler._last_index = idx
            inst = self._insts[pc]
            if self.dmr is not None and self._raw_stalled(warp, inst):
                return -1  # stalled, not idle
            self._issue(warp, inst, pc, cycle)
            return 1
        return 0

    def _tick_single(self, cycle: int) -> int:
        """Issue stage for the common single-scheduler configuration."""
        warp = self._schedulers[0].select(
            self._sched_lists[0], cycle, self._warp_ready
        )
        if warp is None:
            return 0
        pc = warp.stack.current_pc
        inst = self._insts[pc]
        if self.dmr is not None and self._raw_stalled(warp, inst):
            return -1  # stalled, not idle
        self._issue(warp, inst, pc, cycle)
        return 1

    def _raw_stalled(self, warp: Warp, inst) -> bool:
        """DMR's RAW-on-unverified rule for the picked single issue.

        A stall burns one cycle now (this tick) and defers the rest.
        """
        raw_stall = self.dmr.check_raw(warp.warp_id, inst)
        if raw_stall <= 0:
            return False
        self._defer_stall("raw", raw_stall - 1)
        self._book_stall("raw", 1)
        self.stats.inc("raw_unverified_stalls")
        return True

    def _tick_dual(self, cycle: int) -> int:
        issued = 0
        issued_units: List[UnitType] = []
        for index, scheduler in enumerate(self._schedulers):
            warp = scheduler.select(
                self._sched_lists[index], cycle, self._warp_ready
            )
            if warp is None:
                continue
            pc = warp.stack.current_pc
            inst = self._insts[pc]
            # Dual-scheduler structural hazard: LD/ST units and SFUs
            # are shared between the schedulers (paper Section 2.2);
            # each scheduler has its own SPs.
            if inst.unit is not UnitType.SP and inst.unit in issued_units:
                self.stats.inc("dual_issue_conflicts")
                continue
            if self.dmr is not None:
                raw_stall = self.dmr.check_raw(warp.warp_id, inst)
                if raw_stall > 0:
                    # this tick absorbs one stall cycle if nothing
                    # issued yet; the remainder burns on later ticks
                    self._defer_stall("raw", raw_stall - (0 if issued else 1))
                    if not issued:
                        self._book_stall("raw", 1)
                        issued = -1  # stalled, not idle
                    self.stats.inc("raw_unverified_stalls")
                    break  # the verification stall blocks the pipeline
            self._issue(warp, inst, pc, cycle)
            issued += 1
            issued_units.append(inst.unit)
        return issued

    def _skip_idle(self, cycle: int) -> None:
        """Jump the cycle counter over a provably idle span.

        Called after an idle tick with no DMR controller, or one that
        reports itself quiescent (its ``on_idle`` is a no-op until the
        next issue): nothing can issue before every warp's
        ``max(stalled_until, scoreboard ready)``, barriers only release
        through an issue, and scheduler no-pick state is idempotent —
        so the skipped ticks are replayed exactly as bulk counter/probe
        charges.  Clamped so the livelock watchdog fires at the
        identical cycle.
        """
        wake: Optional[int] = None
        plans = self._plans
        for warp in self._resident_warps:
            if warp.barrier_blocked:
                continue
            until = warp.stalled_until
            pc = warp.stack.current_pc
            if warp.sb_pc == pc:
                ready = warp.sb_ready
            else:
                _, _, hazard_regs, hazard_preds = plans[pc]
                ready = warp.scoreboard.ready_cycle_flat(
                    hazard_regs, hazard_preds
                )
                warp.sb_pc = pc
                warp.sb_ready = ready
            if ready > until:
                until = ready
            if wake is None or until < wake:
                wake = until
        nxt = self.cycle  # the tick that just ran was `cycle` == nxt - 1
        cap = self.max_cycles + 1 - nxt
        extra = cap if wake is None else min(wake - nxt, cap)
        if extra <= 0:
            return
        self.cycle = nxt + extra
        self.stats.inc("cycles_idle", extra)
        probe = self._probe
        if probe is not None:
            probe.on_cycle(nxt, len(self._resident_warps), extra)
            for index in range(len(self._schedulers)):
                warps = self._sched_lists[index]
                if warps:  # select() on an empty list records nothing
                    probe.on_schedule(len(warps), False, extra)

    def _issue(self, warp: Warp, inst, pc: int, cycle: int) -> None:
        result = self.executor.execute(warp, inst, pc, cycle)
        self._apply_control(warp, inst, result)
        if warp.done:
            self._retire_pending = True
        event = result.event
        self._charge_latency(warp, inst, pc, cycle)
        self._record_stats(warp, inst, pc, event.active_count, cycle, event)
        if self.config.model_bank_conflicts:
            self._charge_bank_conflicts(inst)
        dmr = self.dmr
        if dmr is not None:
            stall = dmr.on_issue(event, self.executor)
            if stall:
                self._defer_stall("replay", stall)

    def _charge_bank_conflicts(self, inst) -> None:
        """Defer the register-bank conflict cycles of *inst*
        (``GPUConfig.model_bank_conflicts``)."""
        from repro.sim.regbank import conflict_extra_cycles
        extra = conflict_extra_cycles(inst)
        if extra:
            self._defer_stall("bank", extra)
            self.stats.inc("bank_conflict_cycles", extra)

    # ------------------------------------------------------------------
    # Issue mechanics
    # ------------------------------------------------------------------
    def _warp_ready(self, warp: Warp, cycle: int) -> bool:
        """Scoreboard readiness of the instruction at the warp's pc.

        The ready cycle is pure between issues (the scoreboard only
        changes in :meth:`_charge_latency`), so it is memoized on the
        warp and invalidated after every issue.
        """
        pc = warp.stack.current_pc
        if warp.sb_pc == pc:
            return warp.sb_ready <= cycle
        _, _, hazard_regs, hazard_preds = self._plans[pc]
        ready = warp.scoreboard.ready_cycle_flat(hazard_regs, hazard_preds)
        warp.sb_pc = pc
        warp.sb_ready = ready
        return ready <= cycle

    def _unit_latency(self, inst) -> int:
        cfg = self.config
        if inst.unit is UnitType.SFU:
            return cfg.sfu_latency
        if inst.unit is UnitType.LDST:
            if inst.opcode in (Opcode.LD_SHARED, Opcode.ST_SHARED):
                return cfg.ldst_shared_latency
            return cfg.ldst_global_latency
        return cfg.sp_latency

    def _charge_latency(self, warp: Warp, inst, pc: int, cycle: int) -> None:
        plan = self._pc_latency[pc]
        if plan is None:
            plan = self._pc_latency[pc] = (
                self.config.rf_latency + self._unit_latency(inst),
                inst.dest_register(),
                inst.pdst,
            )
        total, dest, pdst = plan
        ready = cycle + total
        if dest is not None:
            warp.scoreboard.mark_reg_write(dest, ready)
        if pdst is not None:
            warp.scoreboard.mark_pred_write(pdst, ready)
        # the scoreboard changed: drop the warp's memoized ready cycle
        # (required even when the pc repeats, e.g. a branch to itself)
        warp.sb_pc = -1
        if (cycle & 0x3FF) == 0:
            warp.scoreboard.prune(cycle)

    def _apply_control(self, warp: Warp, inst, result: ExecResult) -> None:
        control = result.control
        if control.kind == "advance":
            warp.stack.advance()
        elif control.kind == "jump":
            warp.stack.jump(control.target)
        elif control.kind == "branch":
            reconv = self.program.reconvergence.get(result.event.pc, -1)
            warp.stack.branch(
                control.taken_mask, control.target,
                result.event.pc + 1, reconv,
            )
            if control.taken_mask and control.taken_mask != result.event.logical_mask:
                self.stats.inc("divergent_branches")
        elif control.kind == "exit":
            warp.stack.thread_exit(control.exit_mask)
        elif control.kind == "barrier":
            warp.stack.advance()
            warp.block.arrive_at_barrier(warp)
        else:
            raise SimulationError(f"unknown control outcome {control.kind!r}")

    # ------------------------------------------------------------------
    # Statistics
    # ------------------------------------------------------------------
    def _record_stats(self, warp: Warp, inst, pc: int, active: int,
                      cycle: int, event: Optional[IssueEvent] = None) -> None:
        stats = self.stats
        c_issued = self._c_issued
        if c_issued is None:
            c_issued = self._c_issued = stats.counter("instructions_issued")
            self._c_thread_insts = stats.counter("thread_instructions")
            self._hb_active = stats.histogram("active_threads")._bins
            self._hb_unit = stats.histogram("unit_type")._bins
        c_issued.value += 1  # monotone by construction (add() sans check)
        self._c_thread_insts.value += active
        self._hb_active[active] += 1  # defaultdict: add() sans sign check
        unit = inst.unit
        self._hb_unit[unit.value] += 1

        # Same-unit run lengths (Fig 8a): record the finished run when
        # the unit type switches.
        prev_unit, run = self._unit_run
        if prev_unit is unit:
            self._unit_run = (prev_unit, run + 1)
        else:
            if prev_unit is not None and run > 0:
                stats.observe(f"unit_run_{prev_unit.value}", run)
            self._unit_run = (unit, 1)

        # RAW distances (Fig 8b): cycles from a register's write to its
        # next read by any consumer in the same warp.  Operand sets come
        # from the per-pc hazard plans (no per-issue list building);
        # write cycles live in a per-warp dict keyed by register.
        srcs, dest, _, _ = self._plans[pc]
        last_write = warp.raw_last_write
        for reg in srcs:
            write_cycle = last_write.get(reg)
            if write_cycle is not None:
                hb_raw = self._hb_raw
                if hb_raw is None:
                    hb_raw = self._hb_raw = \
                        stats.histogram("raw_distance")._bins
                hb_raw[cycle - write_cycle] += 1
        if dest is not None:
            last_write[dest] = cycle

        if event is not None:
            for listener in self._issue_listeners:
                listener(event)

    def _defer_stall(self, cause: str, cycles: int) -> None:
        """Schedule *cycles* future non-issue cycles attributed to *cause*."""
        if cycles > 0:
            self._stall_causes.extend([cause] * cycles)

    def _book_stall(self, cause: str, cycles: int) -> None:
        """Account *cycles* of stall burned now, attributed to *cause*.

        ``cycles_dmr_stall`` is the umbrella total; the per-cause
        ``cycles_stall_*`` counters partition it exactly (asserted by
        the cycle-accounting invariant tests).
        """
        self.stats.inc("cycles_dmr_stall", cycles)
        self.stats.inc(f"cycles_stall_{cause}", cycles)
        if self._probe is not None:
            self._probe.on_stall(cause, cycles, self.cycle)
