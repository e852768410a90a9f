"""Lane-value gating: the one rule, and what it costs.

Per launch, issue events carry per-lane inputs and results
(``Executor.record_lanes``) if and only if a fault hook is armed or an
issue listener is attached (Chrome tracing attaches one), and a DMR
controller compares lane values if and only if its executor is
``faulty``.  No controller takes part in the decision, so a launch
with neither a hook nor a listener is timing-only whatever controller
it attaches.  These tests pin the rule over every shipped controller
and a duck-typed one, the recording it drives, and that the ``fast``
engine matches the ``scalar`` oracle byte for byte on either side of
it.
"""

from __future__ import annotations

import gc
import pickle
import weakref

import pytest

from repro.analysis.runner import experiment_config
from repro.baselines.dmtr import DMTRController
from repro.baselines.sampling import SamplingDMRController
from repro.common.bitops import active_lane_list
from repro.common.config import DMRConfig, GPUConfig, LaunchConfig
from repro.core.dmr_controller import DMRController
from repro.faults.injector import FaultInjector
from repro.faults.models import TransientFault
from repro.isa.opcodes import CmpOp, Opcode, UnitType
from repro.kernel.builder import KernelBuilder
from repro.sim.executor import Executor, FaultHook
from repro.sim.gpu import GPU
from repro.sim.memory import GlobalMemory
from repro.sim.sm import SM
from repro.workloads import get_workload

from tests.conftest import (build_counting_kernel, build_divergent_kernel,
                            replay_disabled)


def launch(program, engine, *, grid=1, block=32, num_sms=1, dmr=None):
    gpu = GPU(GPUConfig(num_sms=num_sms, engine=engine),
              dmr=dmr or DMRConfig.disabled())
    return gpu.launch(program, LaunchConfig(grid_dim=grid, block_dim=block),
                      memory=GlobalMemory())


def payload(result) -> bytes:
    """Byte-comparable image of everything a run can observably produce."""
    return pickle.dumps((result.memory.to_payload(), result.stats.to_payload(),
                         result.cycles, result.per_sm_cycles,
                         result.detections))


def make_sm(program, *, fault_hook=None):
    config = GPUConfig(num_sms=1)
    return SM(
        sm_id=0,
        config=config,
        program=program,
        launch=LaunchConfig(grid_dim=1, block_dim=32),
        block_ids=[0],
        global_memory=GlobalMemory(),
        lane_of_slot=list(range(config.warp_size)),
        fault_hook=fault_hook,
    )


class SpyController:
    """A duck-typed DMR controller that keeps every issue event."""

    def __init__(self) -> None:
        self.detections = []
        self.events = []

    def check_raw(self, warp_id, srcs) -> int:
        return 0

    def on_issue(self, event, executor) -> int:
        self.events.append(event)
        return 0

    def on_idle(self, cycle) -> None:
        pass

    def on_kernel_end(self, cycle) -> int:
        return 0


#: every shipped controller, built as its launch builds it, and a spy
CONTROLLERS = {
    "warped_dmr": lambda sm: DMRController(
        sm.config, DMRConfig.paper_default(), sm.stats),
    "sampling": lambda sm: SamplingDMRController(
        sm.config, DMRConfig.paper_default(), sm.stats),
    "dmtr": lambda sm: DMTRController(sm.stats),
    "spy": lambda sm: SpyController(),
}


def records_lanes(controller=None, *, fault_hook=None, listener=None):
    """Whether an SM running the counting kernel with *controller*
    (a ``CONTROLLERS`` name), *fault_hook* and *listener* attached
    records lane values."""
    sm = make_sm(build_counting_kernel(), fault_hook=fault_hook)
    if controller is not None:
        sm.dmr = CONTROLLERS[controller](sm)
    if listener is not None:
        sm.add_issue_listener(listener)
    sm.run()
    return sm.executor.record_lanes


#: opcodes whose issue computes no lane values on either engine
_VALUE_FREE = (Opcode.BAR, Opcode.EXIT, Opcode.JMP)


class TestLaneValuesUnread:
    """Lane values go unread unless a fault hook is armed or an issue
    listener is attached; the controller never changes that."""

    def test_undeclared_controller_reads_lane_values(self):
        """A duck-typed controller declares nothing, yet on a faulty
        executor it is handed every active lane's inputs and results,
        and on a fault-free one none."""
        for hook in (None, FaultHook()):
            sm = make_sm(build_counting_kernel(), fault_hook=hook)
            sm.dmr = spy = SpyController()
            sm.run()
            events = [event for event in spy.events
                      if event.instruction.opcode not in _VALUE_FREE
                      and event.hw_mask]
            assert events
            for event in events:
                lanes = (set(active_lane_list(event.hw_mask,
                                              event.warp_width))
                         if hook else set())
                assert set(event.lane_inputs) == lanes, event.pc
                assert set(event.lane_results) == lanes, event.pc

    def test_timing_only_controllers_read_none(self):
        assert not records_lanes()
        for name in CONTROLLERS:
            assert not records_lanes(name), name

    def test_verifying_controllers_read_lane_values(self, monkeypatch):
        """A controller re-executes lanes exactly when its executor is
        faulty, which is when lane values are recorded."""
        calls = []
        original = Executor.reexecute_lane

        def counted(self, *args):
            calls.append(args)
            return original(self, *args)

        monkeypatch.setattr(Executor, "reexecute_lane", counted)
        for name in CONTROLLERS:
            calls.clear()
            assert not records_lanes(name)
            assert not calls, name
            assert records_lanes(name, fault_hook=FaultHook()), name
            assert bool(calls) == (name != "spy"), name

    def test_issue_listener_reads_lane_values(self):
        for name in (None, *CONTROLLERS):
            assert records_lanes(name, listener=lambda event: None), name

    def test_fault_hook_reads_lane_values(self):
        assert records_lanes(fault_hook=FaultHook())


def _spied_events(*, fault_hook=None, listener=None):
    """The issue events a spy controller sees in an executing ``fast``
    launch of the counting kernel (two SMs, four blocks).  Executing,
    not recording: a recording launch fills each load's and store's
    word addresses in for its race check."""
    spies = []

    def factory(stats):
        spies.append(SpyController())
        return spies[-1]

    gpu = GPU(GPUConfig(num_sms=2, engine="fast"), fault_hook=fault_hook)
    with replay_disabled():
        result = gpu.launch(build_counting_kernel(3), LaunchConfig(4, 64),
                            memory=GlobalMemory(), controller_factory=factory,
                            issue_listener=listener)
    assert result.engine_issues["vector"] > 0
    events = [event for spy in spies for event in spy.events]
    assert len(events) == result.instructions_issued
    return [event for event in events
            if event.instruction.opcode not in _VALUE_FREE
            and event.hw_mask]


class TestLaneRecording:
    """Issue events carry per-lane values exactly when a fault hook or
    an issue listener is attached."""

    def test_timing_only_controller_gets_value_free_events(self):
        events = _spied_events()
        assert events
        for event in events:
            assert not event.lane_inputs and not event.lane_results, (
                event.pc, event.instruction.opcode)

    @pytest.mark.parametrize("reader", ["listener", "fault_hook"])
    def test_lane_readers_get_every_active_lane(self, reader):
        kwargs = {
            "listener": dict(listener=lambda event: None),
            "fault_hook": dict(fault_hook=FaultHook()),
        }[reader]
        events = _spied_events(**kwargs)
        assert events
        for event in events:
            lanes = set(active_lane_list(event.hw_mask, event.warp_width))
            assert set(event.lane_inputs) == lanes, event.pc
            assert set(event.lane_results) == lanes, event.pc


def _matrixmul(engine, *, dmr=None, fault_hook=None):
    """matrixmul (scale 0.25, 2 SMs): its payload and engine mix.

    The launch executes even if an earlier one recorded matrixmul:
    replayed issues would count on no executing engine.
    """
    run = get_workload("matrixmul").prepare(0.25, 0)
    gpu = GPU(experiment_config(num_sms=2, engine=engine),
              dmr=dmr or DMRConfig.disabled(), fault_hook=fault_hook)
    with replay_disabled():
        result = gpu.launch(run.program, run.launch, memory=run.memory)
    run.check(run.memory)
    return pickle.dumps(result.to_payload()), result.engine_issues


class TestLaneReaderPayloads:
    """With lane values read or not, the vectorized ``fast`` engine
    matches the ``scalar`` oracle's payload byte for byte."""

    DMR = DMRConfig.paper_default().with_replayq(10)

    def test_timing_only_dmr_launch_matches_scalar(self):
        assert self.DMR.mapping.value == "cross"
        fast, issues = _matrixmul("fast", dmr=self.DMR)
        assert issues["vector"] > 0 and issues["scalar"] == 0
        assert fast == _matrixmul("scalar", dmr=self.DMR)[0]

    def test_fault_hook_launch_matches_scalar(self):
        def hook():  # armed, but strikes after the kernel has ended
            return FaultInjector([TransientFault(
                sm_id=0, hw_lane=0, unit=UnitType.SP, bit=0,
                cycle=10 ** 9)])

        fast, issues = _matrixmul("fast", dmr=self.DMR, fault_hook=hook())
        assert issues["vector"] > 0
        assert fast == _matrixmul("scalar", dmr=self.DMR,
                                  fault_hook=hook())[0]


class TestLaunchLifetime:
    """A launch's SMs, executors and DMR controllers die with its last
    reference, not at the next full garbage collection."""

    @pytest.mark.parametrize("dmr", [None, DMRConfig.paper_default()],
                             ids=["no_dmr", "dmr"])
    def test_launch_frees_its_sms_without_cyclic_gc(self, monkeypatch, dmr):
        refs = []
        original = SM.run

        def recording_run(self):
            refs.extend(weakref.ref(part) for part in
                        (self, self.executor, self.dmr) if part is not None)
            return original(self)

        monkeypatch.setattr(SM, "run", recording_run)
        program = build_counting_kernel(iterations=3)
        gc.collect()
        gc.disable()
        try:
            result = launch(program, "fast", grid=4, block=64, num_sms=2,
                            dmr=dmr)
            del result
            assert len(refs) == (4 if dmr is None else 6)
            assert all(ref() is None for ref in refs)
        finally:
            gc.enable()


def build_predicated_kernel():
    b = KernelBuilder("predicated")
    gid, t, lo, hi, out = b.regs(5)
    p = b.pred()
    b.gtid(gid)
    b.irem(t, gid, 3)
    b.setp(p, t, CmpOp.EQ, 1)
    b.imul(lo, gid, 7)
    b.iadd(hi, gid, 100)
    b.selp(out, hi, lo, p)
    b.st_global(gid, out)
    b.exit()
    return b.build()


class TestEngineDifferential:
    KERNELS = {
        "loop": (build_counting_kernel, dict(grid=1, block=32)),
        "divergent": (build_divergent_kernel, dict(grid=1, block=32)),
        "divergent_dmr": (build_divergent_kernel,
                          dict(grid=1, block=32,
                               dmr=DMRConfig.paper_default())),
        "predicated": (build_predicated_kernel, dict(grid=1, block=32)),
        "partial_warp": (build_divergent_kernel, dict(grid=1, block=20)),
        "multi_sm": (build_counting_kernel,
                     dict(grid=4, block=64, num_sms=2)),
    }

    @pytest.mark.parametrize("name", sorted(KERNELS))
    def test_fast_matches_scalar(self, name):
        """Each launch is its program's first, so ``fast`` executes
        (and records); it must match ``scalar`` byte for byte."""
        build, kwargs = self.KERNELS[name]
        assert payload(launch(build(), "fast", **kwargs)) == \
            payload(launch(build(), "scalar", **kwargs))

    def test_default_engine_is_fast(self, monkeypatch):
        """Without ``$REPRO_EXEC`` a config runs ``fast``, which
        vectorizes."""
        monkeypatch.delenv("REPRO_EXEC", raising=False)
        assert GPUConfig().engine == "fast"
        program = build_predicated_kernel()
        result = GPU(GPUConfig.small(1)).launch(program, LaunchConfig(1, 32))
        assert result.engine_issues["vector"] > 0
        assert payload(result) == payload(launch(program, "scalar"))
