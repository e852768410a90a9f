"""Control-flow replay (``repro.sim.replay``): verdicts, modes, exactness.

A fault-free timing-only launch on the ``fast`` engine records each
warp's control outcomes and accesses; a race and barrier-divergence
check certifies it; later launches with the same key replay it.  These
tests pin the verdicts (registry workloads, planted races and
divergences; the fuzz corpus's are in ``tests/fuzz``), show that replayed payloads equal executed
ones byte for byte under every figure configuration, schedule and
obs setting, and check that excluded launches never record or replay,
that launches with a baseline's own DMR controller do, and that a
corrupted record raises.
"""

from __future__ import annotations

import gc
import pickle
import weakref
from dataclasses import replace
from pathlib import Path

import pytest

from repro.analysis.runner import SuiteRunner, experiment_config
from repro.baselines.sampling import sampling_factory
from repro.baselines.schemes import DMTRScheme
from repro.common.config import (DMRConfig, GPUConfig, LaunchConfig,
                                 MappingPolicy)
from repro.common.errors import SimulationError
from repro.faults.injector import FaultInjector
from repro.faults.models import TransientFault
from repro.fuzz import Corpus, run_kernel
from repro.fuzz.differential import fuzz_gpu_config
from repro.isa.opcodes import CmpOp, UnitType
from repro.isa.operands import SReg, SpecialReg
from repro.kernel.builder import KernelBuilder
from repro.service import codec
from repro.service import jobs as service_jobs
from repro.sim import replay
from repro.sim.gpu import ENGINE_COUNTERS, GPU
from repro.sim.memory import GlobalMemory
from repro.sim.sm import SM
from repro.workloads import all_workloads, get_workload

from tests.conftest import (build_counting_kernel, build_divergent_kernel,
                            replay_disabled)

CORPUS = Corpus(Path(__file__).resolve().parents[1] / "fuzz" / "corpus")


def fast_config(num_sms: int = 1) -> GPUConfig:
    return replace(GPUConfig.small(num_sms), engine="fast")


def launch(program, *, grid=1, block=32, config=None, dmr=None,
           memory=None, fault_hook=None, obs=False, **kwargs):
    """One launch of *program*; *kwargs* go to :meth:`GPU.launch`."""
    gpu = GPU(config or fast_config(), dmr=dmr or DMRConfig.disabled(),
              fault_hook=fault_hook, obs=obs)
    return gpu.launch(program, LaunchConfig(grid, block),
                      memory=memory or GlobalMemory(), **kwargs)


def payload(result) -> bytes:
    return pickle.dumps(result.to_payload())


def simulate(name, dmr, config, scale, obs=False):
    run = get_workload(name).prepare(scale, 0)
    result = GPU(config, dmr=dmr, obs="metrics" if obs else False).launch(
        run.program, run.launch, memory=run.memory)
    run.check(run.memory)
    return result


def only_verdict(program) -> replay.Verdict:
    verdict, = replay.verdicts(program)
    return verdict


# ----------------------------------------------------------------------
# Verdicts
# ----------------------------------------------------------------------
@pytest.mark.parametrize("scale", [0.25, 0.5])
@pytest.mark.parametrize("name", list(all_workloads()))
def test_registry_verdicts(name, scale):
    """Every workload is certified except bfs from scale 0.5 on, whose
    frontier read of ``level[v]`` races another warp's discovery
    write."""
    run = get_workload(name).prepare(scale, 0)
    replay.forget(run.program)
    GPU(experiment_config(num_sms=2, engine="fast")).launch(
        run.program, run.launch, memory=run.memory)
    verdict = only_verdict(run.program)
    if (name, scale) == ("bfs", 0.5):
        assert not verdict.certified
        assert len(verdict.global_words) == 25
        assert not verdict.shared_words and not verdict.divergence
    else:
        assert verdict.certified, verdict


def _exchange_kernel(fenced: bool):
    """Each thread stores its tid to shared memory and reads the word
    of the thread 32 away, in the other warp: a race unless a BAR
    separates the two."""
    b = KernelBuilder("exchange")
    tid, other, value, gid = b.regs(4)
    b.tid(tid)
    b.st_shared(tid, tid)
    if fenced:
        b.bar()
    b.iadd(other, tid, 32)
    b.and_(other, other, 63)
    b.ld_shared(value, other)
    b.gtid(gid)
    b.st_global(gid, value)
    b.exit()
    return b.build()


def _cross_block_kernel():
    """Block b stores to word b, then loads the word of block b+1."""
    b = KernelBuilder("cross_block")
    block, nxt, value, gid = b.regs(4)
    b.ctaid(block)
    b.gtid(gid)
    b.st_global(block, gid)
    b.iadd(nxt, block, 1)
    b.irem(nxt, nxt, 2)
    b.ld_global(value, nxt)
    b.st_global(gid, value, offset=8)
    b.exit()
    return b.build()


def _divergent_bar_kernel():
    """A BAR on the side of a branch only half the warp takes."""
    b = KernelBuilder("divergent_bar")
    tid = b.reg()
    p = b.pred()
    b.tid(tid)
    b.setp(p, tid, CmpOp.LT, 16)
    b.bra("skip", p, neg=True)
    b.bar()
    b.label("skip")
    b.st_global(tid, tid)
    b.exit()
    return b.build()


def _uneven_bar_kernel():
    """Warp 1 exits at once; warp 0 loops, then passes a BAR alone."""
    b = KernelBuilder("uneven_bar")
    tid, i = b.regs(2)
    p = b.pred()
    b.tid(tid)
    b.setp(p, tid, CmpOp.GE, 32)
    b.bra("done", p)
    b.mov(i, 0)
    b.label("loop")
    b.iadd(i, i, 1)
    b.setp(p, i, CmpOp.LT, 20)
    b.bra("loop", p)
    b.bar()
    b.label("done")
    b.exit()
    return b.build()


PLANTED = {
    "shared_write_without_bar": (lambda: _exchange_kernel(False), 1, 64),
    "cross_block_read_after_write": (_cross_block_kernel, 2, 32),
    "bar_in_divergent_branch": (_divergent_bar_kernel, 1, 32),
    "warps_pass_different_bar_counts": (_uneven_bar_kernel, 1, 64),
}


@pytest.mark.parametrize("name", sorted(PLANTED))
def test_planted_defects_are_flagged(name):
    build, grid, block = PLANTED[name]
    program = build()
    first = launch(program, grid=grid, block=block)
    verdict = only_verdict(program)
    assert not verdict.certified
    if name == "shared_write_without_bar":
        assert verdict.shared_words == tuple((0, word) for word in range(64))
    elif name == "cross_block_read_after_write":
        assert verdict.global_words == (0, 1)
    else:
        assert verdict.divergence and not verdict.global_words
    # an uncertified key executes from then on, recording nothing new
    again = launch(program, grid=grid, block=block)
    assert again.engine_issues["replayed"] == 0
    assert payload(again) == payload(first)
    assert len(replay.verdicts(program)) == 1


def test_barrier_fenced_exchange_is_certified():
    program = _exchange_kernel(True)
    first = launch(program, block=64)
    assert only_verdict(program).certified
    assert [first.memory.load(g) for g in (0, 31, 32, 63)] == [32, 63, 0, 31]
    second = launch(program, block=64)
    assert second.engine_issues["replayed"] == second.instructions_issued
    assert payload(second) == payload(first)


# ----------------------------------------------------------------------
# Replay equals execution
# ----------------------------------------------------------------------
def _figure_cells(scale):
    """The distinct (workload, dmr, config) cells of the figures."""
    config = experiment_config(num_sms=2, engine="fast")
    runner = SuiteRunner(config, scale=scale, seed=0, cache=None)
    cells = {}
    for specs_fn, _, _ in service_jobs.figure_registry().values():
        for item in codec.resolve_run_specs(specs_fn(runner), None, config):
            cells.setdefault(codec.encode_canonical(item),
                             codec.run_spec_from_payload(item))
    return list(cells.values())


def test_every_figure_cell_replays_its_executed_payload():
    """At scale 0.25 every workload is certified: each program records
    once, in its first cell, and every other cell of every figure
    (DMR on and off, both mappings, every cluster and ReplayQ size)
    replays it, twice over, byte-identically."""
    scale = 0.25
    cells = _figure_cells(scale)
    with replay_disabled():
        executed = [payload(simulate(*cell, scale)) for cell in cells]
    names = sorted({name for name, _, _ in cells})
    for name in names:
        replay.forget(get_workload(name).prepare(scale, 0).program)
    for sweep in range(2):
        replayed = 0
        for cell, golden in zip(cells, executed):
            result = simulate(*cell, scale)
            assert payload(result) == golden, (sweep, cell)
            replayed += result.engine_issues["replayed"] > 0
        assert replayed == len(cells) - (len(names) if sweep == 0 else 0)
    for name in names:
        program = get_workload(name).prepare(scale, 0).program
        assert only_verdict(program).certified, name


#: schedule and obs variants of the paper's DMR configuration
VARIANTS = {
    "dual_scheduler": (dict(num_schedulers=2), False),
    "schedule_seed_1": (dict(schedule_seed=1), False),
    "schedule_seed_2": (dict(schedule_seed=2), False),
    "schedule_seed_3": (dict(schedule_seed=3), False),
    "obs_metrics": ({}, True),
}


@pytest.mark.parametrize("name", list(all_workloads()))
def test_schedule_and_obs_variants_replay_exactly(name):
    scale = 0.25
    dmr = DMRConfig.paper_default()
    base = experiment_config(num_sms=2, engine="fast")
    replay.forget(get_workload(name).prepare(scale, 0).program)
    simulate(name, dmr, base, scale)  # records
    for variant, (overrides, obs) in VARIANTS.items():
        config = replace(base, **overrides)
        with replay_disabled():
            executed = simulate(name, dmr, config, scale, obs)
        result = simulate(name, dmr, config, scale, obs)
        assert payload(result) == payload(executed), variant
        assert result.engine_issues["replayed"] == \
            result.instructions_issued, variant


def test_corpus_replays_under_eight_schedule_seeds():
    dmr = DMRConfig.paper_default().with_replayq(2)
    config = replace(fuzz_gpu_config(), engine="fast")
    for digest in CORPUS.digests():
        kernel = CORPUS.load(digest)
        for seed in range(8):
            with replay_disabled():
                executed = run_kernel(kernel, config=config, dmr=dmr,
                                      schedule_seed=seed)
            result = run_kernel(kernel, config=config, dmr=dmr,
                                schedule_seed=seed)
            assert payload(result) == payload(executed), (digest, seed)
            if seed:
                assert result.engine_issues["replayed"] == \
                    result.instructions_issued, (digest, seed)


def test_rthread_dispatch_is_racy_and_executes():
    """R-Thread dispatches every block twice; the copies store the same
    words, which the check reports as a cross-block conflict."""
    run = get_workload("scan").prepare(0.25, 0)
    replay.forget(run.program)
    dispatch = list(range(run.launch.grid_dim)) * 2
    results = []
    for _ in range(2):
        run = get_workload("scan").prepare(0.25, 0)
        results.append(GPU(experiment_config(num_sms=2, engine="fast")).launch(
            run.program, run.launch, memory=run.memory, block_ids=dispatch))
        run.check(run.memory)
    verdict = only_verdict(run.program)
    assert not verdict.certified and verdict.global_words
    assert results[1].engine_issues["replayed"] == 0
    assert payload(results[1]) == payload(results[0])


def _laneid_kernel():
    b = KernelBuilder("lanes")
    gid, lane = b.regs(2)
    b.gtid(gid)
    b.mov(lane, SReg(SpecialReg.LANEID))
    b.st_global(gid, lane)
    b.exit()
    return b.build()


def test_laneid_kernel_keys_on_the_lane_map():
    """A program that reads ``%laneid`` gets one record per lane map;
    no replay crosses mappings."""
    program = _laneid_kernel()
    outputs = {}
    for mapping in (MappingPolicy.IN_ORDER, MappingPolicy.CROSS) * 2:
        dmr = DMRConfig(mapping=mapping)
        with replay_disabled():
            executed = launch(program, dmr=dmr)
        result = launch(program, dmr=dmr)
        assert payload(result) == payload(executed), mapping
        outputs[mapping] = [result.memory.load(g) for g in range(4)]
    assert outputs[MappingPolicy.IN_ORDER] == [0, 1, 2, 3]
    assert outputs[MappingPolicy.CROSS] == [0, 4, 8, 12]
    assert len(replay.verdicts(program)) == 2


def test_racy_bfs_executes_every_time():
    replay.forget(get_workload("bfs").prepare(0.5, 0).program)
    config = experiment_config(num_sms=2, engine="fast")
    dmr = DMRConfig.paper_default()
    results = [simulate("bfs", dmr, config, 0.5) for _ in range(3)]
    assert all(result.engine_issues["replayed"] == 0 for result in results)
    assert results[2].engine_issues["vector"] > 0
    assert len({payload(result) for result in results}) == 1


# ----------------------------------------------------------------------
# Modes and the record's integrity
# ----------------------------------------------------------------------
def _fault_hook():
    # armed, but strikes after the kernel has ended
    return FaultInjector([TransientFault(sm_id=0, hw_lane=0,
                                         unit=UnitType.SP, bit=0,
                                         cycle=10 ** 9)])


EXCLUDED = {
    "scalar_engine": lambda: dict(config=replace(fast_config(),
                                                 engine="scalar")),
    "fault_hook": lambda: dict(fault_hook=_fault_hook()),
    "issue_listener": lambda: dict(issue_listener=lambda event: None),
    "chrome_tracing": lambda: dict(obs="trace"),
}


@pytest.mark.parametrize("mode", sorted(EXCLUDED))
def test_excluded_launches_neither_record_nor_replay(mode):
    program = build_counting_kernel(3)
    launch(program, **EXCLUDED[mode]())
    assert replay.verdicts(program) == []
    recorded = launch(program)
    assert only_verdict(program).certified
    result = launch(program, **EXCLUDED[mode]())
    assert result.engine_issues["replayed"] == 0
    assert len(replay.verdicts(program)) == 1
    if mode != "chrome_tracing":  # a traced payload carries its trace
        assert result.memory.to_payload() == recorded.memory.to_payload()


def _controller_launch(scheme, engine):
    """matrixmul (scale 0.25, 2 SMs) with a baseline's own controller
    attached through ``controller_factory``: DMTR as its scheme runs
    it, or sampling DMR as its ablation does."""
    config = experiment_config(num_sms=2, engine=engine)
    workload = get_workload("matrixmul")
    if scheme == "dmtr":
        return DMTRScheme(config).kernel_cycles(workload, 0.25, 0)
    run = workload.prepare(0.25, 0)
    return GPU(config).launch(
        run.program, run.launch, memory=run.memory,
        controller_factory=sampling_factory(config, epoch_cycles=256,
                                            sample_cycles=64))


@pytest.mark.parametrize("scheme", ["dmtr", "sampling"])
def test_controller_factory_launches_record_then_replay(scheme):
    """A custom controller compares lane values only on a faulty
    executor, so a DMTR or sampling launch without a fault hook is
    timing-only: its first launch of a key records, its second replays,
    and both payloads equal the ``scalar`` engine's executed one."""
    program = get_workload("matrixmul").prepare(0.25, 0).program
    replay.forget(program)
    scalar = _controller_launch(scheme, "scalar")
    first = _controller_launch(scheme, "fast")
    assert only_verdict(program).certified
    second = _controller_launch(scheme, "fast")
    assert first.engine_issues["replayed"] == 0
    assert first.engine_issues["vector"] > 0
    assert second.engine_issues == {
        "vector": 0, "scalar": 0, "replayed": second.instructions_issued}
    assert payload(first) == payload(second) == payload(scalar)


def _corrupt(program, how):
    record, = replay._records(program).values()
    warps = record.warps
    key = next(key for key, outcomes in warps.items() if outcomes)
    outcomes = warps[key]
    if how == "wrong_pc":
        pc, value = outcomes[0]
        warps[key] = ((pc + 1, value),) + outcomes[1:]
    elif how == "overrun":
        warps[key] = outcomes[:-1]
    elif how == "unused":
        warps[key] = outcomes + outcomes[-1:]
    else:
        del warps[key]


@pytest.mark.parametrize("how", ["wrong_pc", "overrun", "unused",
                                 "missing_warp"])
def test_corrupted_record_raises(how):
    program = build_divergent_kernel()
    launch(program)
    _corrupt(program, how)
    with pytest.raises(SimulationError, match="replay|record"):
        launch(program)


def test_a_launch_that_raises_stores_nothing():
    """A recording launch that dies (here on an out-of-range store)
    leaves no verdict, so the next launch of the key records again."""
    b = KernelBuilder("out_of_range")
    gid = b.reg()
    b.gtid(gid)
    b.st_global(gid, gid, offset=1 << 30)
    b.exit()
    program = b.build()
    for _ in range(2):
        with pytest.raises(SimulationError, match="out of range"):
            launch(program)
        assert replay.verdicts(program) == []


def test_key_covers_the_input_image_type_exactly():
    """``1``, ``1.0`` and ``True`` are three inputs, not one."""
    digests = set()
    for value in (1, 1.0, True):
        memory = GlobalMemory()
        memory.store(0, value)
        digests.add(memory.digest())
    assert len(digests) == 3
    program = build_counting_kernel(2)
    for value in (1, 1.0, True):
        memory = GlobalMemory()
        memory.store(100, value)
        launch(program, memory=memory)
    assert len(replay.verdicts(program)) == 3


def test_store_keeps_a_bounded_number_of_keys():
    program = build_counting_kernel(2)
    for value in range(replay.MAX_KEYS + 3):
        memory = GlobalMemory()
        memory.store(100, value)
        launch(program, memory=memory)
    assert len(replay.verdicts(program)) == replay.MAX_KEYS
    replay.forget(program)
    assert replay.verdicts(program) == []


# ----------------------------------------------------------------------
# The engine mix
# ----------------------------------------------------------------------
def test_engine_mix_stays_out_of_the_payload():
    result = launch(build_counting_kernel(3))
    assert set(result.to_payload()) == {
        "program_name", "cycles", "per_sm_cycles", "stats", "memory",
        "detections", "clock_period_ns", "obs"}
    assert tuple(result.engine_issues) == ENGINE_COUNTERS


def test_second_timing_only_launch_replays_every_issue():
    program = build_counting_kernel(3)
    dmr = DMRConfig.paper_default()
    first = launch(program, dmr=dmr, grid=4, block=64,
                   config=fast_config(2))
    second = launch(program, dmr=dmr, grid=4, block=64,
                    config=fast_config(2))
    assert first.engine_issues["replayed"] == 0
    assert first.engine_issues["vector"] > 0
    assert second.engine_issues == {
        "vector": 0, "scalar": 0, "replayed": second.instructions_issued}
    assert payload(second) == payload(first)


def test_faulted_launch_replays_nothing():
    program = build_counting_kernel(3)
    launch(program)
    result = launch(program, fault_hook=_fault_hook())
    assert result.engine_issues["replayed"] == 0
    assert result.engine_issues["vector"] > 0


def test_replaying_launch_frees_its_sms_without_cyclic_gc(monkeypatch):
    """Like ``test_lane_values.TestLaunchLifetime``, for a launch that
    replays."""
    program = build_counting_kernel(iterations=3)
    dmr = DMRConfig.paper_default()
    launch(program, grid=4, block=64, config=fast_config(2), dmr=dmr)
    refs = []
    original = SM.run

    def recording_run(self):
        refs.extend(weakref.ref(part) for part in
                    (self, self.executor, self.dmr) if part is not None)
        return original(self)

    monkeypatch.setattr(SM, "run", recording_run)
    gc.collect()
    gc.disable()
    try:
        result = launch(program, grid=4, block=64, config=fast_config(2),
                        dmr=dmr)
        assert result.engine_issues["replayed"] > 0
        del result
        assert len(refs) == 6
        assert all(ref() is None for ref in refs)
    finally:
        gc.enable()
