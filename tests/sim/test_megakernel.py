"""Unit and differential tests for the trace-fused megakernel engine.

The megakernel layer (``repro.sim.megakernel``) rests on a handful of
structural invariants — region boundaries at control flow / memory ops /
reconvergence targets, suffix regions for mid-run entry, copy-then-commit
fallback, and strict stash/issue lockstep.  These tests pin each
invariant directly on the region table and batcher objects, then close
the loop with full-launch payload differentials of the ``fast`` engine,
fused and with fusion gated off (per-issue vectorization only), against
the ``scalar`` engine.
"""

from __future__ import annotations

import gc
import pickle
import weakref

import pytest

from repro.analysis.runner import experiment_config
from repro.baselines.sampling import SamplingDMRController
from repro.common.config import DMRConfig, GPUConfig, LaunchConfig
from repro.common.errors import SimulationError
from repro.core.dmr_controller import DMRController
from repro.faults.injector import FaultInjector
from repro.faults.models import TransientFault
from repro.isa.opcodes import CmpOp, UnitType
from repro.kernel.builder import KernelBuilder
from repro.sim import megakernel
from repro.sim.gpu import GPU
from repro.sim.memory import GlobalMemory
from repro.sim.megakernel import (
    MAX_REGION_FAILURES,
    MIN_REGION_LEN,
    WarpBatcher,
    region_table,
)
from repro.sim.sm import SM
from repro.sim.vexec import VectorFallback
from repro.workloads import get_workload

from tests.conftest import (build_counting_kernel, build_divergent_kernel,
                           fusion_disabled, replay_disabled)


def launch(program, engine, *, grid=1, block=32, num_sms=1, dmr=None,
           listener=None):
    gpu = GPU(GPUConfig(num_sms=num_sms, engine=engine),
              dmr=dmr or DMRConfig.disabled())
    memory = GlobalMemory()
    result = gpu.launch(
        program, LaunchConfig(grid_dim=grid, block_dim=block),
        memory=memory, issue_listener=listener,
    )
    return result


def payload(result) -> bytes:
    """Byte-comparable image of everything a run can observably produce."""
    return pickle.dumps((result.memory.to_payload(), result.stats.to_payload(),
                         result.cycles, result.per_sm_cycles,
                         result.detections))


def make_sm(program, *, block_ids=(0,), grid=1, block=32, engine="fast",
            fault_hook=None):
    config = GPUConfig(num_sms=1, engine=engine)
    return SM(
        sm_id=0,
        config=config,
        program=program,
        launch=LaunchConfig(grid_dim=grid, block_dim=block),
        block_ids=list(block_ids),
        global_memory=GlobalMemory(),
        lane_of_slot=list(range(config.warp_size)),
        fault_hook=fault_hook,
    )


def build_straightline(name="straight"):
    """pc0..pc2 fusable ALU run, then a store + exit boundary."""
    b = KernelBuilder(name)
    gid, a, c = b.regs(3)
    b.gtid(gid)           # 0
    b.iadd(a, gid, 1)     # 1
    b.imul(c, a, 2)       # 2
    b.st_global(gid, c)   # 3
    b.exit()              # 4
    return b.build()


def build_join_kernel():
    """A predicated skip whose join lands mid-ALU-run (reconv target pc4)."""
    b = KernelBuilder("join")
    gid, x, y = b.regs(3)
    p = b.pred()
    b.gtid(gid)                      # 0
    b.setp(p, gid, CmpOp.LT, 16)     # 1
    b.bra("skip", pred=p)            # 2
    b.iadd(x, gid, 1)                # 3
    b.label("skip")
    b.iadd(y, gid, 5)                # 4  <- reconvergence target
    b.imul(y, y, 2)                  # 5
    b.st_global(gid, y)              # 6
    b.exit()                         # 7
    return b.build()


class TestRegionTable:
    def test_run_bounded_by_memory_and_exit(self):
        table = region_table(build_straightline())
        assert set(table) == {0, 1}
        assert table[0].start == 0 and table[0].end == 3
        assert len(table[0].entries) == 3

    def test_suffix_regions_share_the_run_tail(self):
        # a warp branching into pc1 must still fuse the [1, 3) tail
        table = region_table(build_straightline())
        assert table[1].start == 1 and table[1].end == 3
        assert table[1].entries == table[0].entries[1:]

    def test_min_region_len_suppresses_singletons(self):
        b = KernelBuilder("singleton")
        gid, a = b.regs(2)
        b.gtid(gid)           # 0 } run of 2 -> region
        b.iadd(a, gid, 1)     # 1 }
        b.st_global(gid, a)   # 2 boundary
        b.imul(a, a, 2)       # 3 lone fusable run
        b.st_global(gid, a)   # 4 boundary
        b.exit()
        table = region_table(b.build())
        assert 0 in table
        assert 3 not in table, "1-instruction runs are not worth a region"
        assert MIN_REGION_LEN == 2

    def test_reconvergence_target_bounds_but_may_start_a_region(self):
        program = build_join_kernel()
        reconv = set(program.reconvergence.values())
        assert 4 in reconv, "kernel must reconverge at the join pc"
        table = region_table(program)
        # the join may START a region (the mask pop happens before the
        # fuse attempt) ...
        assert table[4].start == 4 and table[4].end == 6
        # ... but no region may CONTAIN it: advancing into the join pops
        # the SIMT stack, changing the mask mid-region
        for region in table.values():
            assert not (region.start < 4 < region.end), repr(region)
        # pc3 is a fusable singleton cut short by the join
        assert 3 not in table

    def test_out_of_int64_immediate_is_excluded(self):
        b = KernelBuilder("bigimm")
        gid, a, c = b.regs(3)
        b.gtid(gid)             # 0
        b.iadd(a, gid, 1)       # 1
        b.iadd(c, a, 1 << 70)   # 2: immediate cannot enter an int64 array
        b.iadd(c, c, 1)         # 3
        b.st_global(gid, c)     # 4
        b.exit()
        table = b.build()
        table = region_table(table)
        for region in table.values():
            assert not (region.start <= 2 < region.end), repr(region)
        assert 0 in table and table[0].end == 2

    def test_control_flow_bounds_regions(self):
        table = region_table(build_counting_kernel(iterations=4))
        for region in table.values():
            for entry in region.entries:
                assert entry.fn is not None


class TestStashLockstep:
    def test_stash_consumption_and_exhaustion(self):
        program = build_straightline()
        sm = make_sm(program)
        batcher = WarpBatcher([sm]).attach()
        warp = sm._resident_warps[0]
        full = warp.stack.current_mask
        stash = batcher.try_fuse(warp, 0, program.instructions[0])
        assert stash is not None and warp.mega_stash is stash
        assert len(stash.masks) == 3
        for pc in range(3):
            mask = sm.executor.consume_stash_mask(
                warp, stash, program.instructions[pc], pc)
            assert mask == full, "unguarded region: full SIMT mask per issue"
        assert warp.mega_stash is None, "stash clears on its last entry"

    def test_desync_raises_and_clears_the_stash(self):
        program = build_straightline()
        sm = make_sm(program)
        batcher = WarpBatcher([sm]).attach()
        warp = sm._resident_warps[0]
        stash = batcher.try_fuse(warp, 0, program.instructions[0])
        sm.executor.consume_stash_mask(warp, stash, program.instructions[0], 0)
        # replaying pc0 when the stash expects pc1 must be loud, never a
        # silent functional skew
        with pytest.raises(SimulationError, match="stash desync"):
            sm.executor.consume_stash_mask(
                warp, stash, program.instructions[0], 0)
        assert warp.mega_stash is None

    def test_cross_sm_batch_groups_every_matching_peer(self):
        program = build_straightline()
        sm0 = make_sm(program, block_ids=(0,), grid=2, block=64)
        sm1 = make_sm(program, block_ids=(1,), grid=2, block=64)
        batcher = WarpBatcher([sm0, sm1]).attach()
        warp = sm0._resident_warps[0]
        stash = batcher.try_fuse(warp, 0, program.instructions[0])
        assert stash is not None
        # 2 warps per SM x 2 SMs, all at pc0 with the same mask
        assert batcher.fused_regions == 1
        assert batcher.fused_warps == 4
        for sm in (sm0, sm1):
            for peer in sm._resident_warps:
                assert peer.mega_stash is not None


class TestFallbackPoisoning:
    def test_region_disabled_after_repeated_fallbacks(self, monkeypatch):
        program = build_straightline()
        sm = make_sm(program)
        batcher = WarpBatcher([sm]).attach()
        warp = sm._resident_warps[0]
        calls = []

        def boom(region, warps, mask):
            calls.append(region.start)
            raise VectorFallback("forced")

        monkeypatch.setattr(megakernel, "execute_region", boom)
        region = region_table(program)[0]
        for attempt in range(1, MAX_REGION_FAILURES + 1):
            assert batcher.try_fuse(warp, 0, program.instructions[0]) is None
            assert region.failures == attempt
        assert not region.enabled
        # a poisoned region stops trying: no further execute_region calls
        assert batcher.try_fuse(warp, 0, program.instructions[0]) is None
        assert len(calls) == MAX_REGION_FAILURES
        assert warp.mega_stash is None

    def test_launch_survives_total_fallback_bit_identically(self, monkeypatch):
        """With every fuse attempt failing, fast must degrade to
        per-issue execution and still match scalar byte for byte."""
        monkeypatch.setattr(
            megakernel, "execute_region",
            lambda region, warps, mask: (_ for _ in ()).throw(
                VectorFallback("forced")))
        program = build_counting_kernel(iterations=3)
        assert payload(launch(program, "fast")) == \
            payload(launch(program, "scalar"))


def _controllers(sm, functional_verify):
    """Both shipped Warped-DMR controllers, as GPU.launch builds them."""
    dmr = DMRConfig.paper_default()
    return [
        DMRController(sm.config, dmr, sm.stats,
                      functional_verify=functional_verify),
        SamplingDMRController(sm.config, dmr, sm.stats,
                              functional_verify=functional_verify),
    ]


class TestFusionGating:
    def test_dmr_blocks_fusion(self):
        """A controller that does not declare ``functional_verify`` is
        assumed to read lane values."""
        sm = make_sm(build_straightline())
        assert sm.fusion_allowed()
        sm.dmr = object()
        assert not sm.fusion_allowed()

    def test_timing_only_dmr_allows_fusion(self):
        sm = make_sm(build_straightline())
        for controller in _controllers(sm, functional_verify=False):
            sm.dmr = controller
            assert sm.lane_values_unread()
            assert sm.fusion_allowed(), type(controller).__name__

    def test_functional_verify_dmr_blocks_fusion(self):
        sm = make_sm(build_straightline())
        for controller in _controllers(sm, functional_verify=True):
            sm.dmr = controller
            assert not sm.lane_values_unread()
            assert not sm.fusion_allowed(), type(controller).__name__

    def test_issue_listener_blocks_fusion(self):
        sm = make_sm(build_straightline())
        sm.add_issue_listener(lambda event: None)
        assert not sm.fusion_allowed()

    def test_fault_hook_blocks_fusion(self):
        sm = make_sm(build_straightline(),
                     fault_hook=lambda *args, **kwargs: None)
        assert not sm.fusion_allowed()

    def test_non_fusing_engines_block_fusion(self):
        sm = make_sm(build_straightline(), engine="scalar")
        assert not sm.fusion_allowed()

    def test_gated_launch_matches_scalar_under_dmr(self):
        program = build_divergent_kernel()
        dmr = DMRConfig.paper_default()
        assert payload(launch(program, "fast", dmr=dmr)) == \
            payload(launch(program, "scalar", dmr=dmr))


def _launch_counting_issues(monkeypatch, engine, *, dmr=None,
                            fault_hook=None, controller_factory=None):
    """matrixmul (scale 0.25, 2 SMs) plus the summed engine counters.

    The launch executes even if an earlier one recorded matrixmul:
    replayed issues would count on no executing engine.
    """
    counts = {"vector": 0, "scalar": 0, "fused": 0}
    original = SM.run

    def counting_run(self):
        try:
            return original(self)
        finally:
            counts["vector"] += self.executor.vector_issues
            counts["scalar"] += self.executor.scalar_issues
            counts["fused"] += self.executor.fused_issues

    monkeypatch.setattr(SM, "run", counting_run)
    run = get_workload("matrixmul").prepare(0.25, 0)
    gpu = GPU(experiment_config(num_sms=2, engine=engine),
              dmr=dmr or DMRConfig.disabled(), fault_hook=fault_hook)
    with replay_disabled():
        result = gpu.launch(run.program, run.launch, memory=run.memory,
                            controller_factory=controller_factory)
    run.check(run.memory)
    return pickle.dumps(result.to_payload()), counts


class TestFusedIssues:
    """``Executor.fused_issues`` counts stash consumptions: issues whose
    arithmetic ran ahead, in a fused region (never in the stats)."""

    DMR = DMRConfig.paper_default().with_replayq(10)

    def test_timing_only_dmr_launch_fuses(self, monkeypatch):
        assert self.DMR.mapping.value == "cross"
        fast, counts = _launch_counting_issues(monkeypatch, "fast",
                                               dmr=self.DMR)
        assert counts["fused"] > 0
        assert counts["vector"] > 0 and counts["scalar"] == 0
        scalar, scalar_counts = _launch_counting_issues(
            monkeypatch, "scalar", dmr=self.DMR)
        assert scalar_counts["fused"] == 0
        assert fast == scalar

    def test_fault_hook_launch_does_not_fuse(self, monkeypatch):
        def hook():  # armed, but strikes after the kernel has ended
            return FaultInjector([TransientFault(
                sm_id=0, hw_lane=0, unit=UnitType.SP, bit=0,
                cycle=10 ** 9)])

        fast, counts = _launch_counting_issues(
            monkeypatch, "fast", dmr=self.DMR, fault_hook=hook())
        assert counts["fused"] == 0
        assert counts["vector"] > 0
        scalar, _ = _launch_counting_issues(
            monkeypatch, "scalar", dmr=self.DMR, fault_hook=hook())
        assert fast == scalar

    def test_functional_verify_controller_does_not_fuse(self, monkeypatch):
        def factory(stats):
            return DMRController(experiment_config(num_sms=2), self.DMR,
                                 stats, functional_verify=True)

        fast, counts = _launch_counting_issues(
            monkeypatch, "fast", controller_factory=factory)
        assert counts["fused"] == 0
        assert counts["vector"] > 0
        scalar, _ = _launch_counting_issues(
            monkeypatch, "scalar", controller_factory=factory)
        assert fast == scalar


class TestLaunchLifetime:
    """A launch's SMs, executors and DMR controllers die with its last
    reference, not at the next full garbage collection: the batcher
    that links every fusing SM is detached once they have all run."""

    @pytest.mark.parametrize("dmr", [None, DMRConfig.paper_default()],
                             ids=["no_dmr", "timing_only_dmr"])
    def test_launch_frees_its_sms_without_cyclic_gc(self, monkeypatch, dmr):
        refs = []
        original = SM.run

        def recording_run(self):
            refs.extend(weakref.ref(part) for part in
                        (self, self.executor, self.dmr) if part is not None)
            return original(self)

        monkeypatch.setattr(SM, "run", recording_run)
        batchers = []
        attach = WarpBatcher.attach

        def recording_attach(batcher):
            batchers.append(batcher)
            return attach(batcher)

        monkeypatch.setattr(WarpBatcher, "attach", recording_attach)
        program = build_counting_kernel(iterations=3)
        gc.collect()
        gc.disable()
        try:
            result = launch(program, "fast", grid=4, block=64, num_sms=2,
                            dmr=dmr)
            assert batchers, "the launch must fuse for this to test it"
            del result
            assert len(refs) == (4 if dmr is None else 6)
            assert all(ref() is None for ref in refs)
        finally:
            gc.enable()

    def test_solo_run_detaches_its_batcher(self):
        sm = make_sm(build_straightline())
        executor = weakref.ref(sm.executor)
        gc.collect()
        gc.disable()
        try:
            sm.run()
            assert sm._batcher is None and sm.executor._mega is None
            assert sm.executor.fused_issues > 0
            del sm
            assert executor() is None
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
        "predicated": (build_predicated_kernel, dict(grid=1, block=32)),
        "partial_warp": (build_divergent_kernel, dict(grid=1, block=20)),
        "multi_sm": (build_counting_kernel,
                     dict(grid=4, block=64, num_sms=2)),
    }

    @pytest.mark.parametrize("name", sorted(KERNELS))
    def test_mega_matches_scalar_and_vector(self, name):
        """Fused regions and per-issue vectorization both match scalar."""
        build, kwargs = self.KERNELS[name]
        golden = payload(launch(build(), "scalar", **kwargs))
        assert payload(launch(build(), "fast", **kwargs)) == golden
        with fusion_disabled():
            assert payload(launch(build(), "fast", **kwargs)) == golden

    def test_default_engine_is_fast(self, monkeypatch):
        """Without ``$REPRO_EXEC`` a config runs ``fast``, which fuses."""
        monkeypatch.delenv("REPRO_EXEC", raising=False)
        assert GPUConfig().engine == "fast"
        program = build_predicated_kernel()
        batchers = []
        attach = WarpBatcher.attach

        def recording_attach(batcher):
            batchers.append(batcher)
            return attach(batcher)

        monkeypatch.setattr(WarpBatcher, "attach", recording_attach)
        gpu = GPU(GPUConfig.small(1))
        assert payload(gpu.launch(program, LaunchConfig(1, 32))) == \
            payload(launch(program, "scalar"))
        assert batchers and batchers[0].fused_regions > 0
