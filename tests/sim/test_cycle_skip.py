"""Cycle-skipping invariance: fast-forwarding must be unobservable.

The SM's event-driven skips (burning a whole leading stall run at once,
jumping idle stretches to the next scoreboard-ready cycle) are a pure
wall-clock optimization.  Every architecturally visible artifact —
``cycles_total``, the stall-cause partition, ReplayQ depth histograms,
the obs MetricSnapshot, memory images — must be byte-identical with
skipping on and off, on the workload shapes that exercise the skip
paths hardest: divergent control flow, barrier convoys, and long RAW
stall chains.
"""

from __future__ import annotations

import pickle
from dataclasses import replace

import pytest

from repro.common.config import DMRConfig, GPUConfig, LaunchConfig
from repro.isa.opcodes import CmpOp
from repro.kernel.builder import KernelBuilder
from repro.sim.gpu import GPU
from repro.sim.memory import GlobalMemory

from tests.conftest import build_counting_kernel, build_divergent_kernel


def build_barrier_kernel():
    """Neighbor exchange through shared memory: bar() convoys every warp."""
    b = KernelBuilder("neighbors")
    tid, nxt, v, gid = b.regs(4)
    b.tid(tid)
    b.gtid(gid)
    b.st_shared(tid, tid)
    b.bar()
    b.iadd(nxt, tid, 1)
    b.irem(nxt, nxt, 64)
    b.ld_shared(v, nxt)
    b.bar()
    b.st_global(gid, v)
    b.exit()
    return b.build()


def build_raw_chain_kernel():
    """Serial dependence chain: every instruction stalls on the last."""
    b = KernelBuilder("raw_chain")
    gid, acc, i = b.regs(3)
    p = b.pred()
    b.gtid(gid)
    b.mov(acc, 1)
    b.mov(i, 0)
    b.label("loop")
    b.imul(acc, acc, 3)      # RAW on acc, mul latency each trip
    b.irem(acc, acc, 1000003)
    b.iadd(i, i, 1)
    b.setp(p, i, CmpOp.LT, 6)
    b.bra("loop", pred=p)
    b.iadd(acc, acc, gid)
    b.st_global(gid, acc)
    b.exit()
    return b.build()


KERNELS = {
    "divergent": (build_divergent_kernel, dict(grid=2, block=32)),
    "barrier": (build_barrier_kernel, dict(grid=2, block=64)),
    "raw_chain": (build_raw_chain_kernel, dict(grid=1, block=32)),
    "loop": (build_counting_kernel, dict(grid=4, block=64)),
}


def run(build, *, grid, block, cycle_skip, engine="fast", dmr=None,
        obs=False, num_sms=2):
    config = GPUConfig(num_sms=num_sms, cycle_skip=cycle_skip, engine=engine)
    gpu = GPU(config, dmr=dmr or DMRConfig.disabled(), obs=obs)
    return gpu.launch(build(), LaunchConfig(grid_dim=grid, block_dim=block),
                      memory=GlobalMemory())


def full_payload(result) -> bytes:
    """Every observable surface, pickled for byte comparison."""
    return pickle.dumps(result.to_payload())


class TestSkipInvariance:
    @pytest.mark.parametrize("name", sorted(KERNELS))
    @pytest.mark.parametrize("engine", ["scalar", "fast"])
    def test_payload_identical_with_and_without_skipping(self, name, engine):
        build, kwargs = KERNELS[name]
        on = run(build, **kwargs, cycle_skip=True, engine=engine)
        off = run(build, **kwargs, cycle_skip=False, engine=engine)
        assert full_payload(on) == full_payload(off)

    @pytest.mark.parametrize("name", ["barrier", "raw_chain"])
    def test_invariance_holds_under_dmr(self, name):
        """DMR stalls (replay/bank/flush) feed the skip paths too; the
        stall-cause partition and ReplayQ depth histogram must not move."""
        build, kwargs = KERNELS[name]
        dmr = DMRConfig.paper_default()
        on = run(build, **kwargs, cycle_skip=True, dmr=dmr)
        off = run(build, **kwargs, cycle_skip=False, dmr=dmr)
        on_stats = on.stats.to_payload()
        off_stats = off.stats.to_payload()
        assert on_stats == off_stats
        assert full_payload(on) == full_payload(off)

    @pytest.mark.parametrize("name", ["divergent", "barrier"])
    def test_metric_snapshot_identical(self, name):
        """The obs MetricSnapshot (cycles_total, stall partition, depth
        histograms) is produced through a PipelineProbe without a tracer
        — the one probe shape skipping stays enabled under."""
        build, kwargs = KERNELS[name]
        on = run(build, **kwargs, cycle_skip=True, obs="metrics")
        off = run(build, **kwargs, cycle_skip=False, obs="metrics")
        assert on.obs is not None and off.obs is not None
        assert pickle.dumps(on.obs) == pickle.dumps(off.obs)
        assert full_payload(on) == full_payload(off)

    def test_skip_defaults_on(self):
        assert GPUConfig().cycle_skip is True
        assert replace(GPUConfig(), cycle_skip=False).cycle_skip is False
