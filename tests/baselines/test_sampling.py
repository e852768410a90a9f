"""Tests for the Sampling-DMR comparator (related work [15])."""

import pickle
from dataclasses import replace

import pytest

from repro.baselines.sampling import SamplingDMRController, sampling_factory
from repro.common.config import DMRConfig, GPUConfig, LaunchConfig
from repro.common.errors import ConfigError
from repro.obs.metrics import MetricsRegistry
from repro.faults.injector import FaultInjector
from repro.faults.models import StuckAtFault, TransientFault
from repro.isa.opcodes import UnitType
from repro.sim.gpu import GPU
from repro.sim.memory import GlobalMemory

from tests.conftest import build_counting_kernel


def launch(epoch=64, sample=16, fault=None, iterations=16, config=None):
    config = config or GPUConfig.small(1)
    injector = FaultInjector([fault]) if fault else None
    gpu = GPU(config, fault_hook=injector)
    memory = GlobalMemory()
    result = gpu.launch(
        build_counting_kernel(iterations), LaunchConfig(4, 64),
        memory=memory,
        controller_factory=sampling_factory(
            config, epoch_cycles=epoch, sample_cycles=sample,
        ),
    )
    return result, memory


class TestConfiguration:
    def test_invalid_window_rejected(self):
        with pytest.raises(ConfigError):
            SamplingDMRController(
                GPUConfig.small(1), DMRConfig.paper_default(), MetricsRegistry(),
                epoch_cycles=100, sample_cycles=0,
            )
        with pytest.raises(ConfigError):
            SamplingDMRController(
                GPUConfig.small(1), DMRConfig.paper_default(), MetricsRegistry(),
                epoch_cycles=10, sample_cycles=20,
            )


class TestCoverageTradeoff:
    def test_partial_coverage_between_zero_and_full(self):
        result, _ = launch(epoch=64, sample=16)
        coverage = result.coverage.coverage
        assert 0.05 < coverage < 0.9
        assert result.stats.value("sampling_skipped_issues") > 0
        assert result.stats.value("sampling_window_issues") > 0

    def test_full_window_equals_warped_dmr_coverage(self):
        sampled, _ = launch(epoch=64, sample=64)
        config = GPUConfig.small(1)
        gpu = GPU(config, dmr=DMRConfig.paper_default())
        full = gpu.launch(
            build_counting_kernel(16), LaunchConfig(4, 64),
            memory=GlobalMemory(),
        )
        assert sampled.coverage.coverage == pytest.approx(
            full.coverage.coverage, abs=0.02
        )

    def test_wider_window_means_more_coverage(self):
        narrow, _ = launch(epoch=128, sample=8)
        wide, _ = launch(epoch=128, sample=64)
        assert wide.coverage.coverage > narrow.coverage.coverage

    def test_functional_results_unaffected(self):
        _, memory = launch()
        for g in range(4 * 64):
            assert memory.load(g) == 16 * g

    def test_forwarded_quiescence_keeps_idle_skipping_exact(self):
        """The wrapper forwards its inner checker's quiescence, so the
        SM skips idle spans under sampling too, invisibly."""
        skipping = GPUConfig.small(1)
        per_cycle = replace(skipping, cycle_skip=False)
        for engine in ("scalar", "fast"):
            on, _ = launch(config=replace(skipping, engine=engine))
            off, _ = launch(config=replace(per_cycle, engine=engine))
            assert pickle.dumps(on.to_payload()) == \
                pickle.dumps(off.to_payload())


class TestDetectionSemantics:
    def test_permanent_fault_eventually_detected(self):
        """The scheme's selling point: stuck-at faults persist, so some
        sampled window eventually sees them."""
        fault = StuckAtFault(sm_id=0, hw_lane=2, unit=UnitType.SP,
                             bit=3, stuck_to=1)
        result, _ = launch(epoch=64, sample=16, fault=fault)
        assert len(result.detections) > 0

    def test_transient_outside_window_missed(self):
        """...and its weakness: a strike between windows is gone before
        anyone re-executes (the paper's argument for Warped-DMR)."""
        # window covers cycles [0, 16) of each 4096-cycle epoch; strike
        # at cycle 2000 of a ~2000-cycle kernel run
        fault = TransientFault(sm_id=0, hw_lane=2, unit=UnitType.SP,
                               bit=3, cycle=1000)
        result, _ = launch(epoch=4096, sample=16, fault=fault)
        assert len(result.detections) == 0
