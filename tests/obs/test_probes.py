"""Tests for the per-SM pipeline probe.

The probe is duck-typed over issue events, so these tests drive it with
a minimal stand-in instead of constructing real simulator events —
which also proves ``repro.obs`` needs nothing from ``repro.sim``.  The
obs DMR and stall counters are mirrors of the SM's stats, derived when
each SM finishes; launch-level tests hold each mirror to the counter it
restates.
"""

from dataclasses import replace
from types import SimpleNamespace

import pytest

from repro.analysis.runner import experiment_config
from repro.common.config import DMRConfig
from repro.core.inter_warp import VERIFY_PATHS
from repro.obs.metrics import MetricsRegistry
from repro.obs.probes import (
    DEPTH_BOUNDS,
    OCCUPANCY_BOUNDS,
    PipelineProbe,
    SCAN_BOUNDS,
)
from repro.obs.tracer import Tracer
from repro.sim.gpu import GPU
from repro.workloads import get_workload


def fake_event(cycle=3, warp_id=1, pc=8, active=16,
               opcode="IADD", unit="alu"):
    return SimpleNamespace(
        cycle=cycle, warp_id=warp_id, pc=pc, active_count=active,
        instruction=SimpleNamespace(opcode=SimpleNamespace(value=opcode)),
        unit=SimpleNamespace(value=unit),
    )


def launch(name, dmr, **config):
    """*name* at scale 0.25 on two SMs, obs on; returns the SM stats'
    counters and the obs snapshot."""
    run = get_workload(name).prepare(0.25, 0)
    gpu = GPU(replace(experiment_config(num_sms=2), **config), dmr=dmr,
              obs="metrics")
    result = gpu.launch(run.program, run.launch, memory=run.memory)
    return (result.stats.counters(),
            MetricsRegistry.from_payload(result.obs).counters())


@pytest.fixture(scope="module")
def bitonic():
    """Lane shuffle on/off -> bitonic's SM counters and obs snapshot."""
    return {shuffle: launch("bitonic", replace(DMRConfig.paper_default(),
                                               lane_shuffle=shuffle))
            for shuffle in (True, False)}


def instants(tracer):
    return [e for e in tracer.to_payload()["traceEvents"] if e["ph"] == "i"]


class TestCycleSampling:
    def test_occupancy_gauge_and_histogram(self):
        registry = MetricsRegistry()
        probe = PipelineProbe(registry, sm_id=0)
        probe.on_cycle(0, resident_warps=8)
        probe.on_cycle(1, resident_warps=4)
        gauge = registry.gauge("warp_occupancy")
        assert gauge.count == 2
        assert (gauge.min, gauge.max) == (4, 8)
        hist = registry.fixed_histogram("warp_occupancy", OCCUPANCY_BOUNDS)
        assert hist.total == 2

    def test_queue_depth_sampled_only_when_bound(self):
        registry = MetricsRegistry()
        probe = PipelineProbe(registry, sm_id=0)
        probe.on_cycle(0, resident_warps=1)
        assert registry.gauge("replayq_depth").count == 0

        depth = [0]
        probe.bind_queue_depth(lambda: depth[0])
        depth[0] = 3
        probe.on_cycle(1, resident_warps=1)
        gauge = registry.gauge("replayq_depth")
        assert gauge.count == 1 and gauge.value == 3
        assert registry.fixed_histogram("replayq_depth",
                                        DEPTH_BOUNDS).total == 1

    def test_depth_counter_track_emits_only_on_change(self):
        tracer = Tracer()
        probe = PipelineProbe(MetricsRegistry(), sm_id=0, tracer=tracer)
        depth = [2]
        probe.bind_queue_depth(lambda: depth[0])
        probe.on_cycle(0, 1)
        probe.on_cycle(1, 1)       # unchanged -> no new sample
        depth[0] = 5
        probe.on_cycle(2, 1)
        counters = [e for e in tracer.to_payload()["traceEvents"]
                    if e["ph"] == "C"]
        assert [c["args"]["entries"] for c in counters] == [2, 5]


class TestIssueAndStall:
    def test_on_issue_without_tracer_is_noop(self):
        probe = PipelineProbe(MetricsRegistry(), sm_id=0)
        probe.on_issue(fake_event())  # must not raise

    def test_on_issue_emits_span_and_thread_name(self):
        tracer = Tracer()
        probe = PipelineProbe(MetricsRegistry(), sm_id=2, tracer=tracer)
        probe.on_issue(fake_event(cycle=9, warp_id=5))
        events = tracer.to_payload()["traceEvents"]
        span = next(e for e in events if e["ph"] == "X")
        assert (span["pid"], span["tid"], span["ts"]) == (2, 5, 9)
        assert span["name"] == "IADD"
        assert span["args"]["unit"] == "alu"
        names = [e for e in events if e["ph"] == "M"]
        assert {e["args"]["name"] for e in names} == {"SM 2", "warp 5"}

    def test_on_stall_draws_an_instant_only(self):
        registry, tracer = MetricsRegistry(), Tracer()
        probe = PipelineProbe(registry, sm_id=0, tracer=tracer)
        probe.on_stall("raw", 2, cycle=10)
        assert [e["name"] for e in instants(tracer)] == ["stall:raw"]
        assert registry.counters() == {}

    def test_on_stall_counts_per_cause(self):
        """Every stall cause of a launch (RAW, replay, bank, flush) has
        an obs ``stall_<cause>`` equal to its ``cycles_stall_<cause>``,
        and the umbrella is their sum."""
        stats, obs = launch("matrixmul",
                            DMRConfig.paper_default().with_replayq(1),
                            model_bank_conflicts=True)
        causes = {name[len("cycles_stall_"):]: value
                  for name, value in stats.items()
                  if name.startswith("cycles_stall_")}
        assert set(causes) == {"raw", "replay", "bank", "flush"}
        assert {name[len("stall_"):]: value for name, value in obs.items()
                if name.startswith("stall_")} == causes
        assert stats["cycles_dmr_stall"] == sum(causes.values())


class TestSchedulerHooks:
    def test_scan_depth_and_no_ready(self):
        registry = MetricsRegistry()
        probe = PipelineProbe(registry, sm_id=0)
        probe.on_schedule(scanned=2, found=True)
        probe.on_schedule(scanned=8, found=False)
        assert registry.fixed_histogram("sched_scan_depth",
                                        SCAN_BOUNDS).total == 2
        assert registry.value("sched_no_ready") == 1


class TestDMRHooks:
    def test_hooks_draw_instants_only(self):
        registry, tracer = MetricsRegistry(), Tracer()
        probe = PipelineProbe(registry, sm_id=0, tracer=tracer)
        probe.on_intra_pairing(fake_event(), verified_lanes=4,
                               redundant_executions=2)
        probe.on_inter_verify(fake_event(active=8), "coexec", cycle=4,
                              shuffled=True)
        assert [e["name"] for e in instants(tracer)] == [
            "intra-DMR", "inter-DMR:coexec"]
        assert registry.counters() == {}

    def test_intra_pairing(self, bitonic):
        """bitonic pairs lanes within warps: the intra mirrors restate
        the SM's pairing counters, and every RFU pair runs its copy on
        another lane."""
        stats, obs = bitonic[False]
        assert stats["intra_warp_instructions"]
        assert obs["dmr_pair_intra"] == stats["intra_warp_instructions"]
        assert obs["dmr_pair_intra_lanes"] == \
            stats["intra_warp_verified_lanes"]
        assert obs["dmr_shuffled_pairs"] == \
            stats["intra_warp_redundant_executions"]

    def test_inter_verify_counts_path_and_shuffle(self, bitonic):
        """bitonic replays full warps: the inter mirrors restate the
        checker's per-path counters, the Replay Checker re-executes
        whole 32-lane warps, and lane shuffling moves each of them."""
        for shuffle, (stats, obs) in bitonic.items():
            verified = stats["inter_warp_verified_instructions"]
            assert verified
            assert obs["dmr_pair_inter"] == verified
            assert obs["dmr_pair_inter_lanes"] == 32 * verified
            assert obs["dmr_enqueues"] == stats["replayq_enqueues"]
            for how in VERIFY_PATHS:
                assert obs.get(f"dmr_inter_{how}") == \
                    stats.get(f"inter_warp_verify_{how}")
            assert obs["dmr_shuffled_pairs"] == (
                stats["intra_warp_redundant_executions"]
                + (32 * verified if shuffle else 0))

    def test_enqueue_instant_records_depth(self):
        tracer = Tracer()
        registry = MetricsRegistry()
        probe = PipelineProbe(registry, sm_id=0, tracer=tracer)
        probe.on_enqueue(fake_event(), depth=3)
        assert registry.counters() == {}
        instant = next(e for e in tracer.to_payload()["traceEvents"]
                       if e["ph"] == "i")
        assert instant["args"]["depth"] == 3
