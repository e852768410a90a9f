"""Tests for the per-SM pipeline probe.

The probe is duck-typed over issue events, so these tests drive it with
a minimal stand-in instead of constructing real simulator events —
which also proves ``repro.obs`` needs nothing from ``repro.sim``.
"""

from types import SimpleNamespace

from repro.obs.metrics import MetricsRegistry
from repro.obs.probes import (
    DEPTH_BOUNDS,
    OCCUPANCY_BOUNDS,
    PipelineProbe,
    SCAN_BOUNDS,
)
from repro.obs.tracer import Tracer


def fake_event(cycle=3, warp_id=1, pc=8, active=16,
               opcode="IADD", unit="alu"):
    return SimpleNamespace(
        cycle=cycle, warp_id=warp_id, pc=pc, active_count=active,
        instruction=SimpleNamespace(opcode=SimpleNamespace(value=opcode)),
        unit=SimpleNamespace(value=unit),
    )


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

    def test_on_stall_counts_per_cause(self):
        registry = MetricsRegistry()
        probe = PipelineProbe(registry, sm_id=0)
        probe.on_stall("raw", 2, cycle=10)
        probe.on_stall("raw", 1, cycle=11)
        probe.on_stall("flush", 4, cycle=12)
        assert registry.value("stall_raw") == 3
        assert registry.value("stall_flush") == 4


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
    def test_intra_pairing(self):
        registry = MetricsRegistry()
        probe = PipelineProbe(registry, sm_id=0)
        probe.on_intra_pairing(fake_event(), verified_lanes=4,
                               redundant_executions=2)
        assert registry.value("dmr_pair_intra") == 1
        assert registry.value("dmr_pair_intra_lanes") == 4
        assert registry.value("dmr_shuffled_pairs") == 2

    def test_inter_verify_counts_path_and_shuffle(self):
        registry = MetricsRegistry()
        probe = PipelineProbe(registry, sm_id=0)
        probe.on_inter_verify(fake_event(active=8), "coexec", cycle=4,
                              shuffled=True)
        probe.on_inter_verify(fake_event(active=8), "drain_idle", cycle=5,
                              shuffled=False)
        assert registry.value("dmr_pair_inter") == 2
        assert registry.value("dmr_inter_coexec") == 1
        assert registry.value("dmr_inter_drain_idle") == 1
        assert registry.value("dmr_pair_inter_lanes") == 16
        assert registry.value("dmr_shuffled_pairs") == 8

    def test_enqueue_instant_records_depth(self):
        tracer = Tracer()
        registry = MetricsRegistry()
        probe = PipelineProbe(registry, sm_id=0, tracer=tracer)
        probe.on_enqueue(fake_event(), depth=3)
        assert registry.value("dmr_enqueues") == 1
        instant = next(e for e in tracer.to_payload()["traceEvents"]
                       if e["ph"] == "i")
        assert instant["args"]["depth"] == 3
