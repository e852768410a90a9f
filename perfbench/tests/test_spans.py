"""Span folding, the wrappers' install/uninstall, and the metric list."""

import json

import pytest

from perfbench import spans
from perfbench.spans import Span, fold

from .conftest import ROOT


def _span(id, name, parent, start, end, op="op-1", cpu=None):
    cpu_start, cpu_end = cpu or (start, end)
    return Span(id, name, op, parent, start, cpu_start, end, cpu_end)


def test_self_time_subtracts_nested_children_and_leaves():
    trace = [
        _span(0, "op", None, 0.0, 10.0),
        _span(1, "analysis.runner", 0, 1.0, 7.0, cpu=(1.0, 6.0)),
        _span(2, "sim.launch", 1, 2.0, 4.0),
        _span(3, "result_cache.put", 0, 8.0, 9.0, cpu=(8.0, 8.25)),
    ]
    leaves = {(1, "op-1", "core.on_issue"): [40, 1.0]}
    rows = fold(trace, leaves)
    assert rows["op"].wall == pytest.approx(10 - 6 - 1)
    assert rows["analysis.runner"].wall == pytest.approx(6 - 2 - 1)
    assert rows["analysis.runner"].cpu == pytest.approx(5 - 2 - 1)
    assert rows["sim.launch"].wall == pytest.approx(2)
    assert rows["core.on_issue"].calls == 40
    assert rows["core.on_issue"].wall == pytest.approx(1)
    assert rows["result_cache.put"].wait == pytest.approx(0.75)
    total = sum(row.wall for row in rows.values())
    assert total == pytest.approx(10)  # self times partition the op


def test_fold_can_skip_setup_spans():
    trace = [
        _span(0, "faults.golden", None, 0.0, 1.0, op=spans.SETUP),
        _span(1, "op", None, 1.0, 2.0),
    ]
    rows = fold(trace, {}, include=lambda op: op != spans.SETUP)
    assert set(rows) == {"op"}


def test_recorder_nests_spans_by_call_stack():
    recorder = spans.Recorder()
    op = recorder.begin_op("cell/1")
    outer = recorder.start("analysis.runner")
    inner = recorder.start("sim.launch")
    recorder.leaf("core.on_issue", 0.0)
    recorder.finish(inner)
    recorder.finish(outer)
    recorder.end_op(op)
    assert [s.parent for s in recorder.spans] == [None, op.id, outer.id]
    assert {s.op for s in recorder.spans} == {"cell/1"}
    assert list(recorder.leaves) == [(inner.id, "cell/1", "core.on_issue")]
    assert recorder.op == spans.SETUP


def test_a_call_that_raises_keeps_its_span_marked():
    probe = spans.Probe()
    probe.recorder = spans.Recorder()

    def hang():
        raise TimeoutError("watchdog")
    with pytest.raises(TimeoutError):
        probe._span("sim.launch")(hang)()
    assert [s.name for s in probe.recorder.spans] == ["sim.launch.raised"]
    assert probe.recorder.spans[0].wall1 >= probe.recorder.spans[0].wall0


def test_tracing_wraps_public_calls_and_uninstalls_cleanly(monkeypatch):
    from repro.analysis.runner import SuiteRunner
    from repro.common.config import DMRConfig
    from repro.sim.gpu import GPU

    # the launch counter stays for the process: restore GPU afterwards
    monkeypatch.setattr(GPU, "launch", GPU.__dict__["launch"])
    probe = spans.Probe()
    probe.install_counter()
    counted = GPU.__dict__["launch"]
    recorder = spans.Recorder()
    probe.install_tracing(recorder)
    try:
        runner = SuiteRunner(scale=0.1)
        op = recorder.begin_op("cell")
        runner.run("scan", DMRConfig.paper_default())
        recorder.end_op(op)
    finally:
        probe.uninstall()
    assert GPU.__dict__["launch"] is counted
    assert probe.launches == 1
    # untraced passes after the traced one still count their launches
    traced = len(recorder.spans)
    SuiteRunner(scale=0.1).run("scan", DMRConfig.disabled())
    assert probe.launches == 2
    assert len(recorder.spans) == traced
    by_name = {s.name: s for s in recorder.spans}
    launch = by_name["sim.launch"]
    assert recorder.spans[launch.parent].name == "analysis.runner"
    assert recorder.counts["sim.launches"] == 1
    assert recorder.counts["sim.thread_instructions"] > 0
    assert any(name == "core.on_issue" for _, _, name in recorder.leaves)
    assert recorder.counts["analysis.simulations"] == 1


def test_benchmark_json_lists_exactly_the_per_layer_metrics():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = [(m["name"], m["unit"], m["better"])
                for m in bench["per_layer"]]
    assert declared == spans.PER_LAYER
    values = spans.layer_metrics(
        spans.Recorder(), 1, speed=1.0, traced_ops_per_s=1.0,
        untraced_ops_per_s=1.0, jobs_stored=0, quarantined=0)
    assert sorted(values) == sorted(name for name, _, _ in spans.PER_LAYER)
