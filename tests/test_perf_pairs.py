"""The paired perfbench comparison's summary (``benchmarks/perf/pairs.py``)."""

from __future__ import annotations

import json

import pytest

from benchmarks.perf import pairs

BETTER = {"ops_per_s": "higher", "op_p90_ms": "lower",
          pairs.FIRST_PASS: "higher"}


def _pair(base_rate, change_rate, base_p90, change_p90):
    return {"base": {"ops_per_s": base_rate, "op_p90_ms": base_p90},
            "change": {"ops_per_s": change_rate, "op_p90_ms": change_p90}}


def test_summary_counts_wins_in_each_metrics_direction():
    runs = [_pair(30, 50, 70, 40), _pair(31, 49, 66, 44),
            _pair(29, 28, 69, 71), _pair(32, 51, 65, 39)]
    summary = pairs.summarize(runs, BETTER)
    rate, p90 = summary["ops_per_s"], summary["op_p90_ms"]
    assert (rate["wins"], rate["pairs"]) == (3, 4)
    assert (p90["wins"], p90["pairs"]) == (3, 4)
    assert rate["base_median"] == 30.5 and rate["change_median"] == 49.5
    assert rate["median_change"] == pytest.approx(49.5 / 30.5 - 1)
    assert rate["base_quartiles"] == [29.75, 31.25]
    assert p90["better"] == "lower" and p90["change_median"] == 42
    # no run reported a first-pass rate: the metric is left out
    assert pairs.FIRST_PASS not in summary


def test_a_tie_is_no_win_and_one_pair_has_degenerate_quartiles():
    summary = pairs.summarize([_pair(30, 30, 70, 70)], BETTER)
    assert summary["ops_per_s"]["wins"] == 0
    assert summary["op_p90_ms"]["base_quartiles"] == [70, 70]


def test_directions_come_from_the_benchmark_declaration():
    benchmark = {"end_to_end": [{"name": "ops_per_s", "better": "higher"},
                                {"name": "setup_s", "better": "lower"}]}
    assert pairs.directions(benchmark) == {
        "ops_per_s": "higher", "setup_s": "lower",
        pairs.FIRST_PASS: "higher"}


def test_parse_run_reads_the_last_line_and_the_first_pass():
    diagnostics = {"per_pass": [{"ops_per_s": 44.0}, {"ops_per_s": 50.0}]}
    stdout = "\n".join([
        "# diagnostics " + json.dumps(diagnostics),
        "ops_per_s 49.0 op/s",
        json.dumps({"correct": True, "attempted": 321, "failed": 0,
                    "metrics": {"ops_per_s": {"value": 49.0,
                                              "unit": "op/s"}}}),
    ])
    assert pairs.parse_run(stdout) == {
        "ops_per_s": 49.0, pairs.FIRST_PASS: 44.0, "correct": True}
