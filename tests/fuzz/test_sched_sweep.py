"""fig-sched over the checked-in corpus: cache resume and fan-out.

The sweep resolves its runs through the same cached fan-out as the
suite runner and the campaign engine, so it inherits the same
contract: a warm rerun into the same cache directory simulates nothing
and reproduces the rows exactly, and a parallel sweep equals the
serial one.  2 schedules (plus the policy baseline) x 4 kernels on one
SM keeps a cold sweep to a fraction of a second.
"""

from __future__ import annotations

from pathlib import Path

from repro.analysis.sched_sweep import format_fig_sched, run_fig_sched

CORPUS_DIR = Path(__file__).parent / "corpus"

SWEEP = dict(schedules=2, kernels=4, num_sms=1)
RUNS = (SWEEP["schedules"] + 1) * SWEEP["kernels"]


def test_warm_sweep_reuses_every_cold_run(tmp_path):
    cold = run_fig_sched(str(CORPUS_DIR), cache=tmp_path, jobs=1, **SWEEP)
    assert cold["simulated_runs"] == RUNS == 12
    assert cold["cached_runs"] == 0
    assert len(list(tmp_path.glob("*.pkl"))) == RUNS

    warm = run_fig_sched(str(CORPUS_DIR), cache=tmp_path, jobs=1, **SWEEP)
    assert warm["simulated_runs"] == 0
    assert warm["cached_runs"] == RUNS
    assert warm["rows"] == cold["rows"]
    assert format_fig_sched(warm) == format_fig_sched(cold)


def test_parallel_sweep_equals_serial():
    serial = run_fig_sched(str(CORPUS_DIR), cache=None, jobs=1, **SWEEP)
    parallel = run_fig_sched(str(CORPUS_DIR), cache=None, jobs=2, **SWEEP)
    assert parallel["simulated_runs"] == RUNS
    assert parallel["rows"] == serial["rows"]
