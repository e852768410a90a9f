"""serve-warm determinism and the run contract."""

import itertools
import json
import shutil
import subprocess
import sys
import time

import pytest

from perfbench import measure, ops

from .conftest import ROOT


def _run_serve_warm(root, seed):
    bench_pass = ops.serve_warm(root, seed)
    digests = [(op.id, measure.digest(op.output(op.call())))
               for op in bench_pass.ops]
    return digests, measure.tree_files(root)


def test_serve_warm_repeats_exactly_whatever_the_clock(tmp_path,
                                                       monkeypatch):
    monkeypatch.setattr(ops, "SERVE_WARM_OPS", 10)  # a short warm run
    first = _run_serve_warm(tmp_path / "a", seed=3)

    # a clock that leaps a minute on every read must change nothing
    ticks = itertools.count()
    with pytest.MonkeyPatch.context() as clock:
        for name in ("time", "monotonic", "perf_counter"):
            real = getattr(time, name)
            clock.setattr(time, name,
                          lambda real=real: real() + 60.0 * next(ticks))
        second = _run_serve_warm(tmp_path / "b", seed=3)

    assert first == second
    assert len(first[0]) == 10
    expected = json.loads((ROOT / "perfbench" / "digests.json")
                          .read_text())["serve-warm"]
    labels = ops.serve_jobs()
    for index, (_, digest) in enumerate(first[0]):
        assert digest == expected[labels[index % len(labels)]]


def test_without_the_program_the_benchmark_fails_without_a_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "figures-cold",
         "--seed", "1", "--seconds", "15", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
