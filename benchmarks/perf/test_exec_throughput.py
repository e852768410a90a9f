"""Perf gate: the fast engine must beat the scalar interpreter.

Not collected by the default pytest run (``testpaths`` excludes
``benchmarks/``); CI's perf-smoke job runs this file explicitly and
uploads the emitted ``BENCH_exec.json``.

The gates are deliberately far below the locally measured speedups
(fast lands 6-12x over scalar on the throughput microbenches, see
EXPERIMENTS.md, "Deleting region fusion"): shared CI runners are
noisy, and the gate's job is to catch an engine silently degrading (a
decode-cache miss, an accidental scalar fallback), not to certify a
precise ratio.
"""

from __future__ import annotations

import json
import math
import pathlib

import pytest

from repro.analysis.bench import bench_throughput, run_bench, write_bench_json

#: per-kernel floor and geometric-mean floor for scalar-time/fast-time
MIN_SPEEDUP_EACH = 2.0
MIN_SPEEDUP_GEOMEAN = 3.0

#: iterations per microbench kernel: enough work (~600k
#: thread-instructions per engine) that interpreter startup noise is
#: amortized, small enough for a smoke job
ITERS = 120

RESULTS_DIR = pathlib.Path(__file__).resolve().parents[1] / "results"


def _geomean(values):
    return math.exp(sum(map(math.log, values)) / len(values))


@pytest.fixture(scope="module")
def throughput() -> dict:
    return bench_throughput(iters=ITERS)


def test_fast_engine_beats_scalar_per_kernel(throughput):
    slow = {name: entry["speedup"] for name, entry in throughput.items()
            if entry["speedup"] < MIN_SPEEDUP_EACH}
    assert not slow, (
        f"fast engine under {MIN_SPEEDUP_EACH}x on {slow}; "
        "did an opcode fall off the vectorized path?"
    )


def test_fast_engine_geomean_gate(throughput):
    speedups = [entry["speedup"] for entry in throughput.values()]
    geomean = _geomean(speedups)
    assert geomean >= MIN_SPEEDUP_GEOMEAN, (
        f"geomean speedup {geomean:.2f}x below the "
        f"{MIN_SPEEDUP_GEOMEAN}x gate: {speedups}"
    )


def test_emit_bench_json(tmp_path_factory):
    """Produce the machine-readable artifact CI archives."""
    RESULTS_DIR.mkdir(exist_ok=True)
    payload = run_bench(quick=True, iters=ITERS)
    path = write_bench_json(payload, str(RESULTS_DIR / "BENCH_exec.json"))
    with open(path, encoding="utf-8") as handle:
        loaded = json.load(handle)
    assert loaded["benchmark"] == "exec-engine"
    assert loaded["engines"] == ["scalar", "fast"]
    assert set(loaded["throughput"]) == {"int_alu", "float_alu", "sfu"}
