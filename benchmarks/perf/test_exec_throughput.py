"""Perf gate: the fast engine must beat the scalar interpreter.

Not collected by the default pytest run (``testpaths`` excludes
``benchmarks/``); CI's perf-smoke job runs this file explicitly and
uploads the emitted ``BENCH_exec.json``.

The gates are deliberately far below the locally measured speedups
(fast lands 9-15x over scalar on the throughput microbenches, and its
region fusion 1.4-2.4x over per-issue vectorization alone without DMR
and 1.1-1.5x under the paper's timing-only DMR, see EXPERIMENTS.md):
shared CI runners are noisy, and the gate's job is to
catch an engine silently degrading (a decode-cache miss, an accidental
per-issue fallback, a region that stopped fusing), not to certify a
precise ratio.
"""

from __future__ import annotations

import json
import math
import pathlib

import pytest

from repro.analysis.bench import (_MICROBENCHES, _time_launch,
                                  bench_throughput, run_bench,
                                  write_bench_json)
from repro.common.config import DMRConfig, LaunchConfig

from tests.conftest import fusion_disabled

#: per-kernel floor and geometric-mean floor for scalar-time/fast-time
MIN_SPEEDUP_EACH = 2.0
MIN_SPEEDUP_GEOMEAN = 3.0
#: geometric-mean floor for unfused-time/fused-time of the fast engine —
#: region fusion must stay a measurable win over per-issue vectorization
MIN_FUSED_VS_UNFUSED_GEOMEAN = 1.15

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


#: the launch geometry of :func:`bench_throughput`
LAUNCH = LaunchConfig(grid_dim=2, block_dim=128)

#: fused/unfused timings per kernel under DMR, alternated; the best of
#: each is kept
DMR_REPEATS = 3


@pytest.fixture(scope="module")
def unfused_seconds() -> dict:
    """The fast engine per microbench with region fusion gated off.

    Fusion is no option of the program; the test patches it off to
    time per-issue vectorization alone, over the same launch geometry
    as :func:`bench_throughput`.
    """
    with fusion_disabled():
        return {name: _time_launch(build(ITERS), LAUNCH, "fast")[0]
                for name, build in _MICROBENCHES.items()}


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


def test_fusion_beats_unfused_geomean(throughput, unfused_seconds):
    """Region fusion must add speed on top of per-issue vectorization.

    Gated on the geomean (not per kernel): the fused-vs-unfused margin
    is the difference of two fast paths, so per-kernel noise is large
    relative to the signal.
    """
    ratios = [unfused_seconds[name] / entry["fast"]["seconds"]
              for name, entry in throughput.items()]
    geomean = _geomean(ratios)
    assert geomean >= MIN_FUSED_VS_UNFUSED_GEOMEAN, (
        f"fused-vs-unfused geomean {geomean:.2f}x below the "
        f"{MIN_FUSED_VS_UNFUSED_GEOMEAN}x floor: {ratios}; "
        "did regions stop fusing?"
    )


def test_fusion_beats_unfused_under_dmr_geomean():
    """Fusion must also pay on the paper's path: a fault-free Warped-DMR
    run whose controller only times and counts reads no lane values,
    so its regions fuse and its issues record none (DESIGN.md §10);
    patched off, it runs per issue and records them, as it used to.

    The DMR controller's per-issue work is the same on both sides,
    which narrows the margin, so each side keeps the best of
    :data:`DMR_REPEATS` alternated runs.
    """
    dmr = DMRConfig.paper_default()
    ratios = []
    for build in _MICROBENCHES.values():
        fused, unfused = [], []
        for _ in range(DMR_REPEATS):
            fused.append(_time_launch(build(ITERS), LAUNCH, "fast", dmr)[0])
            with fusion_disabled():
                unfused.append(
                    _time_launch(build(ITERS), LAUNCH, "fast", dmr)[0])
        ratios.append(min(unfused) / min(fused))
    geomean = _geomean(ratios)
    assert geomean >= MIN_FUSED_VS_UNFUSED_GEOMEAN, (
        f"fused-vs-unfused geomean under DMR {geomean:.2f}x below the "
        f"{MIN_FUSED_VS_UNFUSED_GEOMEAN}x floor: {ratios}; "
        "is fusion gated off under timing-only DMR again?"
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
