"""Perf gate: the metrics-disabled path must cost (almost) nothing.

Not collected by the default pytest run (``testpaths`` excludes
``benchmarks/``); CI's perf job runs ``benchmarks/perf/`` explicitly,
so ``test_exec_throughput.py`` regenerates ``BENCH_exec.json`` on the
same runner moments before this file compares against it.

The observability design promise is that *disabled* observability is
free: no probe objects exist, the hot loops check one attribute against
``None``, and the default ``GPU()`` resolves to obs-off.  The gates
here defend that promise:

* the default ``GPU()`` is ``obs=False``: it creates no session even
  with ``$REPRO_OBS`` asking for metrics — this is the regression class
  the subsystem introduces (an env leak or a default flip silently
  turning metrics on for every user).  The two are one configuration,
  so their timing gap (``default_vs_off`` in ``BENCH_obs.json``) is
  host noise and is reported, not gated;
* the disabled path must stay within 2% of the ``BENCH_exec.json``
  baseline throughput when that baseline was measured on this machine
  (skipped with an explanation when it clearly was not);
* metrics-*enabled* overhead is measured and bounded loosely (it buys
  per-cycle gauges and DMR attribution; it is allowed to cost, just
  not silently explode), and everything is written to
  ``BENCH_obs.json`` for trend tracking.
"""

from __future__ import annotations

import json
import pathlib
import time

import pytest

from repro.analysis.bench import _MICROBENCHES
from repro.common.config import LaunchConfig
from repro.obs import OBS_ENV
from repro.sim import replay
from repro.sim.gpu import GPU

#: disabled-path tolerance (the acceptance criterion)
DISABLED_TOLERANCE = 0.02

#: enabled metrics may cost, but a silent blowup should fail the gate
MAX_METRICS_OVERHEAD = 0.60

#: baseline files measured on a different machine are skipped, not failed
FOREIGN_MACHINE_BAND = 0.30

REPEATS = 7
ITERS = 120

#: baselines older than this were not written by this perf session
BASELINE_MAX_AGE_S = 3600

RESULTS_DIR = pathlib.Path(__file__).resolve().parents[1] / "results"

#: the timed configurations; trials interleave them round-robin so
#: machine drift (thermal, noisy neighbors) hits every config equally
CONFIGS = {
    "off": {"obs": False},
    "default": {},            # GPU(): obs=False, $REPRO_OBS unread
    "metrics": {"obs": "metrics"},
}


def _interleaved_min_times(program, launch, repeats: int = REPEATS):
    """Min-of-N wall time per config, trials interleaved round-robin.

    Each trial drops the program's replay record first, so every timed
    launch executes instead of replaying the previous trial's.
    """
    best = {key: float("inf") for key in CONFIGS}
    insts = 0
    for _ in range(repeats):
        for key, kwargs in CONFIGS.items():
            gpu = GPU(**kwargs)
            replay.forget(program)
            start = time.perf_counter()
            result = gpu.launch(program, launch)
            best[key] = min(best[key], time.perf_counter() - start)
            insts = result.stats.value("thread_instructions")
    return best, insts


@pytest.fixture(scope="module")
def measurements():
    launch = LaunchConfig(grid_dim=2, block_dim=128)
    report = {}
    for name, build in _MICROBENCHES.items():
        program = build(ITERS)
        best, insts = _interleaved_min_times(program, launch)
        report[name] = {
            "thread_instructions": insts,
            "seconds_obs_off": best["off"],
            "seconds_default": best["default"],
            "seconds_metrics": best["metrics"],
            "minst_per_s_off": insts / best["off"] / 1e6,
            "default_vs_off": best["default"] / best["off"] - 1.0,
            "metrics_overhead": best["metrics"] / best["off"] - 1.0,
        }
    return report


def test_default_gpu_matches_explicit_obs_off(monkeypatch):
    """``GPU()`` (the path every benchmark and figure takes) resolves to
    the same no-probe path as an explicit ``obs=False``, whatever
    ``$REPRO_OBS`` says; only ``obs=None`` defers to it."""
    monkeypatch.setenv(OBS_ENV, "metrics")
    assert GPU(obs=None).obs is not None, "the environment must be live"
    gpu = GPU()
    assert gpu.obs is None, (
        "default GPU() reads $REPRO_OBS: is observability accidentally "
        "enabled by default?")
    result = gpu.launch(_MICROBENCHES["int_alu"](1), LaunchConfig(1, 32))
    assert result.obs is None


def test_disabled_path_tracks_exec_baseline(measurements):
    """Within 2% of the BENCH_exec.json throughput on the same machine."""
    baseline_path = RESULTS_DIR / "BENCH_exec.json"
    if not baseline_path.exists():
        pytest.skip("no BENCH_exec.json baseline (run test_exec_throughput)")
    age = time.time() - baseline_path.stat().st_mtime
    if age > BASELINE_MAX_AGE_S:
        pytest.skip(
            f"BENCH_exec.json is {age / 3600:.1f}h old — not produced by "
            "this perf session; run benchmarks/perf/ together so "
            "test_exec_throughput regenerates it on this machine"
        )
    baseline = json.loads(baseline_path.read_text(encoding="utf-8"))
    throughput = baseline.get("throughput", {})

    for name, entry in measurements.items():
        recorded = throughput.get(name, {}).get("fast", {}).get("minst_per_s")
        if not recorded:
            continue
        current = entry["minst_per_s_off"]
        drift = abs(current / recorded - 1.0)
        if drift > FOREIGN_MACHINE_BAND:
            pytest.skip(
                f"BENCH_exec.json was measured on different hardware "
                f"({name}: {recorded:.2f} vs {current:.2f} Minst/s)"
            )
        assert current >= recorded * (1.0 - DISABLED_TOLERANCE), (
            f"{name}: obs-off throughput {current:.2f} Minst/s fell "
            f">{DISABLED_TOLERANCE:.0%} below the exec baseline "
            f"{recorded:.2f}"
        )


def test_metrics_overhead_bounded(measurements):
    hot = {name: f"{entry['metrics_overhead']:+.1%}"
           for name, entry in measurements.items()
           if entry["metrics_overhead"] > MAX_METRICS_OVERHEAD}
    assert not hot, (
        f"metrics-enabled overhead beyond {MAX_METRICS_OVERHEAD:.0%}: "
        f"{hot} — did a per-cycle probe hook grow a hidden cost?"
    )


def test_emit_bench_json(measurements):
    """Produce the machine-readable artifact CI archives."""
    RESULTS_DIR.mkdir(exist_ok=True)
    payload = {
        "benchmark": "obs-overhead",
        "repeats": REPEATS,
        "iters": ITERS,
        "tolerance_disabled": DISABLED_TOLERANCE,
        "kernels": measurements,
    }
    path = RESULTS_DIR / "BENCH_obs.json"
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)
        handle.write("\n")
    loaded = json.loads(path.read_text(encoding="utf-8"))
    assert loaded["benchmark"] == "obs-overhead"
    assert set(loaded["kernels"]) == set(_MICROBENCHES)
