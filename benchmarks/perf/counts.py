"""Deterministic cost counts of the perfbench workloads.

    PYTHONPATH=src python3 benchmarks/perf/counts.py [--out PATH]

For each perfbench workload (``perfbench/ops.py``) at seed 1, a fresh
process sets up and runs two passes and profiles the ops of the second
with :mod:`cProfile` (set-up excluded, so every process-level memo is
warm).  It records that pass's call total over all frames and over the
frames under ``src/repro``, and the launches, warp instructions and
simulated cycles of the pass's launches, which a ``GPU.launch``
wrapper installed here keeps.  The counts do not drift with the host, so a
change to the hot path shows its count delta in its own diff of
``benchmarks/results/BENCH_counts.json``; they may differ between
Python or NumPy versions, which the file names.  The file holds no
commit, time or host field.  Wall-clock speed is what
``benchmarks/perf/pairs.py`` measures.
"""

from __future__ import annotations

import argparse
import cProfile
import json
import os
import pathlib
import platform
import pstats
import subprocess
import sys
import tempfile

ROOT = pathlib.Path(__file__).resolve().parents[2]
RESULTS = ROOT / "benchmarks" / "results" / "BENCH_counts.json"
SEED = 1
WORKLOADS = ("figures-cold", "campaign-cold", "serve-warm")


def keep_launches(results: list) -> None:
    """Wrap ``GPU.launch`` to append each launch's result to *results*
    (read after profiling, so the wrapper calls nothing in ``repro``)."""
    from repro.sim.gpu import GPU

    launch = GPU.launch

    def kept(*args, **kwargs):
        result = launch(*args, **kwargs)
        results.append(result)
        return result
    GPU.launch = kept


def count_workload(name: str, root: pathlib.Path) -> dict:
    """Counts of the second of two passes of workload *name*."""
    from perfbench import ops

    results: list = []
    keep_launches(results)
    profile = cProfile.Profile()
    for index in range(2):
        bench_pass = ops.WORKLOADS[name](root / f"pass{index}", seed=SEED)
        results.clear()
        if index == 1:
            profile.enable()
        for op in bench_pass.ops:
            op.call()
        if index == 1:
            profile.disable()
    src = str(ROOT / "src" / "repro") + os.sep
    calls = src_calls = 0
    for (filename, _, _), row in pstats.Stats(profile).stats.items():
        calls += row[1]
        if filename.startswith(src):
            src_calls += row[1]
    return {
        "ops": len(bench_pass.ops),
        "calls": calls,
        "calls_src_repro": src_calls,
        "launches": len(results),
        "warp_instructions": sum(result.instructions_issued
                                 for result in results),
        "cycles": sum(result.cycles for result in results),
    }


def child(name: str) -> None:
    """Count *name* in this process, hermetically; print JSON."""
    for variable in ("REPRO_EXEC", "REPRO_OBS", "REPRO_JOBS"):
        os.environ.pop(variable, None)
    with tempfile.TemporaryDirectory(prefix="counts-") as scratch:
        root = pathlib.Path(scratch)
        os.environ["REPRO_CACHE_DIR"] = str(root / "default-cache")
        for path in (ROOT, ROOT / "src"):
            sys.path.insert(0, str(path))
        print(json.dumps(count_workload(name, root / "work")))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", type=pathlib.Path, default=RESULTS)
    parser.add_argument("--workload", choices=WORKLOADS,
                        help=argparse.SUPPRESS)  # one child's workload
    args = parser.parse_args(argv)
    if args.workload:
        child(args.workload)
        return 0
    import numpy

    counts = {}
    for name in WORKLOADS:
        out = subprocess.run(
            [sys.executable, __file__, "--workload", name],
            check=True, capture_output=True, text=True).stdout
        counts[name] = json.loads(out.splitlines()[-1])
        print(f"{name:<14} " + "  ".join(
            f"{key}={value}" for key, value in counts[name].items()))
    report = {
        "seed": SEED,
        "python": ".".join(platform.python_version_tuple()[:2]),
        "numpy": numpy.__version__,
        "workloads": counts,
    }
    args.out.write_text(json.dumps(report, indent=1, sort_keys=True) + "\n")
    print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
