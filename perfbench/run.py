"""Fixed-work benchmark of the Warped-DMR reproduction.

Run from the root of a checkout::

    python3 perfbench/run.py --workload figures-cold --seed 1 \
        --seconds 15 --trace 0

``--seconds`` fixes the number of passes (one per 5 seconds, at least
one); each pass sets up a fresh cache or store and runs the workload's
whole op list.  The op list never depends on elapsed time.  With
``--trace 0`` the last stdout line holds the end-to-end metrics; with
``--trace 1`` a traced pass between two untraced ones gives the
per-layer metrics, and the spans are written under ``.perfbench_out/``.
Times are scaled to a reference host by a calibration loop run between
ops.
See ``perfbench/README.md``.
"""

import time

START = time.perf_counter()  # set-up time counts from here

import argparse  # noqa: E402
import functools  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import pathlib  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402

ROOT = pathlib.Path(__file__).resolve().parent.parent
if str(ROOT) not in sys.path:
    sys.path.insert(0, str(ROOT))

from perfbench import measure, spans  # noqa: E402  (neither imports repro)

DIGESTS = ROOT / "perfbench" / "digests.json"
SCRATCH = ROOT / ".perfbench_tmp"
OUT = ROOT / ".perfbench_out"

#: nominal measured seconds of one pass: ``--seconds`` maps to passes
PASS_SECONDS = 5

WORKLOADS = ("figures-cold", "campaign-cold", "serve-warm")

#: (name, unit) of every end-to-end metric, in print order
END_TO_END = [
    ("setup_s", "s"),
    ("ops_per_s", "op/s"),
    ("op_p50_ms", "ms"),
    ("op_p90_ms", "ms"),
    ("cpu_ms_per_op", "ms"),
    ("peak_rss_mb", "MB"),
    ("disk_kb_per_op", "KB"),
    ("success_ratio", "ratio"),
]


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0,
                        help="permutes the ops (serve-warm: picks epochs)")
    parser.add_argument("--seconds", type=int, default=15,
                        help=f"passes = seconds / {PASS_SECONDS}, at least 1")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write-digests", action="store_true",
                        help="record this code's op output digests in "
                             "perfbench/digests.json instead of checking")
    return parser.parse_args(argv)


def pin_environment(scratch: pathlib.Path) -> None:
    """Every cache, store and temp file goes under *scratch*."""
    for name in ("REPRO_EXEC", "REPRO_OBS", "REPRO_JOBS"):
        os.environ.pop(name, None)
    os.environ["REPRO_CACHE_DIR"] = str(scratch / "default-cache")
    (scratch / "tmp").mkdir(parents=True)
    os.environ["TMPDIR"] = str(scratch / "tmp")
    tempfile.tempdir = None


def import_program():
    """Import every module the workloads reach, so set-up of each pass
    does the same work; returns the workloads module."""
    sys.path.insert(0, str(ROOT / "src"))
    from perfbench import ops
    import repro.baselines.secded  # noqa: F401  (imported lazily by SECDED runs)
    import repro.power.model  # noqa: F401  (fig11)
    import repro.service.health  # noqa: F401  (worker janitor)
    ops.service_jobs.figure_registry()
    return ops


def run_pass(make_pass, root, probe, expected, recorded, recorder=None):
    """Set up and run one pass; returns its timings and failures.

    A calibration sample taken before each op (outside its timing)
    gives the host speed that scales the op's wall and CPU time.
    """
    started = time.perf_counter()
    bench_pass = make_pass(root)
    setup_s = time.perf_counter() - started
    walls, cpus, samples, failures = [], [], [], []
    for op in bench_pass.ops:
        samples.append(measure.calibration_sample())
        launches = probe.launches
        span = recorder.begin_op(op.id) if recorder else None
        cpu0, wall0 = time.process_time(), time.perf_counter()
        try:
            raw, error = op.call(), None
        except Exception as exc:  # noqa: BLE001 — a failed op is counted
            raw, error = None, f"{type(exc).__name__}: {exc}"
        wall1, cpu1 = time.perf_counter(), time.process_time()
        if span is not None:
            recorder.end_op(span)
        walls.append(wall1 - wall0)
        cpus.append(cpu1 - cpu0)
        if error is None:
            error = check_op(op, raw, expected, recorded,
                             probe.launches - launches, bench_pass.simulates)
        if error is not None:
            failures.append({"op": op.id, "error": error})
            print(f"FAILED {op.id}: {error}", flush=True)
    factors = measure.speed_factors(samples)
    store = bench_pass.store
    return {
        "setup_s": setup_s,
        "samples": samples,
        "wall_s": walls,
        "latencies": [w * f for w, f in zip(walls, factors)],
        "cpu_s": sum(c * f for c, f in zip(cpus, factors)),
        "failures": failures,
        "disk_bytes": measure.tree_bytes(root),
        "files": measure.tree_files(root),
        "jobs_stored": len(store.list_jobs()) if store else 0,
        "quarantined": (store.registry.value("store_quarantined")
                        if store else 0),
    }


def check_op(op, raw, expected, recorded, launches, simulates):
    """``None`` if the op's output is right, else why it is not."""
    if not simulates and launches:
        return f"{launches} simulation(s) in a warm op"
    got = measure.digest(op.output(raw))
    if recorded is not None:
        recorded[op.expect] = got
        return None
    want = expected.get(op.expect)
    if want is None:
        return "no expected digest recorded for this op"
    if got != want:
        return f"output digest {got[:16]} != expected {want[:16]}"
    return None


def ops_per_s(result, key="latencies") -> float:
    return len(result[key]) / sum(result[key])


def end_to_end(passes, import_s):
    """The end-to-end metrics; times are reference-host times."""
    latencies = [t for p in passes for t in p["latencies"]]
    attempted = len(latencies)
    failed = sum(len(p["failures"]) for p in passes)
    per_pass = [len(p["latencies"]) for p in passes]
    # set-up is scaled by the run's host speed: a few samples next to a
    # fresh interpreter's imports track it worse than the whole run does
    speed = measure.REFERENCE_CALIBRATION_S / statistics.median(
        s for p in passes for s in p["samples"])
    return {
        "setup_s": speed * (import_s + statistics.median(
            p["setup_s"] for p in passes)),
        "ops_per_s": statistics.median(ops_per_s(p) for p in passes),
        "op_p50_ms": 1e3 * measure.percentile(latencies, 50),
        "op_p90_ms": 1e3 * measure.percentile(latencies, 90),
        "cpu_ms_per_op": statistics.median(
            1e3 * p["cpu_s"] / n for p, n in zip(passes, per_pass)),
        "peak_rss_mb": resource.getrusage(
            resource.RUSAGE_SELF).ru_maxrss / 1024,
        "disk_kb_per_op": statistics.median(
            p["disk_bytes"] / 1024 / n for p, n in zip(passes, per_pass)),
        "success_ratio": (attempted - failed) / attempted,
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program to measure: {ROOT / 'src' / 'repro'} "
              f"is missing", file=sys.stderr)
        return 2
    scratch = SCRATCH / f"{args.workload}-{os.getpid()}"
    try:
        pin_environment(scratch)
        return measure_workload(args, scratch)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)


def measure_workload(args, scratch: pathlib.Path) -> int:
    ops = import_program()
    import_s = time.perf_counter() - START
    expected = json.loads(DIGESTS.read_text()).get(args.workload, {}) \
        if DIGESTS.is_file() else {}
    recorded = {} if args.write_digests else None
    passes = 1 if args.trace else max(1, round(args.seconds / PASS_SECONDS))

    probe = spans.Probe()
    probe.install_counter()
    diagnostics = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "passes": passes, "code": measure.code_version(ROOT),
        "python": platform.python_version(), "import_s": import_s,
        "before": dict(measure.host_info(),
                       calibration_ms=measure.calibration_ms()),
    }

    make_pass = functools.partial(ops.WORKLOADS[args.workload],
                                  seed=args.seed)

    def one_pass(index, recorder=None):
        return run_pass(make_pass, scratch / f"pass{index}", probe,
                        expected, recorded, recorder)

    results = [one_pass(index) for index in range(passes)]
    if not args.trace:
        metrics = end_to_end(results, import_s)
        units = dict(END_TO_END)
    else:
        recorder = spans.Recorder()
        probe.install_tracing(recorder)
        traced = one_pass(passes, recorder)
        probe.uninstall()
        # untraced passes on both sides, so warm-up does not bias the
        # tracing overhead
        results += [traced, one_pass(passes + 1)]
        metrics = spans.layer_metrics(
            recorder, len(traced["latencies"]),
            speed=measure.REFERENCE_CALIBRATION_S
            / statistics.median(traced["samples"]),
            traced_ops_per_s=ops_per_s(traced),
            untraced_ops_per_s=statistics.mean(
                ops_per_s(results[i]) for i in (0, -1)),
            jobs_stored=traced["jobs_stored"],
            quarantined=traced["quarantined"])
        units = {name: unit for name, unit, _ in spans.PER_LAYER}
        out = OUT / f"{args.workload}-seed{args.seed}"
        out.mkdir(parents=True, exist_ok=True)
        spans.write_chrome_trace(recorder, str(out / "trace.json"),
                                 args.workload)
        table = spans.folded_table(recorder, len(traced["latencies"]))
        (out / "layers.json").write_text(json.dumps(table, indent=2))
        for layer, row in table["layers"].items():
            print(f"layer {layer:<14} {row['wall_self_ms_per_op']:10.3f} "
                  f"ms/op  {100 * row['share']:5.1f}%")
        print(f"trace written to {out}")

    diagnostics["after"] = dict(measure.host_info(),
                                calibration_ms=measure.calibration_ms())
    diagnostics["per_pass"] = [
        {"setup_s": p["setup_s"], "ops": len(p["latencies"]),
         "ops_per_s": ops_per_s(p), "host_ops_per_s": ops_per_s(p, "wall_s"),
         "calibration_ms": 1e3 * statistics.median(p["samples"]),
         "files": p["files"], "disk_bytes": p["disk_bytes"],
         "failures": p["failures"]}
        for p in results]
    print("# diagnostics " + json.dumps(diagnostics, sort_keys=True))
    if recorded is not None:
        table = json.loads(DIGESTS.read_text()) if DIGESTS.is_file() else {}
        table[args.workload] = dict(sorted(recorded.items()))
        DIGESTS.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n")
        print(f"recorded {len(recorded)} digests in {DIGESTS}")

    attempted = sum(len(p["latencies"]) for p in results)
    failed = sum(len(p["failures"]) for p in results)
    for name, value in metrics.items():
        print(f"{name:<28} {value:>14.6g} {units[name]}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
