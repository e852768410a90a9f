"""Paired perfbench comparison of a base revision against the change.

    python3 benchmarks/perf/pairs.py --base REV --workload W --pairs N
        [--seconds 15] [--seed 1]

Each pair runs ``perfbench/run.py --trace 0`` once from a checkout of
the base and once from the change, with one seed for both, and
alternates which of the two goes first; pair *i* uses seed
``--seed + i``.  Checkouts are extracted with ``git archive`` into a
temporary directory, so a run leaves nothing in the repository.  The
change is the working tree holding this script; with uncommitted edits
its commit is recorded as ``HEAD+working-tree``, beside a SHA-256 of
its sources.

Per end-to-end metric of ``BENCHMARK.json`` (its ``better`` gives the
direction), and for the first pass's ``ops_per_s`` (``per_pass[0]`` of
perfbench's ``# diagnostics`` line), the summary holds each side's
median and quartiles, the median change and how many pairs the change
won.  It is written, with both commits, the CPU count, the Python
version and the seeds, under the workload's name in
``benchmarks/results/BENCH_perfbench.json``; ``--report`` prints that
file as the markdown tables EXPERIMENTS.md quotes.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import pathlib
import platform
import statistics
import subprocess
import sys
import tempfile
from typing import Dict, List

ROOT = pathlib.Path(__file__).resolve().parents[2]
RESULTS = ROOT / "benchmarks" / "results" / "BENCH_perfbench.json"

#: the first pass's op rate: a fresh process's process-level memos are
#: all cold there, as in a user's one-off command
FIRST_PASS = "first_pass_ops_per_s"


def directions(benchmark: dict) -> Dict[str, str]:
    """Metric name -> ``"higher"`` or ``"lower"`` (the better way)."""
    found = {metric["name"]: metric["better"]
             for metric in benchmark["end_to_end"]}
    found[FIRST_PASS] = "higher"
    return found


def _quartiles(values: List[float]):
    if len(values) == 1:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q3


def summarize(pairs: List[dict], better: Dict[str, str]) -> Dict[str, dict]:
    """Per metric: medians, quartiles, median change and wins.

    *pairs* hold a ``"base"`` and a ``"change"`` run, each a dict of
    metric values; a pair counts as a win when the change is strictly
    better in the metric's direction.
    """
    summary = {}
    for name, direction in better.items():
        base = [pair["base"][name] for pair in pairs
                if name in pair["base"] and name in pair["change"]]
        change = [pair["change"][name] for pair in pairs
                  if name in pair["base"] and name in pair["change"]]
        if not base:
            continue
        sign = 1 if direction == "higher" else -1
        wins = sum(sign * (c - b) > 0 for b, c in zip(base, change))
        base_median = statistics.median(base)
        change_median = statistics.median(change)
        summary[name] = {
            "better": direction,
            "base_median": base_median,
            "base_quartiles": list(_quartiles(base)),
            "change_median": change_median,
            "change_quartiles": list(_quartiles(change)),
            "median_change": (change_median / base_median - 1
                              if base_median else None),
            "wins": wins,
            "pairs": len(base),
        }
    return summary


def parse_run(stdout: str) -> dict:
    """The metric values, first-pass rate and correctness of one
    perfbench run, from its standard output."""
    lines = stdout.strip().splitlines()
    report = json.loads(lines[-1])
    values = {name: entry["value"]
              for name, entry in report["metrics"].items()}
    for line in lines:
        if line.startswith("# diagnostics "):
            diagnostics = json.loads(line[len("# diagnostics "):])
            values[FIRST_PASS] = diagnostics["per_pass"][0]["ops_per_s"]
    values["correct"] = report["correct"] and report["failed"] == 0
    return values


def sources_sha256(root: pathlib.Path) -> str:
    """SHA-256 over the program's ``.py`` sources (path and content),
    as perfbench names code outside a git checkout."""
    hasher = hashlib.sha256()
    src = root / "src"
    for path in sorted(src.rglob("*.py")):
        hasher.update(str(path.relative_to(src)).encode("utf-8") + b"\0")
        hasher.update(path.read_bytes())
    return hasher.hexdigest()


def _git(*args: str, cwd: pathlib.Path = ROOT) -> str:
    return subprocess.run(["git", *args], cwd=cwd, check=True,
                          capture_output=True, text=True).stdout.strip()


def checkout(rev: str, into: pathlib.Path) -> str:
    """Extract *rev* into *into*; returns its full commit id."""
    into.mkdir(parents=True)
    archive = subprocess.run(["git", "archive", rev], cwd=ROOT, check=True,
                             capture_output=True).stdout
    subprocess.run(["tar", "-x", "-C", str(into)], input=archive,
                   check=True)
    return _git("rev-parse", rev)


def run_perfbench(root: pathlib.Path, workload: str, seed: int,
                  seconds: int) -> dict:
    env = {key: value for key, value in os.environ.items()
           if key != "PYTHONPATH"}
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=root, env=env, check=True, capture_output=True, text=True)
    return parse_run(done.stdout)


def compare(base: str, workload: str, pairs: int, seconds: int,
            first_seed: int) -> dict:
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text())
    with tempfile.TemporaryDirectory(prefix="pairs-") as scratch:
        scratch = pathlib.Path(scratch)
        base_commit = checkout(base, scratch / "base")
        change_commit = _git("rev-parse", "HEAD")
        if _git("status", "--porcelain", "--untracked-files=no"):
            change_commit += "+working-tree"
        change_sources = sources_sha256(ROOT)
        roots = {"base": scratch / "base", "change": ROOT}
        runs = []
        for index in range(pairs):
            seed = first_seed + index
            order = ("base", "change") if index % 2 == 0 else \
                ("change", "base")
            pair = {"seed": seed, "first": order[0]}
            for side in order:
                pair[side] = run_perfbench(roots[side], workload, seed,
                                           seconds)
                print(f"pair {index + 1}/{pairs} seed {seed} {side}: "
                      f"{pair[side]['ops_per_s']:.2f} op/s", flush=True)
            runs.append(pair)
    return {
        "workload": workload,
        "base_commit": base_commit,
        "change_commit": change_commit,
        "change_sources_sha256": change_sources,
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "seconds": seconds,
        "seeds": [pair["seed"] for pair in runs],
        "all_correct": all(pair[side]["correct"] for pair in runs
                           for side in ("base", "change")),
        "summary": summarize(runs, directions(benchmark)),
        "runs": runs,
    }


def _short(commit: str) -> str:
    """An abbreviated commit id, keeping a ``+working-tree`` suffix."""
    return commit[:7] + commit[40:]


def report(results: dict) -> str:
    """Markdown tables of every workload in *results*, one row per
    metric in ``BENCHMARK.json``'s order."""
    order = list(directions(
        json.loads((ROOT / "BENCHMARK.json").read_text())))
    out = []
    for workload, entry in sorted(results.get("workloads", {}).items()):
        out.append(
            f"**{workload}**: {len(entry['seeds'])} alternating pairs, "
            f"seeds {entry['seeds'][0]}-{entry['seeds'][-1]}, "
            f"`--seconds {entry['seconds']}`; base "
            f"`{_short(entry['base_commit'])}`, change "
            f"`{_short(entry['change_commit'])}`; {entry['cpu_count']} CPUs, "
            f"Python {entry['python']}; every run correct: "
            f"{entry['all_correct']}.\n")
        out.append("| metric | better | base median [q1, q3] "
                   "| change median [q1, q3] | change | change wins |")
        out.append("|---|---|---|---|---|---|")
        summary = entry["summary"]
        for name in sorted(summary, key=order.index):
            row = summary[name]
            base_q = ", ".join(f"{v:.4g}" for v in row["base_quartiles"])
            change_q = ", ".join(f"{v:.4g}"
                                 for v in row["change_quartiles"])
            delta = ("n/a" if row["median_change"] is None
                     else f"{100 * row['median_change']:+.1f}%")
            out.append(
                f"| `{name}` | {row['better']} | "
                f"{row['base_median']:.4g} [{base_q}] | "
                f"{row['change_median']:.4g} [{change_q}] | {delta} | "
                f"{row['wins']}/{row['pairs']} |")
        out.append("")
    return "\n".join(out)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--base", help="revision to compare against")
    parser.add_argument("--workload",
                        choices=("figures-cold", "campaign-cold",
                                 "serve-warm"))
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=int, default=15)
    parser.add_argument("--seed", type=int, default=1,
                        help="seed of the first pair; pair i adds i")
    parser.add_argument("--out", type=pathlib.Path, default=RESULTS)
    parser.add_argument("--report", action="store_true",
                        help="print --out as markdown tables and exit")
    args = parser.parse_args(argv)
    results = (json.loads(args.out.read_text()) if args.out.is_file()
               else {"workloads": {}})
    if args.report:
        print(report(results))
        return 0
    if not (args.base and args.workload):
        parser.error("--base and --workload are required")
    entry = compare(args.base, args.workload, args.pairs, args.seconds,
                    args.seed)
    results["workloads"][args.workload] = entry
    args.out.parent.mkdir(parents=True, exist_ok=True)
    args.out.write_text(json.dumps(results, indent=1, sort_keys=True)
                        + "\n")
    print(report({"workloads": {args.workload: entry}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
