"""fig-sched: schedule-interleaving exploration over the fuzz corpus.

The seeded scheduler (:mod:`repro.sim.scheduler`) makes every legal
interleaving addressable: ``GPUConfig.schedule_seed = s`` names one
member of the schedule space, enumerated statelessly GPUMC-style.  This
sweep re-runs a set of corpus kernels under N such seeds (plus the
deterministic policy schedule as a baseline row) with Warped-DMR
enabled, and reports how the ReplayQ stall burden and DMR coverage
*distribute* across schedules — the paper's single-schedule numbers
gain error bars over the interleaving space.

Per-run metrics ride the repro.obs path: each simulation's stats
registry payload is a mergeable :class:`MetricSnapshot`, so one
commutative ``aggregate_payloads`` fold per schedule produces the
merged snapshot the coverage report reads, independent of worker
completion order.  Runs are content-addressed in the result cache
(kernel digest + full config fingerprint, which includes
``schedule_seed``) and resolve through the same
:class:`~repro.analysis.result_cache.CachedFanout` as the suite runner
and the campaign engine: serial misses persist as they land, parallel
ones fan out across worker processes.
"""

from __future__ import annotations

import hashlib
import statistics
from typing import Dict, List, Optional, Sequence, Tuple, Union

from repro.analysis.report import format_table
from repro.analysis.result_cache import (CachedFanout, ResultCache,
                                         code_version_salt)
from repro.analysis.runner import default_jobs
from repro.common.config import DMRConfig, GPUConfig, config_fingerprint
from repro.common.errors import ConfigError
from repro.core.coverage import CoverageReport
from repro.fuzz.corpus import Corpus
from repro.fuzz.differential import fuzz_gpu_config, run_kernel
from repro.fuzz.serialize import FuzzKernel
from repro.obs import MetricSnapshot, aggregate_payloads

#: row label for the deterministic policy-driven schedule
POLICY_LABEL = "policy"


def sched_run_key(kernel_digest: str, config: GPUConfig,
                  dmr: DMRConfig) -> str:
    """Content key of one (kernel, schedule, DMR) simulation.

    The config fingerprint expands every field — ``schedule_seed``
    included — so two schedules of the same kernel can never collide.
    """
    blob = config_fingerprint({
        "kind": "fuzz-sched-run",
        "kernel": kernel_digest,
        "gpu": config,
        "dmr": dmr,
        "salt": code_version_salt(),
    })
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def _sched_run_payload(dmr: DMRConfig, item: Tuple) -> Dict:
    """Fan-out entry point: one corpus kernel under one schedule."""
    kernel_payload, config = item
    kernel = FuzzKernel.from_payload(kernel_payload)
    result = run_kernel(kernel, config=config, dmr=dmr)
    return result.to_payload()


def _schedule_row(label: str, payloads: Sequence[Dict]) -> Dict:
    """Fold one schedule's run payloads into a summary row."""
    stats = [payload["stats"] for payload in payloads]
    merged = aggregate_payloads(stats)
    replay = sorted(MetricSnapshot.from_payload(payload).value(
        "cycles_stall_replay") for payload in stats)
    cycles = [MetricSnapshot.from_payload(payload).value("cycles_total")
              for payload in stats]
    coverage = CoverageReport.from_stats(merged.to_registry())
    return {
        "schedule": label,
        "kernels": len(payloads),
        "replay_stall_min": replay[0] if replay else 0,
        "replay_stall_median": int(statistics.median(replay)) if replay
        else 0,
        "replay_stall_max": replay[-1] if replay else 0,
        "replay_stall_total": sum(replay),
        "dmr_stall_total": merged.value("cycles_dmr_stall"),
        "cycles_total": sum(cycles),
        "coverage_percent": round(coverage.coverage_percent, 4),
    }


def run_fig_sched(corpus_dir: str, *,
                  schedules: int = 8,
                  kernels: int = 32,
                  num_sms: int = 2,
                  dmr: Optional[DMRConfig] = None,
                  cache: Union[None, bool, str, ResultCache] = True,
                  jobs: Optional[int] = None) -> Dict:
    """Sweep *schedules* seeded interleavings over *kernels* corpus kernels.

    Returns plain data: one row per schedule (seeds ``0..N-1`` plus the
    policy baseline), each with the min/median/max per-kernel ReplayQ
    stall cycles and the DMR coverage of the schedule's merged snapshot.
    """
    if schedules <= 0 or kernels <= 0:
        raise ConfigError("fig-sched needs positive schedules and kernels")
    corpus = Corpus(corpus_dir)
    digests = corpus.digests()
    if len(digests) < kernels:
        raise ConfigError(
            f"corpus at {corpus.root} holds {len(digests)} kernels, "
            f"need {kernels}; grow it with "
            f"'python -m repro fuzz --count {kernels}'")
    digests = digests[:kernels]
    payloads = {digest: corpus.load(digest).to_payload()
                for digest in digests}
    dmr = dmr if dmr is not None else DMRConfig.paper_default()

    # Schedule None = the deterministic policy baseline, then N seeds.
    seeds: List[Optional[int]] = [None] + list(range(schedules))
    keys, items = [], []
    for seed in seeds:
        config = fuzz_gpu_config(num_sms=num_sms, schedule_seed=seed)
        for digest in digests:
            keys.append(sched_run_key(digest, config, dmr))
            items.append((payloads[digest], config))
    fanout = CachedFanout(_sched_run_payload, dict, cache)
    results = fanout.run(keys, items, lambda: dmr,
                         jobs if jobs is not None else default_jobs())

    rows = []
    for index, seed in enumerate(seeds):
        label = POLICY_LABEL if seed is None else str(seed)
        start = index * len(digests)
        rows.append(_schedule_row(label,
                                  results[start:start + len(digests)]))

    return {
        "figure": "fig-sched",
        "corpus": str(corpus.root),
        "kernels": digests,
        "schedules": schedules,
        "num_sms": num_sms,
        "dmr": dmr.to_dict(),
        "cached_runs": len(keys) - fanout.simulations,
        "simulated_runs": fanout.simulations,
        "rows": rows,
    }


def format_fig_sched(data: Dict) -> str:
    """Human-readable distribution table for the fig-sched sweep."""
    rows = []
    for row in data["rows"]:
        rows.append([
            row["schedule"],
            row["replay_stall_min"],
            row["replay_stall_median"],
            row["replay_stall_max"],
            row["replay_stall_total"],
            row["dmr_stall_total"],
            f"{row['coverage_percent']:.2f}",
        ])
    title = (f"fig-sched: ReplayQ stall / DMR coverage across "
             f"{data['schedules']} schedules x {len(data['kernels'])} "
             f"corpus kernels")
    table = format_table(
        ["schedule", "replay min", "replay med", "replay max",
         "replay total", "dmr stall", "coverage %"],
        rows, title=title)
    spread = [row["replay_stall_total"] for row in data["rows"]
              if row["schedule"] != POLICY_LABEL]
    if spread:
        lo, hi = min(spread), max(spread)
        swing = (hi - lo) / lo * 100.0 if lo else 0.0
        table += (f"\nseeded schedules span {lo}..{hi} total ReplayQ "
                  f"stall cycles ({swing:.1f}% swing)")
    return table
