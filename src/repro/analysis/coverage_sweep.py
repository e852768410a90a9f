"""Figure 9(a): error coverage vs SIMT cluster organization and mapping.

Three configurations, as in the paper's three bars:

* 4-lane clusters, in-order thread mapping (baseline RFU reach);
* 8-lane clusters, in-order mapping (more forwarding hardware);
* 4-lane clusters, cross mapping (the paper's cheap scheduler change).

Paper averages: 89.60% / 91.91% / 96.43%.

Two estimators coexist here.  :func:`run_figure9a` reads the
*architectural* coverage the simulator accounts per issue (which lanes
were verified) — an analytic number, like the paper's.  ``fig9a-sampled``
(:func:`run_figure9a_sampled`) instead *measures* detection by injecting
stratified transient-fault samples through
:class:`~repro.faults.campaign.CampaignEngine` and reports the detected
fraction with a binomial confidence interval — "96.4% ± ε at N samples"
rather than a closed-form claim.
"""

from __future__ import annotations

from typing import Dict, Optional, Sequence

from repro.analysis.report import format_table
from repro.analysis.runner import SuiteRunner
from repro.common.config import DMRConfig, MappingPolicy
from repro.workloads import all_workloads

#: Figure 9(a) bar labels, in paper order.
CONFIG_LABELS = ["cluster4_inorder", "cluster8_inorder", "cluster4_cross"]

#: Workloads a sampled campaign injects into (fast, category-diverse:
#: int/memory prefix-sum, float GEMM, stencil).
SAMPLED_WORKLOADS = ("scan", "matrixmul", "laplace")

#: Default stratified samples per (workload, configuration).
DEFAULT_SAMPLES = 60


def figure9a_specs(runner: SuiteRunner) -> list:
    """The suite cells Figure 9(a) consumes (3 configs x all workloads)."""
    return [
        (name, dmr, config)
        for name in all_workloads()
        for config, dmr in _sweep_configs(runner).values()
    ]


def run_figure9a(runner: SuiteRunner) -> Dict[str, Dict[str, float]]:
    """workload -> config label -> coverage percent (plus 'average')."""
    configs = _sweep_configs(runner)
    runner.prefetch(figure9a_specs(runner))
    data: Dict[str, Dict[str, float]] = {}
    for name in all_workloads():
        data[name] = {}
        for label, (config, dmr) in configs.items():
            result = runner.run(name, dmr, config)
            data[name][label] = result.coverage.coverage_percent
    averages = {
        label: sum(per[label] for per in data.values()) / len(data)
        for label in CONFIG_LABELS
    }
    data["average"] = averages
    return data


def _sweep_configs(runner: SuiteRunner) -> Dict[str, tuple]:
    """The three Figure 9(a) bars as (GPUConfig, DMRConfig) pairs."""
    return {
        "cluster4_inorder": (
            runner.config.with_cluster_size(4),
            DMRConfig.paper_default().with_mapping(MappingPolicy.IN_ORDER),
        ),
        "cluster8_inorder": (
            runner.config.with_cluster_size(8),
            DMRConfig.paper_default().with_mapping(MappingPolicy.IN_ORDER),
        ),
        "cluster4_cross": (
            runner.config.with_cluster_size(4),
            DMRConfig.paper_default().with_mapping(MappingPolicy.CROSS),
        ),
    }


def run_figure9a_sampled(runner: SuiteRunner,
                         samples: int = DEFAULT_SAMPLES,
                         workloads: Sequence[str] = SAMPLED_WORKLOADS,
                         windows: int = 4,
                         confidence: float = 0.95,
                         parallel: Optional[int] = None
                         ) -> Dict[str, Dict[str, object]]:
    """Measured (fault-injected) coverage for the Figure 9(a) bars.

    Per configuration, injects *samples* stratified transient faults
    into each workload through a :class:`CampaignEngine` (sharing the
    runner's persistent cache and fan-out), pools the detected/harmful
    counts, and attaches a Wilson interval.  Masked and hung runs are
    excluded from the proportion — a fault that never corrupts anything
    is not a coverage event, and livelocks are the watchdog's job.

    Returns ``label -> {rate, low, high, samples, harmful, detected,
    outcomes}`` with rates in percent, figure-style.
    """
    from repro.faults.campaign import (CampaignEngine, CampaignResult,
                                       CampaignSpec)
    from repro.faults.sampler import FaultSampler

    jobs = runner.jobs if parallel is None else max(1, parallel)
    data: Dict[str, Dict[str, object]] = {}
    for label, (config, dmr) in _sweep_configs(runner).items():
        pooled = CampaignResult()
        for name in workloads:
            spec = CampaignSpec(workload=name, config=config, dmr=dmr,
                                scale=runner.scale, seed=runner.seed)
            engine = CampaignEngine(spec, cache=runner.persistent_cache,
                                    jobs=jobs)
            sampler = FaultSampler(config, windows=windows)
            horizon = engine.golden_result().cycles
            faults = sampler.sample(samples, horizon, seed=runner.seed)
            pooled.runs.extend(engine.run(faults).runs)
        data[label] = pooled.coverage_entry(confidence)
    return data


def format_figure9a_sampled(data: Dict[str, Dict[str, object]]) -> str:
    rows = []
    for label, entry in data.items():
        half_width = (entry["high"] - entry["low"]) / 2
        rows.append([
            label,
            f"{entry['rate']:.2f}% ± {half_width:.2f}",
            f"[{entry['low']:.2f}, {entry['high']:.2f}]",
            f"{entry['detected']}/{entry['harmful']}",
            str(entry["samples"]),
        ])
    return format_table(
        ["configuration", "measured coverage", "95% CI",
         "detected/harmful", "faults injected"],
        rows,
        title=("Figure 9(a), measured: sampled fault-injection coverage "
               "(paper's analytic averages: 89.60 / 91.91 / 96.43%)"),
    )


def format_figure9a(data: Dict[str, Dict[str, float]]) -> str:
    headers = ["workload"] + CONFIG_LABELS
    rows = [
        [name] + [f"{data[name][label]:.2f}%" for label in CONFIG_LABELS]
        for name in data
    ]
    return format_table(
        headers, rows,
        title=("Figure 9(a): error coverage "
               "(paper averages: 89.60 / 91.91 / 96.43%)"),
    )
