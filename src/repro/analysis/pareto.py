"""fig-pareto: coverage vs overhead across the protection-scheme zoo.

The paper's quantitative claim is a Pareto argument: Warped-DMR buys
near-ECC error detection at a fraction of ECC's cost.  This driver
measures both axes from the *same* instrumented fault-injection runs:

* **Coverage** — a mixed stratified fault population from the
  :class:`~repro.faults.sampler.FaultSampler` — transient storage
  strikes *plus* permanent datapath defects (one stuck-at per four
  transients by default) — is classified by a
  :class:`~repro.faults.campaign.CampaignEngine` per scheme; the
  detected fraction of harmful faults carries a Wilson interval.
  The stuck-at stratum is what separates the schemes at the top:
  SECDED corrects every sampled storage strike but is blind to wrong
  values computed by a defective ALU, while Warped-DMR detects both.
* **Overhead** — every obs-enabled faulty run charges
  ``protection_extra_cycles`` (against the unprotected golden run) and
  ``protection_storage_bits`` counters into its metrics snapshot; the
  pooled snapshot yields cycle and storage overhead percentages.

Schemes swept: the unprotected baseline, partial thread protection at
increasing PC budgets (selected from the cross-mapping campaign's own
cached classifications — see :mod:`repro.baselines.partial`), the
Hamming(72,64) SECDED baseline (:mod:`repro.baselines.secded`), and
Warped-DMR with in-order mapping, 8-lane clusters, and the paper's
cross mapping.  The output includes the Pareto frontier: schemes no
other scheme beats on both axes at once.

Everything flows through the persistent result cache, so a warm rerun
reproduces the figure bit-identically with ``simulations=0``.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from repro.analysis.coverage_sweep import DEFAULT_SAMPLES, SAMPLED_WORKLOADS
from repro.analysis.report import format_table
from repro.analysis.runner import SuiteRunner
from repro.common.config import DMRConfig, MappingPolicy

#: partial-protection PC budgets swept (instructions protected per
#: workload program).  The low budget must sit strictly between the
#: unprotected baseline and SECDED on the coverage axis.
DEFAULT_BUDGETS: Tuple[int, ...] = (2, 8)


def _campaign(runner: SuiteRunner, workload: str, config, dmr,
              scheme: str, samples: int, stuck_ats: int, windows: int,
              jobs: int):
    """One (workload, scheme) campaign through the shared cache."""
    from repro.faults.campaign import CampaignEngine, CampaignSpec
    from repro.faults.sampler import FaultSampler

    spec = CampaignSpec(workload=workload, config=config, dmr=dmr,
                        scale=runner.scale, seed=runner.seed, obs=True,
                        scheme=scheme)
    engine = CampaignEngine(spec, cache=runner.persistent_cache, jobs=jobs)
    sampler = FaultSampler(config, windows=windows)
    horizon = engine.golden_result().cycles
    faults = (sampler.sample(samples, horizon, seed=runner.seed)
              + sampler.sample_stuck_ats(stuck_ats, seed=runner.seed))
    return engine, engine.run(faults)


def _scheme_entry(pooled, confidence: float) -> Dict[str, object]:
    """Coverage (+ Wilson interval) and measured overheads of one scheme."""
    snapshot = pooled.metrics()
    base_cycles = snapshot.value("protection_base_cycles")
    extra_cycles = snapshot.value("protection_extra_cycles")
    base_bits = snapshot.value("protection_base_storage_bits")
    extra_bits = snapshot.value("protection_storage_bits")
    cycle_pct = 100.0 * extra_cycles / base_cycles if base_cycles else 0.0
    storage_pct = 100.0 * extra_bits / base_bits if base_bits else 0.0
    return {
        **pooled.coverage_entry(confidence),
        "cycle_overhead_pct": cycle_pct,
        "storage_overhead_pct": storage_pct,
        "overhead_pct": cycle_pct + storage_pct,
    }


def _pareto_frontier(schemes: Dict[str, Dict[str, object]]) -> List[str]:
    """Labels no other scheme dominates (>= coverage and <= overhead,
    strictly better on at least one axis), in overhead order."""
    frontier = []
    for label, entry in schemes.items():
        dominated = False
        for other, rival in schemes.items():
            if other == label:
                continue
            no_worse = (rival["rate"] >= entry["rate"]
                        and rival["overhead_pct"] <= entry["overhead_pct"])
            better = (rival["rate"] > entry["rate"]
                      or rival["overhead_pct"] < entry["overhead_pct"])
            if no_worse and better:
                dominated = True
                break
        if not dominated:
            frontier.append(label)
    frontier.sort(key=lambda lbl: (schemes[lbl]["overhead_pct"],
                                   schemes[lbl]["rate"]))
    return frontier


def run_fig_pareto(runner: SuiteRunner,
                   samples: int = DEFAULT_SAMPLES,
                   workloads: Sequence[str] = SAMPLED_WORKLOADS,
                   budgets: Sequence[int] = DEFAULT_BUDGETS,
                   stuck_ats: Optional[int] = None,
                   windows: int = 4,
                   confidence: float = 0.95,
                   parallel: Optional[int] = None) -> Dict[str, object]:
    """Sweep every protection scheme; returns the figure's plain data.

    Per workload, the cross-mapping Warped-DMR campaign doubles as the
    partial-protection *calibration* run: its detection PCs rank
    program points by measured vulnerability, and each budget protects
    the top-k (deterministic, so the derived ``protected_pcs`` — and
    with them every cache key — are reproducible from the same spec).

    ``stuck_ats`` is the permanent-defect stratum size per workload
    (default: one per four transient samples, minimum one).
    """
    from repro.baselines.partial import (select_protected_pcs,
                                         vulnerability_profile)
    from repro.faults.campaign import CampaignResult

    jobs = runner.jobs if parallel is None else max(1, parallel)
    if stuck_ats is None:
        stuck_ats = max(1, samples // 4)
    base_config = runner.config
    cross = DMRConfig.paper_default()
    plans = [
        ("none", base_config, DMRConfig.disabled(), "dmr"),
        ("secded", base_config, DMRConfig.disabled(), "secded"),
        ("wdmr-inorder", base_config,
         cross.with_mapping(MappingPolicy.IN_ORDER), "dmr"),
        ("wdmr-cluster8", base_config.with_cluster_size(8),
         cross.with_mapping(MappingPolicy.IN_ORDER), "dmr"),
        ("wdmr-cross", base_config, cross, "dmr"),
    ]

    pooled: Dict[str, CampaignResult] = {}
    simulations = 0
    protected: Dict[str, Dict[str, List[int]]] = {
        f"partial@{k}": {} for k in budgets
    }

    # cross first: it is both a scheme and the calibration source
    cross_runs_by_workload = {}
    for workload in workloads:
        engine, result = _campaign(runner, workload, base_config, cross,
                                   "dmr", samples, stuck_ats, windows, jobs)
        simulations += engine.simulations
        cross_runs_by_workload[workload] = result.runs
        pooled.setdefault("wdmr-cross", CampaignResult()).runs.extend(
            result.runs)

    for label, config, dmr, scheme in plans:
        if label == "wdmr-cross":
            continue  # already pooled above
        for workload in workloads:
            engine, result = _campaign(runner, workload, config, dmr,
                                       scheme, samples, stuck_ats, windows,
                                       jobs)
            simulations += engine.simulations
            pooled.setdefault(label, CampaignResult()).runs.extend(
                result.runs)

    for budget in budgets:
        label = f"partial@{budget}"
        for workload in workloads:
            profile = vulnerability_profile(cross_runs_by_workload[workload])
            pcs = select_protected_pcs(profile, budget)
            protected[label][workload] = list(pcs)
            dmr = cross.with_protected_pcs(pcs)
            engine, result = _campaign(runner, workload, base_config, dmr,
                                       "dmr", samples, stuck_ats, windows,
                                       jobs)
            simulations += engine.simulations
            pooled.setdefault(label, CampaignResult()).runs.extend(
                result.runs)

    order = (["none"] + [f"partial@{k}" for k in budgets]
             + ["secded", "wdmr-inorder", "wdmr-cluster8", "wdmr-cross"])
    schemes = {label: _scheme_entry(pooled[label], confidence)
               for label in order}
    return {
        "order": order,
        "schemes": schemes,
        "frontier": _pareto_frontier(schemes),
        "protected_pcs": protected,
        "samples": samples,
        "stuck_ats": stuck_ats,
        "workloads": list(workloads),
        "budgets": list(budgets),
        "confidence": confidence,
        "simulations": simulations,
    }


def format_fig_pareto(data: Dict[str, object]) -> str:
    frontier = set(data["frontier"])
    rows = []
    for label in data["order"]:
        entry = data["schemes"][label]
        half = (entry["high"] - entry["low"]) / 2
        rows.append([
            label,
            f"{entry['rate']:.2f}% ± {half:.2f}",
            f"[{entry['low']:.2f}, {entry['high']:.2f}]",
            f"{entry['cycle_overhead_pct']:.2f}%",
            f"{entry['storage_overhead_pct']:.2f}%",
            f"{entry['overhead_pct']:.2f}%",
            f"{entry['detected']}/{entry['harmful']}",
            "*" if label in frontier else "",
        ])
    return format_table(
        ["scheme", "measured coverage", "95% CI", "cycle ovh",
         "storage ovh", "total ovh", "detected/harmful", "frontier"],
        rows,
        title=("fig-pareto: detection coverage vs protection overhead "
               f"({data['samples']} stratified faults/workload/scheme, "
               "* = Pareto frontier)"),
    )
