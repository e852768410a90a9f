"""The benchmark's three workloads: fixed op lists over ``repro``.

Each workload function sets up one *pass* in a fresh directory and
returns its ops.  The op list is a pure function of the seed, which
permutes independent ops (or, for serve-warm, picks the job epochs):
the work of the ops and their expected output digests never change,
and nothing depends on elapsed time.
"""

from __future__ import annotations

import functools
import math
import pathlib
import random
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional

from repro.analysis.coverage_sweep import SAMPLED_WORKLOADS
from repro.analysis.result_cache import ResultCache
from repro.analysis.runner import SuiteRunner, experiment_config
from repro.common.config import DMRConfig
from repro.faults.campaign import CampaignEngine, CampaignSpec
from repro.faults.sampler import FaultSampler
from repro.service import codec
from repro.service import jobs as service_jobs
from repro.service.store import JobStore
from repro.service.worker import ServiceWorker

#: figures-cold: the figure drivers' cells at this scale on this chip
FIGURE_SCALE = 0.5
FIGURE_SMS = 2

#: campaign-cold: fig-pareto's sampling (stratified transients plus one
#: stuck-at per four) at this size, on this chip and scale
CAMPAIGN_SAMPLES = 32
CAMPAIGN_SCALE = 0.25
CAMPAIGN_SMS = 1
CAMPAIGN_WINDOWS = 4

#: serve-warm: the job list set up cold, then resubmitted warm
SERVE_SCALE = 0.25
SERVE_CAMPAIGN_SAMPLES = 50
SERVE_WARM_OPS = 108


@dataclass
class Op:
    """One measured call and how to fingerprint what it returned."""

    id: str
    #: key of the op's expected digest (equal ops share one)
    expect: str
    call: Callable[[], object]
    #: maps the call's return value to the plain data the digest covers
    output: Callable[[object], object]


@dataclass
class Pass:
    ops: List[Op]
    #: False: a simulation inside an op fails it (warm resubmits)
    simulates: bool = True
    #: the pass's job store, if it has one
    store: Optional[JobStore] = None


def _identity(value):
    return value


def _payload(result):
    return result.to_payload()


def _figure(run_fn, format_fn, runner):
    data = run_fn(runner)
    return {"data": data, "table": format_fn(data)}


def figures_cold(root: pathlib.Path, seed: int) -> Pass:
    """One op per distinct cell of every service-schedulable figure,
    simulated into an empty on-disk cache, then one op per figure."""
    config = experiment_config(num_sms=FIGURE_SMS)
    runner = SuiteRunner(config, scale=FIGURE_SCALE, seed=0,
                         cache=ResultCache(root / "cache"))
    cells: Dict[str, Op] = {}
    figures: List[Op] = []
    for figure, (specs_fn, run_fn, format_fn) in \
            service_jobs.figure_registry().items():
        items = codec.resolve_run_specs(specs_fn(runner), None, config)
        for index, item in enumerate(items):
            key = codec.encode_canonical(item)
            if key not in cells:
                op_id = f"cell/{figure}/{index}/{item['workload']}"
                cells[key] = Op(op_id, op_id, functools.partial(
                    runner.run, *codec.run_spec_from_payload(item)),
                    _payload)
        op_id = f"figure/{figure}"
        figures.append(Op(op_id, op_id, functools.partial(
            _figure, run_fn, format_fn, runner), _identity))
    rng = random.Random(seed)
    cell_ops = list(cells.values())
    rng.shuffle(cell_ops)
    rng.shuffle(figures)
    return Pass(cell_ops + figures)


def campaign_specs() -> List[CampaignSpec]:
    """fig-pareto's cross-mapping Warped-DMR and SECDED campaigns."""
    config = experiment_config(num_sms=CAMPAIGN_SMS)
    return [
        CampaignSpec(workload=workload, config=config, dmr=dmr,
                     scale=CAMPAIGN_SCALE, seed=0, obs=True, scheme=scheme)
        for workload in SAMPLED_WORKLOADS
        for scheme, dmr in (("dmr", DMRConfig.paper_default()),
                            ("secded", DMRConfig.disabled()))
    ]


def campaign_cold(root: pathlib.Path, seed: int) -> Pass:
    """One op per fault classified into an empty cache; golden runs
    and sampling are set-up."""
    cache = ResultCache(root / "cache")
    ops: List[Op] = []
    for spec in campaign_specs():
        engine = CampaignEngine(spec, cache=cache)
        golden = engine.golden_result()
        spec.prepare().check(golden.memory)
        sampler = FaultSampler(spec.config, windows=CAMPAIGN_WINDOWS)
        faults = (sampler.sample(CAMPAIGN_SAMPLES, golden.cycles, seed=0)
                  + sampler.sample_stuck_ats(max(1, CAMPAIGN_SAMPLES // 4),
                                             seed=0))
        for index, fault in enumerate(faults):
            op_id = f"fault/{spec.scheme}/{spec.workload}/{index:03d}"
            ops.append(Op(op_id, op_id,
                          functools.partial(engine.run_fault, fault),
                          _payload))
    random.Random(seed).shuffle(ops)
    return Pass(ops)


def serve_jobs() -> List[str]:
    """The fixed job list: every figure job, then one campaign job."""
    return ([f"figure/{name}" for name in service_jobs.figure_registry()]
            + ["campaign/scan"])


def serve_warm(root: pathlib.Path, seed: int) -> Pass:
    """Set-up runs every job cold into a fresh store; each op resubmits
    one job, in the fixed list's order, under a new epoch and drains it
    warm, in-process.

    The seed picks the epochs, and with them the content-addressed job
    ids the store scans in sorted order; the job order is fixed because
    a job's cost grows with the number of jobs stored before it.
    """
    store = JobStore(root / "store")
    # heartbeats are throttled by elapsed time; turned off so the work
    # of an op never depends on how fast the host ran
    worker = ServiceWorker(store, owner="perfbench",
                           heartbeat_seconds=math.inf)
    scan = CampaignSpec(workload="scan",
                        config=experiment_config(num_sms=1),
                        dmr=DMRConfig.paper_default(), scale=SERVE_SCALE,
                        seed=0)

    def run_job(label: str, epoch: int):
        kind, target = label.split("/", 1)
        if kind == "campaign":
            job_id, _ = service_jobs.submit_campaign_job(
                store, scan, samples=SERVE_CAMPAIGN_SAMPLES, epoch=epoch)
        else:
            job_id, _ = service_jobs.submit_figure_job(
                store, target, scale=SERVE_SCALE, sms=FIGURE_SMS,
                epoch=epoch)
        while worker.run_once() is not None:
            pass
        return store.read_merged(job_id)

    labels = serve_jobs()
    base = seed * (SERVE_WARM_OPS + 1)
    for label in labels:
        if run_job(label, base) is None:
            raise RuntimeError(f"set-up job {label} did not merge")
    ops = []
    for index in range(SERVE_WARM_OPS):
        label = labels[index % len(labels)]
        epoch = base + index + 1
        ops.append(Op(f"job/{label}#{epoch}", label,
                      functools.partial(run_job, label, epoch), _identity))
    return Pass(ops, simulates=False, store=store)


WORKLOADS = {
    "figures-cold": figures_cold,
    "campaign-cold": campaign_cold,
    "serve-warm": serve_warm,
}
