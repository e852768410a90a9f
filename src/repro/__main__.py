"""Command-line interface: ``python -m repro <command>``.

Commands
--------
``list``
    Show the workload registry with categories and paper parameters.
``run WORKLOAD``
    Simulate one workload (optionally under Warped-DMR) and print the
    cycle count, coverage and verification statistics.
``figure NAME``
    Regenerate one of the paper's figures as a text table
    (fig1, fig5, fig8a, fig8b, fig9a, fig9b, fig10, fig11), or the
    repo's own ``fig-sched``: ReplayQ-stall and DMR-coverage
    distributions across seeded schedule interleavings of the fuzz
    corpus (growing the corpus first if needed).
``inject WORKLOAD``
    Inject a fault, report detection/corruption, and localize the lane.
``bench``
    Benchmark the fast execution engine against the scalar
    interpreter and write machine-readable ``BENCH_exec.json``.
``campaign WORKLOAD``
    Run a scaled fault-injection campaign: stratified transient-fault
    samples, parallel workers, persistent result cache (a rerun or a
    resumed campaign performs zero new simulations).  Writes
    machine-readable ``BENCH_campaign.json`` with the outcome
    histogram, coverage confidence interval and faults/second.
``trace WORKLOAD``
    Simulate one workload with full observability and write a Chrome
    ``trace_event`` JSON timeline (load in ``chrome://tracing`` or
    Perfetto: one process track per SM, one thread track per warp).
``metrics [WORKLOAD]``
    Run one workload (or the whole suite) with the metrics registry on
    and print the aggregated snapshot: counters, stall-cause
    attribution, occupancy/queue-depth distributions — plus the
    harness's own fan-out counters (retries, timeouts, worker deaths,
    cache quarantines).
``chaos [WORKLOAD]``
    Prove the fan-out's fault tolerance: run a fault campaign while
    injecting harness-level chaos (SIGKILL a worker, oversleep the unit
    deadline, raise in workers, corrupt cache entries) and verify
    the result is byte-identical to an unfaulted serial run.  Exits
    nonzero on any lost or divergent classification.  ``chaos
    --fabric`` aims the same adversary at the service fabric instead:
    SIGKILL real worker processes, bit-flip/truncate store artifacts,
    skew claim lease clocks, scatter torn temp files — then ``serve
    fsck --repair`` plus a plain fleet must still converge to
    byte-identical merged output with zero recomputation of adopted
    results.
``fuzz``
    Grow, replay or minimize the differential kernel corpus: seeded
    generation of mini-ISA kernels, each admitted only after the
    scalar reference, the scalar engine and the fast engine produce
    bit-identical memory images.  Writes machine-readable
    ``FUZZ_report.json`` and exits nonzero on any mismatch.
``serve``
    The distributed campaign fabric (:mod:`repro.service`).  ``serve
    submit campaign WORKLOAD`` / ``serve submit figure NAME`` plan a
    job into the shared job store; ``serve --worker`` runs a
    work-stealing worker over the store (start as many as you like,
    on any host sharing the store directory); ``serve status`` /
    ``serve watch`` / ``serve fetch`` poll progress and retrieve the
    merged output — byte-identical to a serial in-process run no
    matter how many workers classified the units; ``serve fsck
    [--repair]`` audits (and heals) the store — re-digesting every
    content-addressed artifact, quarantining torn/foreign files,
    regenerating lost units; bare ``serve`` (or ``serve start``) runs
    the janitor/observer server loop.
"""

from __future__ import annotations

import argparse
import sys

from repro import __version__
from repro.common.config import DMRConfig, MappingPolicy
from repro.sim.gpu import GPU


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--scale", type=float, default=0.5,
                        help="problem-size scale in (0, 1] (default 0.5)")
    parser.add_argument("--sms", type=int, default=2,
                        help="number of SMs on the simulated chip")
    parser.add_argument("--seed", type=int, default=0)


def cmd_list(_args) -> int:
    from repro.analysis.report import format_table
    from repro.workloads import all_workloads
    rows = [
        [w.name, w.display_name, w.category, w.paper_params]
        for w in all_workloads().values()
    ]
    print(format_table(
        ["name", "paper name", "category", "paper parameters"], rows,
        title="Workload registry (paper Table 4)",
    ))
    return 0


def cmd_run(args) -> int:
    from repro.analysis.runner import experiment_config
    from repro.workloads import get_workload

    workload = get_workload(args.workload)
    run = workload.prepare(scale=args.scale, seed=args.seed)
    if args.no_dmr:
        dmr = DMRConfig.disabled()
    else:
        dmr = DMRConfig(
            replayq_entries=args.replayq,
            mapping=(MappingPolicy.CROSS if args.mapping == "cross"
                     else MappingPolicy.IN_ORDER),
        )
    gpu = GPU(experiment_config(num_sms=args.sms), dmr=dmr)
    result = gpu.launch(run.program, run.launch, memory=run.memory)
    try:
        run.check(run.memory)
        check = "PASS"
    except AssertionError as error:
        check = f"FAIL ({error})"
    print(f"workload          : {workload.display_name}")
    print(f"launch            : grid {run.launch.grid_dim} x "
          f"block {run.launch.block_dim}")
    print(f"kernel cycles     : {result.cycles}")
    print(f"instructions      : {result.instructions_issued}")
    print("engine issues     : " + " ".join(
        f"{engine}={count}" for engine, count
        in result.engine_issues.items()))
    print(f"output check      : {check}")
    if dmr.enabled:
        print(f"coverage          : {result.coverage}")
        print(f"intra-warp insts  : "
              f"{result.stats.value('intra_warp_instructions')}")
        print(f"inter-warp insts  : "
              f"{result.stats.value('inter_warp_instructions')}")
        print(f"DMR stall cycles  : "
              f"{result.stats.value('cycles_dmr_stall')}")
    return 0 if check == "PASS" else 1


def _cache_arg(args):
    """Resolve the shared --no-cache/--cache-dir flags."""
    if args.no_cache:
        return None
    if args.cache_dir is not None:
        return args.cache_dir
    return True


def cmd_figure(args) -> int:
    from repro.analysis import approaches, coverage_sweep
    from repro.analysis.runner import SuiteRunner, experiment_config
    from repro.service.jobs import figure_registry

    if args.name == "fig-sched":
        return _figure_sched(args)
    if args.name == "fig-pareto":
        return _figure_pareto(args)

    # the service's cache-backed figures, plus the two it cannot shard
    drivers = {name: (run_fn, format_fn) for name, (_, run_fn, format_fn)
               in figure_registry().items()}
    drivers["fig9a-sampled"] = (coverage_sweep.run_figure9a_sampled,
                                coverage_sweep.format_figure9a_sampled)
    drivers["fig10"] = (approaches.run_figure10, approaches.format_figure10)
    if args.name not in drivers:
        print(f"unknown figure {args.name!r}; choose from "
              f"{sorted(drivers) + ['fig-pareto', 'fig-sched']}",
              file=sys.stderr)
        return 2
    cache = _cache_arg(args)
    runner = SuiteRunner(
        experiment_config(num_sms=args.sms), scale=args.scale,
        seed=args.seed, cache=cache, jobs=args.jobs,
    )
    run_fn, format_fn = drivers[args.name]
    print(format_fn(run_fn(runner)))
    print(runner.cache_summary(), file=sys.stderr)
    return 0


def _figure_pareto(args) -> int:
    """fig-pareto: coverage-vs-overhead frontier over the scheme zoo."""
    import json

    from repro.analysis.pareto import format_fig_pareto, run_fig_pareto
    from repro.analysis.runner import SuiteRunner, experiment_config

    runner = SuiteRunner(
        experiment_config(num_sms=args.sms), scale=args.scale,
        seed=args.seed, cache=_cache_arg(args), jobs=args.jobs,
    )
    data = run_fig_pareto(runner, samples=args.samples)
    print(format_fig_pareto(data))
    if args.out:
        # simulations is cache telemetry, not figure data: dropping it
        # makes warm reruns byte-identical to the cold artifact
        artifact = {k: v for k, v in data.items() if k != "simulations"}
        with open(args.out, "w", encoding="utf-8") as handle:
            json.dump(artifact, handle, indent=2, sort_keys=True)
            handle.write("\n")
        print(f"wrote {args.out}", file=sys.stderr)
    print(f"pareto-cache: simulations={data['simulations']}",
          file=sys.stderr)
    return 0


def _figure_sched(args) -> int:
    """fig-sched: schedule-space sweep over the fuzz corpus."""
    from repro.analysis.sched_sweep import format_fig_sched, run_fig_sched
    from repro.common.config import DMRConfig
    from repro.fuzz import Corpus, grow_corpus

    corpus = Corpus(args.corpus_dir)
    if len(corpus) < args.kernels:
        print(f"growing corpus at {args.corpus_dir} to {args.kernels} "
              f"kernels (seed {args.seed})", file=sys.stderr)
        report = grow_corpus(corpus, args.kernels, args.seed)
        if report["failures"]:
            print(f"{len(report['failures'])} kernels failed differential "
                  "validation; aborting", file=sys.stderr)
            return 1
    # The paper-default 10-entry ReplayQ absorbs corpus-sized kernels
    # without ever stalling; the sweep defaults to a tighter queue so
    # the schedule-to-schedule stall distribution is visible.
    dmr = DMRConfig.paper_default().with_replayq(args.replayq)
    data = run_fig_sched(
        args.corpus_dir, schedules=args.schedules, kernels=args.kernels,
        num_sms=args.sms, dmr=dmr, cache=_cache_arg(args), jobs=args.jobs,
    )
    print(format_fig_sched(data))
    print(f"runs: {data['cached_runs']} cached, "
          f"{data['simulated_runs']} simulated", file=sys.stderr)
    return 0


def cmd_fuzz(args) -> int:
    import json

    from repro.fuzz import (Corpus, corpus_digest, fuzz_gpu_config,
                            grow_corpus, minimize_kernel, replay_corpus)

    corpus = Corpus(args.corpus_dir)
    config = fuzz_gpu_config(num_sms=args.sms)

    if args.minimize is not None:
        kernel = corpus.load(args.minimize)
        before = sum(inst.opcode.name != "NOP"
                     for inst in kernel.program.instructions)
        minimized = minimize_kernel(kernel, config=config)
        after = sum(inst.opcode.name != "NOP"
                    for inst in minimized.program.instructions)
        digest, added = corpus.add(minimized)
        report = {
            "mode": "minimize", "kernel": args.minimize,
            "minimized": digest, "added": added,
            "instructions_before": before, "instructions_after": after,
            "failures": [],
        }
        print(f"minimized {args.minimize[:12]}: {before} -> {after} live "
              f"instructions; stored as {digest[:12]}")
    elif args.replay:
        report = replay_corpus(corpus, config=config,
                               progress=lambda line: print(line,
                                                           file=sys.stderr))
        report["mode"] = "replay"
        print(f"replayed {report['replayed']} kernels: "
              f"{report['validated']} bit-identical, "
              f"{len(report['failures'])} mismatches")
    else:
        report = grow_corpus(corpus, args.count, args.seed, config=config,
                             progress=lambda line: print(line,
                                                         file=sys.stderr))
        report["mode"] = "grow"
        print(f"generated {report['generated']} kernels (seed "
              f"{args.seed}): {report['validated']} validated "
              f"bit-identical, {report['added']} added, "
              f"{report['duplicates']} already present, "
              f"{len(report['failures'])} failures")
    report["corpus_dir"] = str(corpus.root)
    report["corpus_size"] = len(corpus)
    report["corpus_digest"] = corpus_digest(corpus)
    print(f"corpus: {report['corpus_size']} kernels, "
          f"digest {report['corpus_digest'][:16]}")
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            json.dump(report, handle, indent=2, sort_keys=True)
            handle.write("\n")
        print(f"wrote {args.out}", file=sys.stderr)
    return 1 if report["failures"] else 0


def cmd_inject(args) -> int:
    from repro.analysis.runner import experiment_config
    from repro.core.diagnosis import FaultLocalizer
    from repro.core.recovery import RecoveryPolicy
    from repro.faults import FaultInjector, StuckAtFault, TransientFault
    from repro.isa.opcodes import UnitType
    from repro.workloads import get_workload

    workload = get_workload(args.workload)
    run = workload.prepare(scale=args.scale, seed=args.seed)
    if args.transient_cycle is not None:
        fault = TransientFault(sm_id=0, hw_lane=args.lane,
                               unit=UnitType.SP, bit=args.bit,
                               cycle=args.transient_cycle)
    else:
        fault = StuckAtFault(sm_id=0, hw_lane=args.lane,
                             unit=UnitType.SP, bit=args.bit, stuck_to=1)
    gpu = GPU(experiment_config(num_sms=args.sms),
              dmr=DMRConfig.paper_default(),
              fault_hook=FaultInjector([fault]), max_cycles=500_000)
    result = gpu.launch(run.program, run.launch, memory=run.memory)
    try:
        run.check(run.memory)
        corrupt = False
    except AssertionError:
        corrupt = True
    print(f"fault             : {fault}")
    print(f"output corrupt    : {corrupt}")
    print(f"detections        : {len(result.detections)}")
    localizer = FaultLocalizer()
    localizer.add(result.detections)
    for diagnosis in localizer.diagnose_all():
        print(f"localization      : {diagnosis}")
    plan = RecoveryPolicy().plan(result.detections)
    print(f"recovery plan     : {plan}")
    return 0


def cmd_bench(args) -> int:
    from repro.analysis.bench import format_bench, run_bench, write_bench_json

    payload = run_bench(scale=args.scale, seed=args.seed, iters=args.iters,
                        quick=args.quick)
    print(format_bench(payload))
    path = write_bench_json(payload, args.out)
    print(f"wrote {path}", file=sys.stderr)
    return 0


def cmd_campaign(args) -> int:
    import json
    import time

    from repro.analysis.runner import experiment_config
    from repro.faults import CampaignEngine, CampaignSpec, FaultSampler

    spec = CampaignSpec(
        workload=args.workload,
        config=experiment_config(num_sms=args.sms),
        dmr=DMRConfig.paper_default(),
        scale=args.scale,
        seed=args.seed,
    )
    engine = CampaignEngine(spec, cache=_cache_arg(args),
                            jobs=args.parallel)
    sampler = FaultSampler(spec.config, windows=args.windows)
    horizon = engine.golden_result().cycles
    faults = sampler.sample(args.samples, horizon, seed=args.seed)

    start = time.perf_counter()
    result = engine.run(faults)
    seconds = time.perf_counter() - start
    low, high = result.coverage_interval(args.confidence)

    histogram = result.summary()
    payload = {
        "benchmark": "fault-campaign",
        "workload": args.workload,
        "scale": args.scale,
        "seed": args.seed,
        "sms": args.sms,
        "samples": result.total,
        "workers": args.parallel,
        "horizon_cycles": horizon,
        "cycle_budget": engine.cycle_budget(),
        "seconds": seconds,
        "faults_per_s": result.total / seconds if seconds else 0.0,
        "simulations": engine.simulations,
        "outcomes": histogram,
        "coverage": {
            "rate": result.detection_rate,
            "detected": result.detected_runs,
            "harmful": result.harmful_runs,
            "confidence": args.confidence,
            "low": low,
            "high": high,
        },
        "resilience": dict(engine.harness.counters()),
    }
    with open(args.out, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)
        handle.write("\n")

    half_width = 100 * (high - low) / 2
    print(f"workload          : {args.workload} (scale {args.scale}, "
          f"seed {args.seed})")
    print(f"faults injected   : {result.total} "
          f"({args.windows} cycle windows over {horizon} golden cycles)")
    print("outcomes          : " + "  ".join(
        f"{name}={count}" for name, count in histogram.items()))
    print(f"coverage          : {100 * result.detection_rate:.2f}% "
          f"± {half_width:.2f} "
          f"({result.detected_runs}/{result.harmful_runs} harmful faults "
          f"detected, {int(args.confidence * 100)}% CI "
          f"[{100 * low:.2f}, {100 * high:.2f}])")
    print(f"throughput        : {payload['faults_per_s']:.1f} faults/s "
          f"({engine.simulations} simulated, "
          f"{result.total - engine.simulations} from cache)")
    print(f"wrote {args.out}", file=sys.stderr)
    print(engine.cache_summary(), file=sys.stderr)
    return 0


def cmd_trace(args) -> int:
    from repro.analysis.runner import experiment_config
    from repro.obs import ObsSession
    from repro.workloads import ALIASES, get_workload

    name = ALIASES.get(args.workload, args.workload)
    workload = get_workload(name)
    run = workload.prepare(scale=args.scale, seed=args.seed)
    dmr = (DMRConfig.disabled() if args.no_dmr
           else DMRConfig.paper_default())
    session = ObsSession(trace=True, max_trace_events=args.max_events)
    gpu = GPU(experiment_config(num_sms=args.sms), dmr=dmr, obs=session)
    result = gpu.launch(run.program, run.launch, memory=run.memory)

    tracer = session.tracer
    out = args.out or f"TRACE_{name}.json"
    tracer.write(out, other_data={
        "workload": name,
        "scale": args.scale,
        "seed": args.seed,
        "sms": args.sms,
        "dmr": "off" if args.no_dmr else "paper_default",
        "kernel_cycles": result.cycles,
    })
    print(f"workload          : {workload.display_name}")
    print(f"kernel cycles     : {result.cycles}")
    print(f"trace events      : {len(tracer)} "
          f"(dropped {tracer.dropped}, cap {tracer.max_events})")
    print(f"DMR stall cycles  : "
          f"{result.stats.value('cycles_dmr_stall')}")
    print(f"wrote {out}", file=sys.stderr)
    return 0


def cmd_metrics(args) -> int:
    from repro.analysis.report import format_table
    from repro.analysis.runner import (SuiteRunner, aggregate_metrics,
                                       experiment_config)
    from repro.workloads import ALIASES

    runner = SuiteRunner(
        experiment_config(num_sms=args.sms), scale=args.scale,
        seed=args.seed, jobs=args.jobs, obs=True,
    )
    dmr = (DMRConfig.disabled() if args.no_dmr
           else DMRConfig.paper_default())
    if args.workload:
        name = ALIASES.get(args.workload, args.workload)
        results = {name: runner.run(name, dmr)}
    else:
        results = runner.run_suite(dmr, parallel=args.jobs)
    snapshot = aggregate_metrics(results.values())
    registry = snapshot.to_registry()
    # fold in the harness's own fan-out counters (retries, timeouts,
    # worker deaths, cache quarantines) so one table shows
    # both what the simulator did and what the fleet absorbed
    registry.merge(runner.harness)

    scope = args.workload or f"suite ({len(results)} workloads)"
    print(format_table(
        ["counter", "value"],
        [[name, value] for name, value in registry.counters().items()],
        title=f"Counters: {scope}",
    ))
    gauges = list(registry.gauges())
    if gauges:
        print(format_table(
            ["gauge", "samples", "mean", "min", "max"],
            [[g.name, g.count, f"{g.mean:.2f}", g.min, g.max]
             for g in gauges],
            title="Gauges (per-cycle samples)",
        ))
    for hist in registry.fixed_histograms():
        print(format_table(
            ["bucket", "cycles"],
            [[label, count] for label, count in hist.items()],
            title=f"Distribution: {hist.name}",
        ))
    print(runner.cache_summary(), file=sys.stderr)
    return 0


def _chaos_fabric(args) -> int:
    import json

    from repro.resilience.chaos import run_fabric_chaos

    report = run_fabric_chaos(
        workload=args.workload, samples=args.samples,
        workers=args.workers, kills=args.kills, corrupt=args.corrupt,
        corrupt_mode=args.corrupt_mode, skew_seconds=args.skew,
        unit_size=args.unit_size, scale=args.scale, seed=args.seed,
        sms=args.sms, lease_seconds=args.lease,
    )
    with open(args.out, "w", encoding="utf-8") as handle:
        json.dump(report.to_payload(), handle, indent=2, sort_keys=True)
        handle.write("\n")

    counters = report.counters
    print(f"fabric chaos      : {args.workload} samples={args.samples} "
          f"workers={args.workers} kills={args.kills} "
          f"corrupt={args.corrupt}({args.corrupt_mode}) "
          f"skew={args.skew:.0f}s")
    print(f"attacks landed    : corrupted={len(report.corrupted)} "
          f"foreign={len(report.foreign_dropped)} "
          f"skewed-claims={report.skewed_claims} "
          f"kills-fired={report.kills_fired}")
    print("repair            : " + ("  ".join(
        f"{kind}={count}"
        for kind, count in sorted(report.repair_findings.items()))
        or "(nothing to repair)"))
    print(f"store integrity   : "
          f"quarantined={report.quarantined} "
          f"corrupt-results={counters.get('store_corrupt_results', 0)} "
          f"corrupt-units={counters.get('store_corrupt_units', 0)}")
    print(f"fsck after drain  : "
          f"{'clean' if report.fsck_clean else 'NOT CLEAN'}")
    verdict = "PASS" if report.matched and report.fsck_clean else "FAIL"
    print(f"byte-identity     : {verdict} "
          f"(simulations={report.simulations} for {report.samples} "
          f"samples — adopted results were never recomputed)")
    print(f"wrote {args.out}", file=sys.stderr)
    return 0 if report.matched and report.fsck_clean else 1


def cmd_chaos(args) -> int:
    import json

    from repro.resilience.chaos import run_campaign_chaos

    if args.fabric:
        return _chaos_fabric(args)
    report = run_campaign_chaos(
        workload=args.workload, samples=args.samples,
        parallel=args.parallel, kills=args.kills, sleeps=args.sleeps,
        raises=args.raises, corrupt=args.corrupt,
        corrupt_mode=args.corrupt_mode,
        scale=args.scale, seed=args.seed, sms=args.sms,
        task_deadline=args.task_deadline,
    )
    with open(args.out, "w", encoding="utf-8") as handle:
        json.dump(report.to_payload(), handle, indent=2, sort_keys=True)
        handle.write("\n")

    counters = report.counters
    print(f"chaos scenario    : {args.workload} samples={args.samples} "
          f"parallel={args.parallel} kills={args.kills} "
          f"sleeps={args.sleeps} raises={args.raises} "
          f"corrupt={args.corrupt}({args.corrupt_mode})")
    print(f"events fired      : {report.events_fired} "
          f"(pending {report.events_pending})")
    print("outcomes          : " + "  ".join(
        f"{name}={count}" for name, count in report.outcomes.items()))
    print(f"fan-out           : "
          f"retries={counters.get('fanout_retries', 0)} "
          f"timeouts={counters.get('fanout_timeouts', 0)} "
          f"worker-deaths={counters.get('fanout_worker_deaths', 0)}")
    print(f"cache integrity   : "
          f"corrupt={counters.get('cache_corrupt_entries', 0)} "
          f"quarantined={counters.get('cache_quarantined', 0)} "
          f"(simulations={report.simulations})")
    verdict = "PASS" if report.matched else "FAIL"
    print(f"byte-identity     : {verdict} "
          f"({report.classifications} classifications vs unfaulted "
          f"serial run)")
    print(f"wrote {args.out}", file=sys.stderr)
    return 0 if report.matched else 1


# ----------------------------------------------------------------------
# serve: the distributed campaign fabric
# ----------------------------------------------------------------------
def _serve_store(args):
    from repro.service.store import JobStore
    return JobStore(getattr(args, "store", None),
                    cache_dir=getattr(args, "cache_dir", None))


def _serve_submit(args) -> int:
    import json

    from repro.analysis.runner import experiment_config
    from repro.faults.campaign import CampaignSpec
    from repro.service.jobs import submit_campaign_job, submit_figure_job
    from repro.service.server import job_status

    store = _serve_store(args)
    if args.kind == "campaign":
        spec = CampaignSpec(
            workload=args.target,
            config=experiment_config(num_sms=args.sms),
            dmr=DMRConfig.paper_default(),
            scale=args.scale,
            seed=args.seed,
        )
        job_id, created = submit_campaign_job(
            store, spec, samples=args.samples, windows=args.windows,
            unit_size=args.unit_size, epoch=args.epoch,
        )
    else:
        job_id, created = submit_figure_job(
            store, args.target, scale=args.scale, sms=args.sms,
            seed=args.seed, unit_size=args.unit_size, epoch=args.epoch,
        )
    status = job_status(store, job_id)
    if args.json:
        print(json.dumps({"job": job_id, "created": created,
                          "status": status}, indent=2, sort_keys=True))
    else:
        print(job_id)
        print(f"serve: {'planned' if created else 'already planned'} "
              f"{args.kind} job {job_id} "
              f"({status['counts']['total']} units) in {store.root}",
              file=sys.stderr)
    return 0


def _serve_status(args) -> int:
    import json

    from repro.service.server import (format_status, format_workers,
                                      job_status, store_status)

    store = _serve_store(args)
    if args.job:
        status = job_status(store, args.job)
        if args.json:
            print(json.dumps(status, indent=2, sort_keys=True))
        else:
            print(format_status(status))
        return 0 if status["state"] != "unknown" else 1
    summary = store_status(store)
    if args.json:
        print(json.dumps(summary, indent=2, sort_keys=True))
    else:
        print(f"repro serve {summary['version']}  store {summary['root']}")
        for status in summary["jobs"]:
            print(format_status(status))
        if not summary["jobs"]:
            print("(no jobs)")
        for line in format_workers(summary["workers"]):
            print(line)
    return 0


def _serve_watch(args) -> int:
    from repro.service.server import watch_job

    store = _serve_store(args)
    status = watch_job(store, args.job, timeout=args.timeout,
                       interval=args.interval,
                       emit=lambda line: print(line, file=sys.stderr))
    print(status["state"])
    return 0 if status["state"] == "done" else 1


def _serve_fetch(args) -> int:
    import json

    from repro.service.jobs import finalize_job
    from repro.service.server import job_status
    from repro.service.store import canonical_json

    store = _serve_store(args)
    finalize_job(store, args.job)
    merged = store.read_merged(args.job)
    if merged is None:
        status = job_status(store, args.job)
        print(f"job {args.job} is not done (state: {status['state']})",
              file=sys.stderr)
        return 1
    text = canonical_json(merged)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            handle.write(text)
        print(f"wrote {args.out}", file=sys.stderr)
    else:
        sys.stdout.write(text)
    if args.bench_out:
        status = job_status(store, args.job)
        seconds = status["seconds"]
        payload = {
            "benchmark": "serve",
            "job": args.job,
            "kind": status["kind"],
            "version": status["version"],
            "units": status["counts"]["total"],
            "workers": len(status["workers"]),
            "simulations": status["simulations"],
            "seconds": seconds,
            "units_per_s": (status["counts"]["total"] / seconds
                            if seconds else 0.0),
        }
        with open(args.bench_out, "w", encoding="utf-8") as handle:
            json.dump(payload, handle, indent=2, sort_keys=True)
            handle.write("\n")
        print(f"wrote {args.bench_out}", file=sys.stderr)
    return 0


def _serve_fsck(args) -> int:
    import json

    from repro.service.health import format_fsck, fsck_store

    store = _serve_store(args)
    if args.job:
        from repro.service.health import FsckReport, fsck_job
        report = FsckReport(repair=args.repair)
        fsck_job(store, args.job, report, repair=args.repair,
                 lease_seconds=args.lease)
        report.workers = store.worker_records()
        report.counters = dict(store.registry.counters())
    else:
        report = fsck_store(store, repair=args.repair,
                            lease_seconds=args.lease)
    if args.json:
        print(json.dumps(report.to_payload(), indent=2, sort_keys=True))
    else:
        print(format_fsck(report))
    if report.clean:
        return 0
    # a repaired store exits 0 (the damage was healed); an audit that
    # found problems exits 1 so scripts can gate on it
    return 0 if args.repair else 1


def _serve_start(args) -> int:
    from repro.service.server import ServiceServer

    store = _serve_store(args)
    server = ServiceServer(store, lease_seconds=args.lease)
    print(f"repro serve {__version__}: watching {store.root} "
          f"(poll {args.poll}s, lease {args.lease}s)", file=sys.stderr)
    summary = server.serve(
        poll=args.poll, until_idle=args.until_idle,
        max_seconds=args.max_seconds,
        emit=lambda line: print(line, file=sys.stderr),
    )
    print(f"serve: polls={summary['polls']} requeued={summary['requeued']} "
          f"orphans-completed={summary['orphans_completed']} "
          f"finalized={summary['finalized']}", file=sys.stderr)
    return 0


def _serve_worker(args) -> int:
    from repro.service.worker import ServiceWorker

    store = _serve_store(args)
    worker = ServiceWorker(store, owner=args.owner,
                           lease_seconds=args.lease,
                           chaos_plan=args.chaos_plan)
    print(f"repro serve worker {worker.owner}: stealing from {store.root}",
          file=sys.stderr)
    summary = worker.run(max_idle=args.max_idle, once=args.once,
                         poll=args.poll)
    print(f"worker {summary['owner']}: units={summary['units_done']} "
          f"failed={summary['units_failed']} "
          f"simulations={summary['simulations']}", file=sys.stderr)
    return 0 if summary["units_failed"] == 0 else 1


def cmd_serve(args) -> int:
    if args.worker:
        return _serve_worker(args)
    command = getattr(args, "serve_command", None)
    if command is None:
        return _serve_start(args)
    return {
        "submit": _serve_submit,
        "status": _serve_status,
        "watch": _serve_watch,
        "fetch": _serve_fetch,
        "fsck": _serve_fsck,
        "start": _serve_start,
    }[command](args)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Warped-DMR (MICRO 2012) reproduction toolkit",
    )
    parser.add_argument("--version", action="version",
                        version=f"repro {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list", help="show the workload registry")

    run_parser = sub.add_parser("run", help="simulate one workload")
    run_parser.add_argument("workload")
    _add_common(run_parser)
    run_parser.add_argument("--no-dmr", action="store_true",
                            help="baseline without error detection")
    run_parser.add_argument("--replayq", type=int, default=10)
    run_parser.add_argument("--mapping", choices=("cross", "inorder"),
                            default="cross")

    figure_parser = sub.add_parser("figure", help="regenerate a figure")
    figure_parser.add_argument("name")
    _add_common(figure_parser)
    figure_parser.add_argument(
        "--jobs", type=int, default=1, metavar="N",
        help="simulate cache misses in N worker processes (default 1)")
    figure_parser.add_argument(
        "--no-cache", action="store_true",
        help="skip the persistent result cache (simulate everything)")
    figure_parser.add_argument(
        "--cache-dir", default=None, metavar="DIR",
        help="result-cache directory (default $REPRO_CACHE_DIR "
             "or ~/.cache/repro)")
    figure_parser.add_argument(
        "--corpus-dir", default=".fuzz-corpus", metavar="DIR",
        help="fuzz corpus for fig-sched (grown on demand)")
    figure_parser.add_argument(
        "--schedules", type=int, default=8,
        help="seeded interleavings to sweep for fig-sched (default 8)")
    figure_parser.add_argument(
        "--kernels", type=int, default=32,
        help="corpus kernels per schedule for fig-sched (default 32)")
    figure_parser.add_argument(
        "--replayq", type=int, default=2,
        help="ReplayQ entries for fig-sched (default 2: small enough "
             "to surface stall pressure on corpus-scale kernels)")
    figure_parser.add_argument(
        "--samples", type=int, default=40,
        help="stratified faults per (workload, scheme) for fig-pareto "
             "(default 40)")
    figure_parser.add_argument(
        "--out", default=None, metavar="FILE",
        help="also write the fig-pareto data as JSON to FILE")

    inject_parser = sub.add_parser("inject", help="fault-injection run")
    inject_parser.add_argument("workload")
    _add_common(inject_parser)
    inject_parser.add_argument("--lane", type=int, default=5)
    inject_parser.add_argument("--bit", type=int, default=2)
    inject_parser.add_argument("--transient-cycle", type=int, default=None,
                               help="inject a one-shot flip at this cycle "
                                    "instead of a stuck-at fault")

    bench_parser = sub.add_parser(
        "bench", help="benchmark the execution engines")
    bench_parser.add_argument("--scale", type=float, default=0.5)
    bench_parser.add_argument("--seed", type=int, default=0)
    bench_parser.add_argument("--iters", type=int, default=200,
                              help="loop trips per microbenchmark kernel")
    bench_parser.add_argument("--quick", action="store_true",
                              help="microbenchmarks only (CI smoke mode)")
    bench_parser.add_argument("--out", default="BENCH_exec.json",
                              metavar="PATH",
                              help="JSON output path (default "
                                   "BENCH_exec.json)")

    campaign_parser = sub.add_parser(
        "campaign", help="scaled fault-injection campaign")
    campaign_parser.add_argument("workload")
    campaign_parser.add_argument("--scale", type=float, default=0.5,
                                 help="problem-size scale in (0, 1] "
                                      "(default 0.5)")
    campaign_parser.add_argument("--sms", type=int, default=1,
                                 help="SM count (campaigns inject into "
                                      "SM 0; default 1)")
    campaign_parser.add_argument("--seed", type=int, default=0,
                                 help="workload-input and fault-sampling "
                                      "seed")
    campaign_parser.add_argument("--samples", type=int, default=200,
                                 help="stratified transient-fault samples "
                                      "(default 200)")
    campaign_parser.add_argument("--parallel", type=int, default=1,
                                 metavar="N",
                                 help="classify cache misses in N worker "
                                      "processes (default 1)")
    campaign_parser.add_argument("--windows", type=int, default=4,
                                 help="cycle windows per stratum "
                                      "(default 4)")
    campaign_parser.add_argument("--confidence", type=float, default=0.95,
                                 help="coverage-interval confidence "
                                      "(default 0.95)")
    campaign_parser.add_argument(
        "--no-cache", action="store_true",
        help="skip the persistent result cache (simulate everything)")
    campaign_parser.add_argument(
        "--cache-dir", default=None, metavar="DIR",
        help="result-cache directory (default $REPRO_CACHE_DIR "
             "or ~/.cache/repro)")
    campaign_parser.add_argument("--out", default="BENCH_campaign.json",
                                 metavar="PATH",
                                 help="JSON output path (default "
                                      "BENCH_campaign.json)")

    trace_parser = sub.add_parser(
        "trace", help="record a Chrome-trace timeline of one workload")
    trace_parser.add_argument("workload")
    _add_common(trace_parser)
    trace_parser.add_argument("--no-dmr", action="store_true",
                              help="trace the baseline without DMR")
    trace_parser.add_argument("--max-events", type=int, default=500_000,
                              help="trace-event cap (default 500000; "
                                   "overflow is counted, not silent)")
    trace_parser.add_argument("--out", default=None, metavar="PATH",
                              help="trace JSON path (default "
                                   "TRACE_<workload>.json)")

    chaos_parser = sub.add_parser(
        "chaos", help="chaos-test the fault-tolerant campaign fan-out")
    chaos_parser.add_argument("workload", nargs="?", default="scan")
    chaos_parser.add_argument("--samples", type=int, default=200,
                              help="faults in the campaign (default 200)")
    chaos_parser.add_argument("--parallel", type=int, default=2,
                              metavar="N",
                              help="worker processes (default 2)")
    chaos_parser.add_argument("--kills", type=int, default=1,
                              help="workers to SIGKILL mid-unit "
                                   "(default 1)")
    chaos_parser.add_argument("--sleeps", type=int, default=0,
                              help="units that oversleep their deadline "
                                   "(requires --task-deadline)")
    chaos_parser.add_argument("--raises", type=int, default=0,
                              help="units that raise a transient "
                                   "exception once")
    chaos_parser.add_argument("--corrupt", type=int, default=1,
                              help="cache entries to corrupt (default 1)")
    chaos_parser.add_argument("--corrupt-mode",
                              choices=("truncate", "bitflip"),
                              default="truncate")
    chaos_parser.add_argument("--task-deadline", type=float, default=None,
                              metavar="SECONDS",
                              help="per-unit wall-clock deadline "
                                   "(chaos sleeps overstay it)")
    chaos_parser.add_argument("--scale", type=float, default=0.5)
    chaos_parser.add_argument("--sms", type=int, default=1)
    chaos_parser.add_argument("--seed", type=int, default=0)
    chaos_parser.add_argument("--out", default="CHAOS_report.json",
                              metavar="PATH",
                              help="JSON report path (default "
                                   "CHAOS_report.json)")
    chaos_parser.add_argument(
        "--fabric", action="store_true",
        help="attack the service fabric (job store + real worker "
             "processes) instead of a campaign fan-out: store "
             "corruption, lease clock skew, torn temp files, SIGKILLs "
             "— then fsck --repair + a fleet must reconverge")
    chaos_parser.add_argument(
        "--workers", type=int, default=2, metavar="N",
        help="OS worker processes for --fabric (default 2)")
    chaos_parser.add_argument(
        "--skew", type=float, default=3600.0, metavar="SECONDS",
        help="lease clock skew injected by --fabric (default 3600)")
    chaos_parser.add_argument(
        "--unit-size", type=int, default=8, metavar="N",
        help="faults per work unit for --fabric (default 8)")
    chaos_parser.add_argument(
        "--lease", type=float, default=1.0, metavar="SECONDS",
        help="claim lease for the --fabric fleet (default 1)")

    fuzz_parser = sub.add_parser(
        "fuzz", help="grow/replay/minimize the differential kernel corpus")
    fuzz_parser.add_argument(
        "--count", type=int, default=64,
        help="kernels to generate when growing (default 64)")
    fuzz_parser.add_argument("--seed", type=int, default=0,
                             help="campaign seed (default 0)")
    fuzz_parser.add_argument(
        "--corpus-dir", default=".fuzz-corpus", metavar="DIR",
        help="corpus directory (default .fuzz-corpus)")
    fuzz_parser.add_argument("--sms", type=int, default=2,
                             help="simulated SMs for validation runs")
    fuzz_parser.add_argument(
        "--replay", action="store_true",
        help="re-validate every stored kernel instead of growing")
    fuzz_parser.add_argument(
        "--minimize", default=None, metavar="DIGEST",
        help="NOP-minimize one stored kernel and add the result")
    fuzz_parser.add_argument(
        "--out", default="FUZZ_report.json", metavar="FILE",
        help="machine-readable report path (default FUZZ_report.json)")

    metrics_parser = sub.add_parser(
        "metrics", help="print the aggregated metrics snapshot")
    metrics_parser.add_argument("workload", nargs="?", default=None,
                                help="one workload (default: whole suite)")
    _add_common(metrics_parser)
    metrics_parser.add_argument("--no-dmr", action="store_true",
                                help="measure the baseline without DMR")
    metrics_parser.add_argument(
        "--jobs", type=int, default=1, metavar="N",
        help="simulate suite workloads in N worker processes (default 1)")

    # serve: the distributed campaign fabric.  --store/--cache-dir are
    # accepted both before and after the sub-subcommand; the leaf
    # copies default to SUPPRESS so a value parsed at either position
    # survives into the shared namespace.
    store_parent = argparse.ArgumentParser(add_help=False)
    store_parent.add_argument(
        "--store", default=argparse.SUPPRESS, metavar="DIR",
        help="job-store directory (default <result-cache>/service)")
    store_parent.add_argument(
        "--cache-dir", default=argparse.SUPPRESS, metavar="DIR",
        help="classification cache shared by all workers "
             "(default <store>/cache)")

    serve_parser = sub.add_parser(
        "serve", parents=[store_parent],
        help="distributed campaign fabric: submit/status/watch/fetch "
             "jobs, run workers (--worker) or the server loop")
    serve_parser.add_argument(
        "--worker", action="store_true",
        help="run a work-stealing worker loop instead of the server")
    serve_parser.add_argument(
        "--owner", default=None, metavar="ID",
        help="worker identity (default host-pid-nonce)")
    serve_parser.add_argument(
        "--max-idle", type=float, default=5.0, metavar="SECONDS",
        help="worker exits after this long with nothing claimable "
             "(default 5)")
    serve_parser.add_argument(
        "--once", action="store_true",
        help="worker makes a single claim attempt and exits")
    serve_parser.add_argument(
        "--poll", type=float, default=0.5, metavar="SECONDS",
        help="idle poll interval for workers and the server (default 0.5)")
    serve_parser.add_argument(
        "--lease", type=float, default=300.0, metavar="SECONDS",
        help="claim lease before a unit is stealable (default 300)")
    serve_parser.add_argument(
        "--until-idle", action="store_true",
        help="server exits once every job is finished")
    serve_parser.add_argument(
        "--max-seconds", type=float, default=None, metavar="SECONDS",
        help="server exits after this long regardless")
    serve_parser.add_argument(
        "--chaos-plan", default=None, metavar="DIR",
        help="fire chaos events (kill/sleep/raise markers) from this plan "
             "directory between claim and execution (testing)")

    serve_sub = serve_parser.add_subparsers(dest="serve_command")

    submit_parser = serve_sub.add_parser(
        "submit", parents=[store_parent],
        help="plan a campaign or figure job into the store")
    submit_parser.add_argument("kind", choices=("campaign", "figure"))
    submit_parser.add_argument(
        "target", help="workload name (campaign) or figure name (figure)")
    submit_parser.add_argument("--samples", type=int, default=200,
                               help="stratified fault samples (campaign; "
                                    "default 200)")
    submit_parser.add_argument("--windows", type=int, default=4,
                               help="cycle windows per stratum (campaign; "
                                    "default 4)")
    submit_parser.add_argument("--scale", type=float, default=0.5)
    submit_parser.add_argument("--sms", type=int, default=1)
    submit_parser.add_argument("--seed", type=int, default=0)
    submit_parser.add_argument("--unit-size", type=int, default=25,
                               metavar="N",
                               help="faults (or suite cells) per work "
                                    "unit (default 25)")
    submit_parser.add_argument("--epoch", type=int, default=0,
                               help="bump to force a fresh job over the "
                                    "same warm classification cache")
    submit_parser.add_argument("--json", action="store_true",
                               help="print the submission as JSON")

    status_parser = serve_sub.add_parser(
        "status", parents=[store_parent],
        help="show one job's (or the whole store's) status")
    status_parser.add_argument("job", nargs="?", default=None)
    status_parser.add_argument("--json", action="store_true")

    watch_parser = serve_sub.add_parser(
        "watch", parents=[store_parent],
        help="stream a job's progress until it finishes")
    watch_parser.add_argument("job")
    watch_parser.add_argument("--timeout", type=float, default=600.0)
    watch_parser.add_argument("--interval", type=float, default=0.2)

    fetch_parser = serve_sub.add_parser(
        "fetch", parents=[store_parent],
        help="fetch a finished job's merged output")
    fetch_parser.add_argument("job")
    fetch_parser.add_argument("--out", default=None, metavar="FILE",
                              help="write the merged JSON here instead "
                                   "of stdout")
    fetch_parser.add_argument("--bench-out", default=None, metavar="FILE",
                              help="also write a throughput artifact "
                                   "(e.g. BENCH_service.json)")

    fsck_parser = serve_sub.add_parser(
        "fsck", parents=[store_parent],
        help="audit the store: re-digest every artifact, report "
             "torn/foreign/orphaned files (--repair to heal)")
    fsck_parser.add_argument("job", nargs="?", default=None,
                             help="audit one job (default: whole store)")
    fsck_parser.add_argument(
        "--repair", action="store_true",
        help="quarantine corrupt artifacts, requeue expired claims, "
             "regenerate lost units")
    fsck_parser.add_argument(
        "--lease", type=float, default=argparse.SUPPRESS,
        help="claim lease used when completing/requeueing expired "
             "claims during --repair (default 300)")
    fsck_parser.add_argument("--json", action="store_true",
                             help="print the full report as JSON")

    start_parser = serve_sub.add_parser(
        "start", parents=[store_parent],
        help="run the janitor/observer server loop (same as bare serve)")
    start_parser.add_argument("--poll", type=float,
                              default=argparse.SUPPRESS)
    start_parser.add_argument("--lease", type=float,
                              default=argparse.SUPPRESS)
    start_parser.add_argument("--until-idle", action="store_true",
                              default=argparse.SUPPRESS)
    start_parser.add_argument("--max-seconds", type=float,
                              default=argparse.SUPPRESS)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    handler = {
        "list": cmd_list,
        "run": cmd_run,
        "figure": cmd_figure,
        "inject": cmd_inject,
        "bench": cmd_bench,
        "campaign": cmd_campaign,
        "trace": cmd_trace,
        "chaos": cmd_chaos,
        "metrics": cmd_metrics,
        "fuzz": cmd_fuzz,
        "serve": cmd_serve,
    }[args.command]
    return handler(args)


if __name__ == "__main__":
    sys.exit(main())
