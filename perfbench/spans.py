"""Spans around the program's public calls, and their per-layer fold.

The traced run wraps public functions and methods of ``repro`` from
here, outside the program: each wrapper records a :class:`Span` (name,
op id, parent span, wall and CPU start/end) in memory, and the spans
are folded into per-layer self time and written out when the run ends.

Three controller methods run once per simulated issue, far too often
to record a span each: they are recorded as *leaves*, a call count and
a wall total per (parent span, name), and their CPU time is taken to
equal their wall time.  Nothing here attaches issue listeners or obs
sessions: either would turn region fusion off and time a different
program.
"""

from __future__ import annotations

import collections
import functools
import os
import sys
import time
from dataclasses import dataclass
from typing import Callable, Dict, Iterable, List, Optional, Tuple

#: op id of everything recorded outside a measured op
SETUP = "setup"

#: name of the root span of each measured op; its self time is the op
#: time no layer claims
OP = "op"

#: suffix of the name of a span whose call raised (a HUNG launch)
RAISED = ".raised"


@dataclass
class Span:
    id: int
    name: str
    op: str
    parent: Optional[int]
    wall0: float
    cpu0: float
    wall1: float = 0.0
    cpu1: float = 0.0
    attrs: Optional[dict] = None

    @property
    def wall(self) -> float:
        return self.wall1 - self.wall0

    @property
    def cpu(self) -> float:
        return self.cpu1 - self.cpu0


def layer_of(name: str) -> str:
    """The layer a span name belongs to: its first dotted component."""
    return "unattributed" if name == OP else name.split(".", 1)[0]


class Recorder:
    """In-memory span store for one traced pass (single-threaded)."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        #: (parent span id, op, name) -> [calls, wall seconds]
        self.leaves: Dict[Tuple[Optional[int], str, str], List] = {}
        #: counts recorded inside measured ops
        self.counts: collections.Counter = collections.Counter()
        self.op = SETUP
        self._stack: List[Span] = []

    def start(self, name: str) -> Span:
        parent = self._stack[-1].id if self._stack else None
        span = Span(len(self.spans), name, self.op, parent,
                    time.perf_counter(), time.process_time())
        self.spans.append(span)
        self._stack.append(span)
        return span

    def finish(self, span: Span) -> None:
        span.wall1 = time.perf_counter()
        span.cpu1 = time.process_time()
        top = self._stack.pop()
        if top is not span:
            raise RuntimeError(f"span {span.name} closed out of order")

    def leaf(self, name: str, wall: float) -> None:
        parent = self._stack[-1].id if self._stack else None
        entry = self.leaves.setdefault((parent, self.op, name), [0, 0.0])
        entry[0] += 1
        entry[1] += wall

    def count(self, name: str, amount: float = 1) -> None:
        if self.op != SETUP:
            self.counts[name] += amount

    def begin_op(self, op_id: str) -> Span:
        self.op = op_id
        return self.start(OP)

    def end_op(self, span: Span) -> None:
        self.finish(span)
        self.op = SETUP


@dataclass
class Row:
    """Folded self time of one span name."""

    calls: int = 0
    wall: float = 0.0
    cpu: float = 0.0

    @property
    def wait(self) -> float:
        return max(0.0, self.wall - self.cpu)


def fold(spans: Iterable[Span], leaves: Dict, *,
         include: Callable[[str], bool] = lambda op: True
         ) -> Dict[str, Row]:
    """Self time per span name over the spans whose op passes *include*.

    A span's self time is its own duration minus the durations of its
    direct children (spans and leaves); leaves have no children.
    """
    spans = list(spans)
    child_wall: Dict[int, float] = collections.defaultdict(float)
    child_cpu: Dict[int, float] = collections.defaultdict(float)
    for span in spans:
        if span.parent is not None:
            child_wall[span.parent] += span.wall
            child_cpu[span.parent] += span.cpu
    for (parent, _, _), (_, wall) in leaves.items():
        if parent is not None:
            child_wall[parent] += wall
            child_cpu[parent] += wall
    rows: Dict[str, Row] = collections.defaultdict(Row)
    for span in spans:
        if not include(span.op):
            continue
        row = rows[span.name]
        row.calls += 1
        row.wall += span.wall - child_wall[span.id]
        row.cpu += span.cpu - child_cpu[span.id]
    for (_, op, name), (calls, wall) in leaves.items():
        if include(op):
            row = rows[name]
            row.calls += calls
            row.wall += wall
            row.cpu += wall
    return dict(rows)


# ----------------------------------------------------------------------
# Wrappers
# ----------------------------------------------------------------------
#: per-layer count metric -> KernelResult.stats counter
SIM_COUNTERS = {
    "sim.thread_instructions": "thread_instructions",
    "sim.warp_instructions": "instructions_issued",
    "core.cycles_dmr_stall": "cycles_dmr_stall",
    "core.replayq_full_stalls": "replayq_full_stalls",
    "core.verified_lanes": "coverage_verified_lanes",
}


class Probe:
    """Installs the benchmark's wrappers into ``repro`` and undoes them.

    :meth:`install_counter` counts GPU launches for the rest of the
    process and is used by every run (a warm op that launches a
    simulation fails its check).  :meth:`install_tracing` adds the spans
    of the traced run, and :meth:`uninstall` takes only those away.
    """

    def __init__(self) -> None:
        self.launches = 0
        self.recorder: Optional[Recorder] = None
        self._undo: List[Tuple[object, str, object]] = []

    # -- patching ------------------------------------------------------
    def _patch_attr(self, owner, name: str, make: Callable) -> None:
        original = owner.__dict__[name]
        setattr(owner, name, make(original))
        self._undo.append((owner, name, original))

    def _patch_function(self, fn, make: Callable) -> None:
        """Replace a module-level function everywhere it is bound by name
        (``from module import fn`` copies the binding)."""
        wrapped = make(fn)
        for module in list(sys.modules.values()):
            if getattr(module, "__dict__", {}).get(fn.__name__) is fn:
                setattr(module, fn.__name__, wrapped)
                self._undo.append((module, fn.__name__, fn))

    def uninstall(self) -> None:
        """Undo :meth:`install_tracing`; the launch counter stays."""
        for owner, name, original in reversed(self._undo):
            setattr(owner, name, original)
        self._undo.clear()
        self.recorder = None

    # -- wrapper factories ---------------------------------------------
    def _span(self, name, on_return: Optional[Callable] = None):
        """Wrapper factory: one span per call; *name* may be a callable
        of the call's positional arguments.  A call that raises gets
        ``.raised`` appended to its span's name."""
        recorder = self.recorder

        def make(fn):
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                span = recorder.start(name if isinstance(name, str)
                                      else name(args))
                try:
                    result = fn(*args, **kwargs)
                except BaseException:
                    span.name += RAISED
                    raise
                finally:
                    recorder.finish(span)
                if on_return is not None:
                    on_return(span, args, result)
                return result
            return wrapper
        return make

    def _leaf(self, name: str):
        recorder = self.recorder
        clock = time.perf_counter

        def make(fn):
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                start = clock()
                try:
                    return fn(*args, **kwargs)
                finally:
                    recorder.leaf(name, clock() - start)
            return wrapper
        return make

    def _counted(self, name: str):
        recorder = self.recorder

        def make(fn):
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                recorder.count(name)
                return fn(*args, **kwargs)
            return wrapper
        return make

    def _growth(self, attr: str, name: str):
        """Wrapper factory: counts how much ``obj.<attr>`` grows over
        the outermost wrapped call on each object."""
        recorder = self.recorder
        active = set()

        def make(fn):
            @functools.wraps(fn)
            def wrapper(obj, *args, **kwargs):
                if id(obj) in active:
                    return fn(obj, *args, **kwargs)
                active.add(id(obj))
                before = getattr(obj, attr)
                try:
                    return fn(obj, *args, **kwargs)
                finally:
                    active.discard(id(obj))
                    recorder.count(name, getattr(obj, attr) - before)
            return wrapper
        return make

    # -- installation --------------------------------------------------
    def install_counter(self) -> None:
        from repro.sim.gpu import GPU
        launch = GPU.__dict__["launch"]

        @functools.wraps(launch)
        def counted(*args, **kwargs):
            self.launches += 1
            return launch(*args, **kwargs)
        GPU.launch = counted

    def install_tracing(self, recorder: Recorder) -> None:
        from repro.analysis.result_cache import ResultCache
        from repro.analysis.runner import SuiteRunner
        from repro.core.dmr_controller import DMRController
        from repro.faults import campaign
        from repro.obs import aggregate_payloads
        from repro.service import jobs
        from repro.service.store import JobStore
        from repro.service.worker import ServiceWorker
        from repro.sim.gpu import GPU
        from repro.sim.sm import SM
        from repro.workloads import all_workloads

        self.recorder = recorder
        span, leaf, counted = self._span, self._leaf, self._counted

        # workloads: prepare, and the prepared run's output check
        def wrap_run(_, args, run):
            check = span("workloads.check")
            run.check = check(run.check)
            run.output_of = check(run.output_of)
        for cls in {type(w) for w in all_workloads().values()}:
            self._patch_attr(cls, "prepare",
                             span("workloads.prepare", wrap_run))

        # sim: launches and the simulated counters they return
        def launched(_, args, result):
            stats = result.stats
            recorder.count("sim.launches")
            recorder.count("sim.cycles", result.cycles)
            for metric, counter in SIM_COUNTERS.items():
                recorder.count(metric, stats.value(counter))
        self._patch_attr(GPU, "launch", span("sim.launch", launched))
        self._patch_attr(SM, "run", span("sim.sm_run"))

        # core: per-issue controller calls, recorded as leaves
        for method in ("on_issue", "check_raw", "on_kernel_end"):
            self._patch_attr(DMRController, method, leaf(f"core.{method}"))

        # faults
        def classified(span_, args, run):
            outcome = run.outcome.value
            span_.attrs = {"outcome": outcome}
            recorder.count(f"faults.outcome.{outcome}")
            recorder.count("faults.run_fault_s", span_.wall)
            if outcome == "hung":
                recorder.count("faults.hung_s", span_.wall)
        self._patch_function(
            campaign.run_single_fault,
            span(lambda args: f"faults.run_fault.{args[0].scheme}",
                 classified))
        self._patch_attr(campaign.CampaignEngine, "golden_result",
                         span("faults.golden"))
        self._patch_function(campaign.fault_run_key, span("faults.key"))
        simulated = self._growth("simulations", "analysis.simulations")
        for method in ("run_fault", "run"):
            self._patch_attr(campaign.CampaignEngine, method, simulated)

        # obs: snapshot merging
        merge = span("obs.merge")

        def make_aggregate(fn):
            traced = merge(fn)

            @functools.wraps(fn)
            def wrapper(payloads):
                payloads = list(payloads)
                recorder.count("obs.snapshots",
                               sum(p is not None for p in payloads))
                return traced(payloads)
            return wrapper
        self._patch_function(aggregate_payloads, make_aggregate)
        self._patch_attr(campaign.CampaignResult, "metrics", merge)

        # analysis: the suite runner and the figure drivers
        for method in ("run", "run_many"):
            self._patch_attr(SuiteRunner, method, span("analysis.runner"))
            self._patch_attr(SuiteRunner, method, simulated)
        for _, run_fn, format_fn in jobs.figure_registry().values():
            self._patch_function(run_fn, span("analysis.figure"))
            self._patch_function(format_fn, span("analysis.figure"))

        # result_cache
        def got(_, args, payload):
            recorder.count("result_cache.gets")
            if payload is not None:
                recorder.count("result_cache.hits")

        def put(_, args, __):
            cache, key = args[0], args[1]
            recorder.count("result_cache.puts")
            recorder.count("result_cache.bytes",
                           os.stat(cache._path(key)).st_size)
        self._patch_attr(ResultCache, "get", span("result_cache.get"))
        self._patch_attr(ResultCache, "get_payload",
                         span("result_cache.get", got))
        self._patch_attr(ResultCache, "put", span("result_cache.put"))
        self._patch_attr(ResultCache, "put_payload",
                         span("result_cache.put", put))
        self._patch_attr(ResultCache, "get_payload",
                         self._growth("corrupt", "result_cache.corrupt"))

        # service
        for fn in (jobs.submit_figure_job, jobs.submit_campaign_job):
            self._patch_function(fn, span("service.submit"))
        self._patch_function(jobs.execute_unit, span("service.execute"))
        for fn in (jobs.merge_job, jobs.finalize_job):
            self._patch_function(fn, span("service.merge"))
        self._patch_attr(JobStore, "check_admission",
                         span("service.admission"))
        self._patch_attr(JobStore, "claim_unit", span("service.claim"))
        for method in ("publish_result", "publish_telemetry",
                       "complete_unit"):
            self._patch_attr(JobStore, method, span("service.publish"))
        self._patch_attr(JobStore, "read_merged", span("service.fetch"))
        self._patch_attr(JobStore, "list_jobs",
                         counted("service.list_jobs_calls"))
        self._patch_attr(JobStore, "load_job",
                         counted("service.load_job_calls"))

        def passed(span_, _, result):
            if result is None:
                span_.name = "service.idle_pass"
        self._patch_attr(ServiceWorker, "run_once",
                         span("service.worker", passed))


# ----------------------------------------------------------------------
# Per-layer metrics and export
# ----------------------------------------------------------------------
#: (name, unit, better) of every per-layer metric the traced run prints;
#: ``_ms`` metrics are wall self time per measured op, counts are per
#: traced pass.
PER_LAYER = [
    ("workloads.prepare_ms", "ms", "lower"),
    ("workloads.check_ms", "ms", "lower"),
    ("sim.launch_ms", "ms", "lower"),
    ("sim.us_per_kinst", "us", "lower"),
    ("sim.launches", "count", "lower"),
    ("sim.thread_instructions", "count", "lower"),
    ("sim.warp_instructions", "count", "lower"),
    ("sim.cycles", "count", "lower"),
    ("core.on_issue_ms", "ms", "lower"),
    ("core.on_issue_calls", "count", "lower"),
    ("core.cycles_dmr_stall", "count", "lower"),
    ("core.replayq_full_stalls", "count", "lower"),
    ("core.verified_lanes", "count", "higher"),
    ("faults.run_fault_ms.dmr", "ms", "lower"),
    ("faults.run_fault_ms.secded", "ms", "lower"),
    ("faults.golden_ms", "ms", "lower"),
    ("faults.key_us", "us", "lower"),
    ("faults.outcome.detected", "count", "higher"),
    ("faults.outcome.due", "count", "higher"),
    ("faults.outcome.sdc", "count", "lower"),
    ("faults.outcome.masked", "count", "higher"),
    ("faults.outcome.hung", "count", "lower"),
    ("faults.hung_time_share", "ratio", "lower"),
    ("obs.merge_ms", "ms", "lower"),
    ("obs.snapshots", "count", "lower"),
    ("analysis.runner_ms", "ms", "lower"),
    ("analysis.figure_ms", "ms", "lower"),
    ("analysis.simulations", "count", "lower"),
    ("result_cache.put_ms", "ms", "lower"),
    ("result_cache.puts", "count", "lower"),
    ("result_cache.kb_written", "KB", "lower"),
    ("result_cache.get_ms", "ms", "lower"),
    ("result_cache.gets", "count", "lower"),
    ("result_cache.hit_ratio", "ratio", "higher"),
    ("result_cache.wait_ms", "ms", "lower"),
    ("result_cache.corrupt", "count", "lower"),
    ("service.submit_ms", "ms", "lower"),
    ("service.admission_ms", "ms", "lower"),
    ("service.claim_ms", "ms", "lower"),
    ("service.publish_ms", "ms", "lower"),
    ("service.execute_ms", "ms", "lower"),
    ("service.merge_ms", "ms", "lower"),
    ("service.worker_ms", "ms", "lower"),
    ("service.idle_pass_ms", "ms", "lower"),
    ("service.fetch_ms", "ms", "lower"),
    ("service.list_jobs_calls", "count", "lower"),
    ("service.load_job_calls", "count", "lower"),
    ("service.jobs_stored", "count", "lower"),
    ("service.wait_ms", "ms", "lower"),
    ("service.quarantined", "count", "lower"),
    ("unattributed_ms", "ms", "lower"),
    ("trace.ops_per_s", "op/s", "higher"),
    ("trace.untraced_ops_per_s", "op/s", "higher"),
    ("trace.overhead_ratio", "ratio", "lower"),
]


def layer_metrics(recorder: Recorder, ops: int, *, speed: float,
                  traced_ops_per_s: float, untraced_ops_per_s: float,
                  jobs_stored: int, quarantined: int) -> Dict[str, float]:
    """Every :data:`PER_LAYER` metric of one traced pass of *ops* ops.

    Times are scaled to the reference host by the pass's *speed*.
    """
    rows = fold(recorder.spans, recorder.leaves,
                include=lambda op: op != SETUP)
    # golden runs are set-up work: fold them over the whole pass
    golden = fold(recorder.spans, recorder.leaves).get("faults.golden",
                                                       Row())
    counts = recorder.counts
    empty = Row()

    def ms(*names: str) -> float:
        return 1e3 * speed * sum(rows.get(n, empty).wall
                                 for n in names) / ops

    def wait_ms(layer: str) -> float:
        return 1e3 * speed * sum(row.wait for name, row in rows.items()
                                 if layer_of(name) == layer) / ops

    def ratio(part: float, whole: float) -> float:
        return part / whole if whole else 0.0

    key = rows.get("faults.key", empty)
    # launches that raised (HUNG runs) return no instruction counts
    sim_s = sum(rows.get(n, empty).wall for n in ("sim.launch", "sim.sm_run"))
    values = {
        "workloads.prepare_ms": ms("workloads.prepare"),
        "workloads.check_ms": ms("workloads.check"),
        "sim.launch_ms": ms("sim.launch", "sim.sm_run", "sim.launch" + RAISED,
                            "sim.sm_run" + RAISED),
        "sim.us_per_kinst": ratio(1e6 * speed * sim_s,
                                  counts["sim.thread_instructions"] / 1e3),
        "core.on_issue_ms": ms("core.on_issue", "core.check_raw",
                               "core.on_kernel_end"),
        "core.on_issue_calls": rows.get("core.on_issue", empty).calls,
        "faults.run_fault_ms.dmr": ms("faults.run_fault.dmr"),
        "faults.run_fault_ms.secded": ms("faults.run_fault.secded"),
        "faults.golden_ms": 1e3 * speed * golden.wall / ops,
        "faults.key_us": ratio(1e6 * speed * key.wall, key.calls),
        "faults.hung_time_share": ratio(counts["faults.hung_s"],
                                        counts["faults.run_fault_s"]),
        "obs.merge_ms": ms("obs.merge"),
        "analysis.runner_ms": ms("analysis.runner"),
        "analysis.figure_ms": ms("analysis.figure"),
        "result_cache.put_ms": ms("result_cache.put"),
        "result_cache.kb_written": counts["result_cache.bytes"] / 1024,
        "result_cache.get_ms": ms("result_cache.get"),
        "result_cache.hit_ratio": ratio(counts["result_cache.hits"],
                                        counts["result_cache.gets"]),
        "result_cache.wait_ms": wait_ms("result_cache"),
        "service.submit_ms": ms("service.submit"),
        "service.admission_ms": ms("service.admission"),
        "service.claim_ms": ms("service.claim"),
        "service.publish_ms": ms("service.publish"),
        "service.execute_ms": ms("service.execute"),
        "service.merge_ms": ms("service.merge"),
        "service.worker_ms": ms("service.worker"),
        "service.idle_pass_ms": ms("service.idle_pass"),
        "service.fetch_ms": ms("service.fetch"),
        "service.jobs_stored": jobs_stored,
        "service.wait_ms": wait_ms("service"),
        "service.quarantined": quarantined,
        "unattributed_ms": ms(OP),
        "trace.ops_per_s": traced_ops_per_s,
        "trace.untraced_ops_per_s": untraced_ops_per_s,
        "trace.overhead_ratio": ratio(untraced_ops_per_s, traced_ops_per_s),
    }
    for name, _, _ in PER_LAYER:
        if name not in values:
            values[name] = counts[name]
    return values


def folded_table(recorder: Recorder, ops: int) -> dict:
    """Per-span-name and per-layer self time of the measured ops."""
    rows = fold(recorder.spans, recorder.leaves,
                include=lambda op: op != SETUP)
    total = sum(row.wall for row in rows.values()) or 1.0
    layers: Dict[str, Row] = collections.defaultdict(Row)
    for name, row in rows.items():
        layer = layers[layer_of(name)]
        layer.calls += row.calls
        layer.wall += row.wall
        layer.cpu += row.cpu

    def entry(row: Row) -> dict:
        return {"calls": row.calls,
                "wall_self_ms_per_op": 1e3 * row.wall / ops,
                "cpu_self_ms_per_op": 1e3 * row.cpu / ops,
                "wait_ms_per_op": 1e3 * row.wait / ops,
                "share": row.wall / total}
    return {
        "ops": ops,
        "layers": {name: entry(row) for name, row in
                   sorted(layers.items(), key=lambda kv: -kv[1].wall)},
        "spans": {name: entry(row) for name, row in
                  sorted(rows.items(), key=lambda kv: -kv[1].wall)},
    }


def write_chrome_trace(recorder: Recorder, path: str, label: str) -> None:
    """The spans as Chrome trace-event JSON (``repro trace``'s format).

    Leaves appear as ``leaves`` arguments of their parent span.
    """
    from repro.obs.tracer import Tracer

    tracer = Tracer(max_events=max(1, len(recorder.spans)))
    tracer.process_name(1, f"perfbench {label}")
    tracer.thread_name(1, 1, "harness")
    origin = recorder.spans[0].wall0 if recorder.spans else 0.0
    leaves: Dict[int, dict] = collections.defaultdict(dict)
    for (parent, _, name), (calls, wall) in recorder.leaves.items():
        if parent is not None:
            leaves[parent][name] = {"calls": calls,
                                    "wall_us": round(wall * 1e6, 3)}
    for span in recorder.spans:
        args = {"op": span.op, "span": span.id, "parent": span.parent,
                "cpu_us": round(span.cpu * 1e6, 3)}
        if span.attrs:
            args.update(span.attrs)
        if span.id in leaves:
            args["leaves"] = leaves[span.id]
        tracer.duration(1, 1, span.name,
                        ts=round((span.wall0 - origin) * 1e6, 3),
                        dur=round(span.wall * 1e6, 3),
                        args=args, cat=layer_of(span.name))
    tracer.write(path, other_data={"source": "perfbench", "label": label})
