"""``repro.obs``: structured tracing and metrics for the simulator.

The simulator computes fine-grained pipeline behavior every cycle —
ReplayQ occupancy, intra/inter-warp DMR pairing opportunity,
RAW-verification stalls, warp occupancy — and the paper's headline
numbers are aggregates over exactly that behavior.  This package makes
it observable without making it slow:

* :mod:`repro.obs.metrics` — the metric primitives (counters, gauges,
  sparse and fixed-bucket histograms), the :class:`MetricsRegistry`
  every simulator component writes into, and :class:`MetricSnapshot`,
  the plain-data mergeable form
  that workers serialize back to the parent process.  Snapshot merge is
  associative and commutative with the empty snapshot as identity
  (property-tested), so fleet-wide aggregation is deterministic no
  matter how runs are ordered or sharded across processes.
* :mod:`repro.obs.probes` — per-cycle probe hooks the ``SM``,
  ``DMRController``/``ReplayChecker`` and ``WarpScheduler`` call when
  observability is enabled: warp occupancy, DMR pairing outcomes
  (intra vs inter, shuffled lane), ReplayQ depth (polled through a
  bound getter every cycle) and stall-cause attribution.
* :mod:`repro.obs.tracer` — a span/event tracer that exports Chrome
  ``trace_event`` JSON timelines (one process track per SM, one thread
  track per warp) loadable in ``chrome://tracing`` / Perfetto.

The unit of wiring is an :class:`ObsSession`: one per kernel launch,
holding the registry (and optionally the tracer) that every SM's probe
feeds.  ``GPU(obs=...)`` accepts a session, a mode string
(``"metrics"`` / ``"trace"``), or ``True``; the ``REPRO_OBS``
environment variable supplies a default.  Disabled (the default) means
no probe objects exist at all — the hot loops check one attribute
against ``None`` and skip everything else.
"""

from __future__ import annotations

import os
from typing import Iterable, Optional, Union

from repro.obs.metrics import (
    Counter,
    FixedHistogram,
    Gauge,
    Histogram,
    MetricSnapshot,
    MetricsRegistry,
    merge_snapshots,
)
from repro.obs.probes import PipelineProbe
from repro.obs.tracer import Tracer

#: environment variable supplying the default observability mode
OBS_ENV = "REPRO_OBS"

#: recognised mode spellings (beyond bool/None/ObsSession)
_OFF = {"", "0", "off", "none", "false"}
_METRICS = {"1", "on", "true", "metrics"}
_TRACE = {"trace", "2"}


class ObsSession:
    """One kernel launch's observability context.

    Owns the :class:`MetricsRegistry` all SM probes of the launch write
    into and, in trace mode, the :class:`Tracer`.  The GPU asks for one
    :class:`PipelineProbe` per SM via :meth:`probe`; after the launch,
    :meth:`snapshot` yields the mergeable plain-data summary embedded
    into the :class:`~repro.sim.gpu.KernelResult` payload.
    """

    def __init__(self, trace: bool = False,
                 max_trace_events: int = 500_000) -> None:
        self.registry = MetricsRegistry()
        self.tracer: Optional[Tracer] = (
            Tracer(max_events=max_trace_events) if trace else None
        )

    @property
    def tracing(self) -> bool:
        """Whether this session records a Chrome-trace timeline."""
        return self.tracer is not None

    def probe(self, sm_id: int) -> PipelineProbe:
        """A per-SM probe feeding this session's registry and tracer."""
        return PipelineProbe(self.registry, sm_id, tracer=self.tracer)

    def snapshot(self) -> MetricSnapshot:
        """The mergeable plain-data summary of everything recorded."""
        return MetricSnapshot.from_registry(self.registry)


def resolve_obs(arg: Union[None, bool, str, ObsSession]) -> Optional[ObsSession]:
    """Resolve an observability knob into a session (or ``None``).

    ``None`` defers to ``$REPRO_OBS``; ``True``/``"metrics"`` enable
    the registry; ``"trace"`` additionally records a Chrome trace;
    ``False``/``"off"`` disable; a ready session passes through.
    """
    if isinstance(arg, ObsSession):
        return arg
    if arg is None:
        arg = os.environ.get(OBS_ENV, "")
    if arg is True:
        return ObsSession()
    if arg is False:
        return None
    mode = str(arg).strip().lower()
    if mode in _OFF:
        return None
    if mode in _METRICS:
        return ObsSession()
    if mode in _TRACE:
        return ObsSession(trace=True)
    raise ValueError(
        f"unknown observability mode {arg!r}; expected one of "
        "off/metrics/trace (or a bool / ObsSession)"
    )


def aggregate_payloads(payloads: Iterable[Optional[dict]]) -> MetricSnapshot:
    """Merge snapshot payloads (``None`` entries skipped) into one.

    The parent-side aggregation primitive: suite runners and campaign
    engines collect per-run snapshot payloads (from live workers or
    warm cache hits alike) and fold them here.  Merge commutativity
    makes the result independent of completion order; canonical
    serialization makes it byte-identical between serial and parallel
    runs.
    """
    return merge_snapshots(
        MetricSnapshot.from_payload(payload)
        for payload in payloads if payload is not None
    )


__all__ = [
    "Counter",
    "FixedHistogram",
    "Gauge",
    "Histogram",
    "MetricSnapshot",
    "MetricsRegistry",
    "ObsSession",
    "OBS_ENV",
    "PipelineProbe",
    "Tracer",
    "aggregate_payloads",
    "merge_snapshots",
    "resolve_obs",
]
