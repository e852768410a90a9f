"""``repro.resilience``: fault tolerance for the simulation fleet.

Warped-DMR's premise is detecting faults in an unreliable substrate;
this package applies the same discipline to the harness's own substrate
— worker processes and the on-disk result cache.  Parallel fan-outs
run as private job-store jobs (:func:`repro.service.worker.run_fleet`),
so they share the service fabric's claim protocol, attempt budget
(:data:`~repro.common.errors.MAX_ATTEMPTS`) and poison diagnosis; this
package holds what sits around them:

* :mod:`repro.resilience.deadline` — the single home of deadline
  calibration: the PR 3 cycle-budget watchdog (:func:`cycle_budget`,
  classifying livelocked faulty runs ``HUNG``) and its wall-clock
  analogue (:func:`wall_budget`, bounding fan-out units).
* :mod:`repro.resilience.chaos` — harness-level fault injection
  (worker SIGKILL, deadline overruns, raising workers, cache and store
  corruption) and the scenario drivers behind ``python -m repro
  chaos``, which assert chaotic campaigns converge byte-identically to
  unfaulted serial runs.  Imported lazily (as a submodule) because it
  reaches back into the campaign layer.

What a fan-out absorbs is counted through the PR 4 ``repro.obs``
registry under the :data:`HARNESS_COUNTERS` names and surfaces in
``python -m repro metrics``.
"""

from repro.common.errors import (
    HarnessError,
    PermanentSimFailure,
    PoisonedTask,
    TaskTimeout,
    TransientWorkerFailure,
)
from repro.obs.metrics import MetricsRegistry
from repro.resilience.deadline import (
    DEFAULT_MAX_FAULTY_CYCLES,
    DEFAULT_MAX_TASK_SECONDS,
    DEFAULT_WALL_FACTOR,
    DEFAULT_WALL_SLACK,
    DEFAULT_WATCHDOG_FACTOR,
    DEFAULT_WATCHDOG_SLACK,
    cycle_budget,
    wall_budget,
)

#: counters the fan-out fleet and the result cache maintain, declared
#: eagerly so the metrics CLI lists them (at zero) on an uneventful run
HARNESS_COUNTERS = (
    "fanout_retries",
    "fanout_timeouts",
    "fanout_worker_deaths",
    "cache_corrupt_entries",
    "cache_quarantined",
)


def declare_harness_metrics(registry: MetricsRegistry) -> MetricsRegistry:
    """Pre-create every harness counter at zero in *registry*."""
    for name in HARNESS_COUNTERS:
        registry.counter(name)
    return registry


__all__ = [
    "DEFAULT_MAX_FAULTY_CYCLES",
    "DEFAULT_MAX_TASK_SECONDS",
    "DEFAULT_WALL_FACTOR",
    "DEFAULT_WALL_SLACK",
    "DEFAULT_WATCHDOG_FACTOR",
    "DEFAULT_WATCHDOG_SLACK",
    "HARNESS_COUNTERS",
    "HarnessError",
    "PermanentSimFailure",
    "PoisonedTask",
    "TaskTimeout",
    "TransientWorkerFailure",
    "cycle_budget",
    "declare_harness_metrics",
    "wall_budget",
]
