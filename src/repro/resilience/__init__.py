"""``repro.resilience``: supervision for the simulation fleet.

Warped-DMR's premise is detecting faults in an unreliable substrate;
this package applies the same discipline to the harness's own substrate
— worker processes, the process pool, and the on-disk result cache:

* :mod:`repro.resilience.policy` — :class:`RetryPolicy`, deterministic
  exponential backoff with bounded jitter (no global ``random`` state).
* :mod:`repro.resilience.deadline` — the single home of deadline
  calibration: the PR 3 cycle-budget watchdog (:func:`cycle_budget`,
  classifying livelocked faulty runs ``HUNG``) and its wall-clock
  analogue (:func:`wall_budget`, bounding supervised tasks).
* :mod:`repro.resilience.supervisor` — :class:`Supervisor`, the
  resilient ordered map every ``ProcessPoolExecutor`` fan-out (the
  one ``CachedFanout``) routes through: per-task wall-clock
  timeouts, retry-with-backoff under a structured failure taxonomy
  (:class:`~repro.common.errors.TransientWorkerFailure` /
  :class:`~repro.common.errors.PermanentSimFailure` /
  :class:`~repro.common.errors.PoisonedTask`), and broken-pool
  recovery that salvages completed results and resubmits only the
  lost in-flight tasks.
* :mod:`repro.resilience.chaos` — harness-level fault injection
  (worker SIGKILL, deadline overruns, raising workers/initializers,
  cache corruption) and the scenario driver behind ``python -m repro
  chaos``, which asserts chaotic campaigns converge byte-identically
  to unfaulted serial runs.  Imported lazily (as a submodule) because
  it reaches back into the campaign layer.

Everything the supervisor absorbs is counted through the PR 4
``repro.obs`` registry under ``resilience_*`` / ``cache_*`` names and
surfaces in ``python -m repro metrics``.
"""

from repro.common.errors import (
    HarnessError,
    PermanentSimFailure,
    PoisonedTask,
    TaskTimeout,
    TransientWorkerFailure,
)
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
from repro.resilience.policy import RetryPolicy
from repro.resilience.supervisor import (
    HARNESS_COUNTERS,
    Supervisor,
    classify_failure,
    declare_harness_metrics,
)

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
    "RetryPolicy",
    "Supervisor",
    "TaskTimeout",
    "TransientWorkerFailure",
    "classify_failure",
    "cycle_budget",
    "declare_harness_metrics",
    "wall_budget",
]
