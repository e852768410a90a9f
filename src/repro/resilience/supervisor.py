"""Supervised process-pool fan-out: timeouts, retries, pool recovery.

A plain process-pool map assumes its workers never fail: one hung
simulation, one OOM-killed worker or one exception wedges or kills an
entire multi-thousand-run campaign.  :class:`Supervisor` keeps the plain
map's contract — map a picklable module-level function over plain-data
args, preserve order — and adds the discipline the paper applies to
SIMT lanes:

* **Deadlines.**  Each task may carry a wall-clock deadline (a float,
  or a callable of the task arg — campaigns calibrate it from the
  golden runtime via :func:`repro.resilience.deadline.wall_budget`).
  An expired task is reported as a structured
  :class:`~repro.common.errors.TaskTimeout`, its wedged worker is
  killed, and the pool is rebuilt — the suite's wall clock stays
  bounded at ~deadline + one backoff per allowed retry.
* **Retry with backoff.**  Failures are classified by
  :func:`repro.common.errors.failure_kind`: transient ones — dead
  workers, broken pools, timeouts, flaky exceptions — retry under the
  :class:`~repro.resilience.policy.RetryPolicy` with deterministic
  exponential backoff; deterministic ones (:class:`ReproError`,
  ``AssertionError`` from a failed output check) fail fast as
  :class:`~repro.common.errors.PermanentSimFailure`; a task that
  exhausts its budget raises :class:`~repro.common.errors.PoisonedTask`
  with the last failure as ``__cause__``.
* **Pool recovery.**  A ``BrokenExecutor`` rebuilds the pool: results
  already completed are kept, only the in-flight tasks are resubmitted
  (each charged one attempt — the culprit is indistinguishable from
  its pool-mates), and queued tasks are never charged.

Every retry, timeout, rebuild and failure is counted through a
:class:`~repro.obs.metrics.MetricsRegistry` (the PR 4 subsystem) under
``resilience_*`` names, so ``python -m repro metrics`` and the chaos
harness surface exactly what the supervisor absorbed.

Serial maps (``workers <= 1``) run in-process with the same retry
policy and failure taxonomy; deadlines are not enforceable without a
separate process to kill and are documented as pool-only.
"""

from __future__ import annotations

import concurrent.futures
import heapq
import itertools
import time
from collections import deque
from concurrent.futures import BrokenExecutor, ProcessPoolExecutor
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple, Union

from repro.common.errors import (
    HarnessError,
    PermanentSimFailure,
    PoisonedTask,
    TaskTimeout,
    failure_kind,
)
from repro.obs.metrics import NULL_REGISTRY, MetricsRegistry
from repro.resilience.policy import RetryPolicy

#: counters the supervisor and cache maintain, declared eagerly so the
#: metrics CLI lists them (at zero) even on an uneventful run
HARNESS_COUNTERS = (
    "resilience_tasks",
    "resilience_retries",
    "resilience_timeouts",
    "resilience_pool_rebuilds",
    "resilience_worker_failures",
    "resilience_permanent_failures",
    "resilience_poisoned_tasks",
    "cache_corrupt_entries",
    "cache_quarantined",
)

#: deadline spec: seconds per task, or a callable of the task arg
DeadlineSpec = Union[None, float, int, Callable[[object], Optional[float]]]

_UNSET = object()


def declare_harness_metrics(registry: MetricsRegistry) -> MetricsRegistry:
    """Pre-create every supervision counter at zero in *registry*."""
    for name in HARNESS_COUNTERS:
        registry.counter(name)
    return registry


def classify_failure(error: BaseException) -> str:
    """:func:`~repro.common.errors.failure_kind` of *error*'s class."""
    return failure_kind(type(error))


@dataclass
class _Task:
    """One unit of supervised work and its attempt bookkeeping."""

    index: int
    arg: object
    deadline: Optional[float]
    attempts: int = 0
    started: float = 0.0
    last_failure: Optional[BaseException] = field(default=None, repr=False)


class Supervisor:
    """Resilient ordered map over a worker-process pool.

    ``policy`` governs retries (default: 3 attempts, exponential
    backoff).  ``deadline`` bounds each task's wall clock (see
    :data:`DeadlineSpec`; ``None`` = unbounded, the pre-supervision
    behavior).  ``registry`` receives the ``resilience_*`` counters.
    ``initializer``/``initargs`` pass through to the pool (a raising
    initializer is survived like any broken pool).  ``task_wrapper``
    maps the worker function to a picklable replacement before
    submission — the chaos harness uses it to interpose fault
    injection without the production code knowing.

    ``clock``/``sleep`` are injectable for tests.
    """

    def __init__(self, policy: Optional[RetryPolicy] = None,
                 deadline: DeadlineSpec = None,
                 registry: Optional[MetricsRegistry] = None,
                 initializer: Optional[Callable] = None,
                 initargs: Tuple = (),
                 task_wrapper: Optional[Callable[[Callable], Callable]] = None,
                 clock: Callable[[], float] = time.monotonic,
                 sleep: Callable[[float], None] = time.sleep) -> None:
        self.policy = policy or RetryPolicy()
        self.deadline = deadline
        self.registry = registry if registry is not None else NULL_REGISTRY
        self.initializer = initializer
        self.initargs = initargs
        self.task_wrapper = task_wrapper
        self._clock = clock
        self._sleep = sleep

    # ------------------------------------------------------------------
    def map(self, fn: Callable, args: Sequence, workers: int) -> List:
        """Apply *fn* to every arg, in order, surviving worker failure.

        *fn* must be module-level (picklable under any multiprocessing
        start method) and should return plain data.  With ``workers <=
        1`` (or one task) the map runs in-process — retries still
        apply, deadlines do not (nothing to kill).
        """
        args = list(args)
        if not args:
            return []
        call = self.task_wrapper(fn) if self.task_wrapper else fn
        if workers <= 1 or len(args) == 1:
            return [self._call_serial(call, arg, index)
                    for index, arg in enumerate(args)]
        return self._map_parallel(call, args, min(workers, len(args)))

    # -- serial path ---------------------------------------------------
    def _call_serial(self, call: Callable, arg: object, index: int):
        task = _Task(index, arg, None)
        while True:
            task.attempts += 1
            try:
                result = call(arg)
            except (KeyboardInterrupt, SystemExit):
                raise
            except BaseException as error:
                delay = self._charge(task, error)
                if delay:
                    self._sleep(delay)
            else:
                self.registry.inc("resilience_tasks")
                return result

    # -- shared failure accounting -------------------------------------
    def _charge(self, task: _Task, error: BaseException) -> float:
        """Book one failed attempt; return the backoff delay.

        Raises :class:`PermanentSimFailure` for deterministic failures
        and :class:`PoisonedTask` once the attempt budget is spent.
        """
        if classify_failure(error) == "permanent":
            self.registry.inc("resilience_permanent_failures")
            raise PermanentSimFailure(
                f"task {task.index} failed deterministically on attempt "
                f"{task.attempts}: {error!r}"
            ) from error
        self.registry.inc("resilience_worker_failures")
        task.last_failure = error
        if task.attempts >= self.policy.max_attempts:
            self.registry.inc("resilience_poisoned_tasks")
            raise PoisonedTask(
                f"task {task.index} failed {task.attempts} attempt(s); "
                f"giving up: {error!r}",
                index=task.index, attempts=task.attempts,
            ) from error
        self.registry.inc("resilience_retries")
        return self.policy.delay(task.attempts, key=task.index)

    # -- parallel path -------------------------------------------------
    def _deadline_for(self, arg: object) -> Optional[float]:
        spec = self.deadline
        if spec is None:
            return None
        if callable(spec):
            value = spec(arg)
            return None if value is None else float(value)
        return float(spec)

    def _new_pool(self, workers: int) -> ProcessPoolExecutor:
        return ProcessPoolExecutor(max_workers=workers,
                                   initializer=self.initializer,
                                   initargs=self.initargs)

    @staticmethod
    def _kill_pool(pool: ProcessPoolExecutor) -> None:
        """Tear a pool down even if its workers are wedged or dead."""
        # _processes is executor-internal but the only handle on wedged
        # workers; treat it as best-effort
        process_map = getattr(pool, "_processes", None)
        processes = list(process_map.values()) if process_map else []
        try:
            pool.shutdown(wait=False, cancel_futures=True)
        except Exception:
            pass
        for process in processes:
            try:
                process.terminate()
            except Exception:
                pass
        for process in processes:
            try:
                process.join(0.5)
            except Exception:
                pass

    def _rebuild_pool(self, pool: ProcessPoolExecutor,
                      running: Dict, queue: deque,
                      workers: int) -> ProcessPoolExecutor:
        """Kill *pool*, requeue its in-flight victims, start a fresh one.

        Tasks still in *running* here were never individually charged —
        they are innocent victims of the rebuild (their failing
        pool-mates were charged via :meth:`_charge` when their futures
        resolved), so their attempt is refunded.
        """
        self.registry.inc("resilience_pool_rebuilds")
        self._kill_pool(pool)
        for task in running.values():
            task.attempts -= 1
            queue.append(task)
        running.clear()
        return self._new_pool(workers)

    def _wait_timeout(self, running: Dict[object, _Task],
                      waiting: List) -> Optional[float]:
        """Seconds until the nearest deadline or backoff expiry."""
        now = self._clock()
        candidates = []
        for task in running.values():
            if task.deadline is not None:
                candidates.append(task.started + task.deadline - now)
        if waiting:
            candidates.append(waiting[0][0] - now)
        if not candidates:
            return None
        # small epsilon so waking exactly at a deadline sees it expired
        return max(0.0, min(candidates)) + 0.005

    def _map_parallel(self, call: Callable, args: List,
                      workers: int) -> List:
        results = [_UNSET] * len(args)
        queue: deque = deque(
            _Task(index, arg, self._deadline_for(arg))
            for index, arg in enumerate(args)
        )
        waiting: List[Tuple[float, int, _Task]] = []  # backoff heap
        sequence = itertools.count()
        running: Dict[object, _Task] = {}
        pool = self._new_pool(workers)
        completed_ok = False
        try:
            while queue or waiting or running:
                now = self._clock()
                while waiting and waiting[0][0] <= now:
                    queue.append(heapq.heappop(waiting)[2])

                while queue and len(running) < workers:
                    task = queue.popleft()
                    try:
                        future = pool.submit(call, task.arg)
                    except BrokenExecutor:
                        # the pool died between completions; this task
                        # is a bystander — rebuild and resubmit uncharged
                        queue.appendleft(task)
                        self.registry.inc("resilience_pool_rebuilds")
                        self._kill_pool(pool)
                        pool = self._new_pool(workers)
                        continue
                    task.attempts += 1
                    task.started = self._clock()
                    running[future] = task

                timeout = self._wait_timeout(running, waiting)
                if not running:
                    if timeout is not None:
                        self._sleep(timeout)
                    continue

                done, _ = concurrent.futures.wait(
                    running, timeout=timeout,
                    return_when=concurrent.futures.FIRST_COMPLETED,
                )
                pool_broken = False
                for future in done:
                    task = running.pop(future)
                    error = future.exception()
                    if error is None:
                        results[task.index] = future.result()
                        self.registry.inc("resilience_tasks")
                        continue
                    if isinstance(error, (KeyboardInterrupt, SystemExit)):
                        raise error
                    if isinstance(error, BrokenExecutor):
                        pool_broken = True
                    delay = self._charge(task, error)
                    heapq.heappush(
                        waiting,
                        (self._clock() + delay, next(sequence), task),
                    )
                if pool_broken:
                    pool = self._rebuild_pool(pool, running, queue, workers)
                    continue

                now = self._clock()
                expired = [
                    (future, task) for future, task in running.items()
                    if task.deadline is not None
                    and now - task.started >= task.deadline
                ]
                if expired:
                    for future, task in expired:
                        running.pop(future)
                        self.registry.inc("resilience_timeouts")
                        timeout_error = TaskTimeout(
                            f"task {task.index} exceeded its "
                            f"{task.deadline:.3f}s deadline on attempt "
                            f"{task.attempts}",
                            deadline=task.deadline,
                            elapsed=now - task.started,
                        )
                        delay = self._charge(task, timeout_error)
                        heapq.heappush(
                            waiting,
                            (self._clock() + delay, next(sequence), task),
                        )
                    # the workers behind the expired futures are still
                    # wedged on them — killing the pool is the only
                    # portable reclaim; bystanders are requeued uncharged
                    pool = self._rebuild_pool(pool, running, queue, workers)
            completed_ok = True
        finally:
            if completed_ok:
                pool.shutdown(wait=True)
            else:
                self._kill_pool(pool)
        if any(result is _UNSET for result in results):
            raise HarnessError(
                "supervisor finished with unset results — this is a bug"
            )
        return results
