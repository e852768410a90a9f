"""The work-stealing worker behind ``python -m repro serve --worker``.

A worker owns no state beyond its identity: it walks the store's
unmerged jobs (the index's active list, :meth:`JobStore.active_jobs`)
in sorted order, claims one pending unit by atomic
rename, executes it (:func:`~repro.service.jobs.execute_unit`),
publishes the result and telemetry — publishing completes the unit —
and drops its claim.  Any number of workers (on any host sharing the
store) run this loop concurrently; the claim protocol guarantees each
unit executes under exactly one live claim, and the shared
classification cache guarantees each *simulation* runs exactly once
fleet-wide even when a unit is re-executed after a crash.

When no unit is claimable the worker turns janitor: it runs
:func:`repro.service.health.sweep_job` over every unmerged job, which
steals expired claims (requeueing dead workers' units, completing
orphaned results), re-materializes lost units (those whose unit file
or result a corruption-tolerant read path quarantined), and finalizes
a job whose units are all done — so a fleet of plain workers
converges with no server process at all, even on a store chaos has
chewed on.

Every pass also publishes a *heartbeat* (``workers/<owner>.json``, at
most once per ``heartbeat_seconds``) carrying the worker's lifetime
counters, so ``serve status`` can tell a live fleet from a dead one
without process visibility.

:func:`run_fleet` is the local flavour: a parent process forks workers
over one job of a private store and owns their liveness itself, so a
dead or overdue worker's unit is charged at once instead of waiting
out a lease.  Every parallel :class:`~repro.analysis.result_cache.CachedFanout`
runs this way.

Chaos events (``kill``/``sleep``/``raise`` markers from
:class:`repro.resilience.chaos.ChaosPlan`) can be pointed at a worker
via ``chaos_plan``; they fire *after* the worker claims a unit and
*before* it publishes — a ``kill`` leaves the claim orphaned mid-unit,
the exact window the lease recovery exists for, and a ``sleep``
overstays any deadline — which is how the crash-safety tests and the
CI smoke exercise the protocol.
"""

from __future__ import annotations

import itertools
import math
import multiprocessing
import os
import signal
import time
import traceback
from multiprocessing.connection import wait
from typing import Callable, Dict, Optional

from repro.common.errors import (PermanentSimFailure, PoisonedTask,
                                 TaskTimeout, TransientWorkerFailure)
from repro.obs.metrics import MetricsRegistry
from repro.service.jobs import execute_unit
from repro.service.store import (DEFAULT_LEASE_SECONDS, JobStore,
                                 default_owner)

#: minimum seconds between heartbeat writes (one atomic file write;
#: cheap, but not so cheap a 5 ms unit loop should pay it every pass)
DEFAULT_HEARTBEAT_SECONDS = 1.0

#: longest :func:`run_fleet` sleeps between looks at its job
FLEET_POLL_SECONDS = 0.5


class ServiceWorker:
    """One work-stealing worker loop over *store* (see module docs)."""

    def __init__(self, store: JobStore, owner: Optional[str] = None,
                 lease_seconds: float = DEFAULT_LEASE_SECONDS,
                 chaos_plan: Optional[str] = None,
                 heartbeat_seconds: float = DEFAULT_HEARTBEAT_SECONDS) -> None:
        self.store = store
        self.owner = owner or default_owner()
        self.lease_seconds = lease_seconds
        self.chaos_plan = str(chaos_plan) if chaos_plan else None
        self.heartbeat_seconds = heartbeat_seconds
        self.units_done = 0
        self.units_failed = 0
        self.simulations = 0
        self._last_beat = 0.0

    # ------------------------------------------------------------------
    def beat(self, state: str = "working", force: bool = False) -> None:
        """Publish this worker's heartbeat (throttled unless *force*)."""
        now = time.monotonic()
        if not force and now - self._last_beat < self.heartbeat_seconds:
            return
        self._last_beat = now
        try:
            self.store.beat(self.owner, {
                "pid": os.getpid(),
                "state_note": state,
                "units_done": self.units_done,
                "units_failed": self.units_failed,
                "simulations": self.simulations,
            })
        except OSError:
            pass  # advisory: a full disk must not kill the worker

    def _fire_chaos(self) -> None:
        """Claim at most one pending chaos event and act it out.

        Fired between claim and execution — a ``kill`` here leaves the
        claim orphaned mid-unit, the worst-case window the lease
        recovery must cover.
        """
        if self.chaos_plan is None:
            return
        from repro.resilience.chaos import (SLEEP_SECONDS, ChaosFailure,
                                            claim_event)
        kind = claim_event(self.chaos_plan)
        if kind == "kill":
            os.kill(os.getpid(), signal.SIGKILL)
        elif kind == "sleep":
            time.sleep(SLEEP_SECONDS)
            raise ChaosFailure(
                "chaos: slept past the deadline but was never killed")
        elif kind == "raise":
            raise ChaosFailure("chaos: injected service-worker exception")

    def run_once(self) -> Optional[dict]:
        """Claim and execute one unit from any job; ``None`` when idle.

        An idle pass still does the janitor work (lease recovery,
        lost-unit regeneration, finalization), so a worker parked on a
        drained store finishes the bookkeeping other workers' crashes
        left behind.
        """
        self.beat()
        for job_id in self.store.active_jobs():
            job = self.store.load_job(job_id)
            if job is None:
                # torn manifest: nothing in this job can be trusted or
                # executed; skip it without burning unit attempts —
                # fsck reports it to the operator
                continue
            claimed = self.store.claim_unit(job_id, self.owner)
            if claimed is None:
                continue
            unit, claim = claimed
            try:
                self._fire_chaos()
                result, telemetry = execute_unit(self.store, job, unit,
                                                 self.owner)
            except Exception as exc:  # noqa: BLE001 — unit-level isolation
                self.units_failed += 1
                self.store.fail_unit(
                    job_id, unit["unit"], claim,
                    f"{type(exc).__name__}: {exc}",
                    error_type=type(exc).__name__,
                    traceback_text=traceback.format_exc(),
                    owner=self.owner,
                )
                self.beat(state="failed-unit", force=True)
                return {"job": job_id, "unit": unit["unit"],
                        "error": str(exc)}
            self.store.publish_result(job_id, unit["unit"], result)
            self.store.publish_telemetry(job_id, unit["unit"], self.owner,
                                         telemetry)
            self.store.complete_unit(job_id, unit["unit"], claim)
            self.units_done += 1
            self.simulations += telemetry["simulations"]
            self.beat()
            return {"job": job_id, "unit": unit["unit"],
                    "simulations": telemetry["simulations"],
                    "seconds": telemetry["seconds"]}
        self._janitor()
        return None

    def _janitor(self) -> None:
        from repro.service.health import sweep_job
        for job_id in self.store.active_jobs():
            sweep_job(self.store, job_id, self.lease_seconds)

    def run(self, max_idle: Optional[float] = None, once: bool = False,
            poll: float = 0.2) -> dict:
        """The worker main loop.

        Runs until ``max_idle`` seconds pass with nothing claimable
        (``None`` = forever, for long-lived fleet workers), or after a
        single claim attempt with ``once``.  Returns the worker's
        lifetime accounting.  A clean exit withdraws the heartbeat, so
        only crashes leave stale worker records behind.
        """
        idle_since: Optional[float] = None
        try:
            while True:
                worked = self.run_once()
                if once:
                    break
                if worked is not None:
                    idle_since = None
                    continue
                now = time.monotonic()
                if idle_since is None:
                    idle_since = now
                if max_idle is not None and now - idle_since >= max_idle:
                    break
                time.sleep(poll)
        finally:
            self.store.remove_worker_record(self.owner)
        return {
            "owner": self.owner,
            "units_done": self.units_done,
            "units_failed": self.units_failed,
            "simulations": self.simulations,
        }


def worker_entry(store_root: str, cache_dir: Optional[str] = None,
                 owner: Optional[str] = None,
                 lease_seconds: float = DEFAULT_LEASE_SECONDS,
                 chaos_plan: Optional[str] = None,
                 max_idle: Optional[float] = 5.0,
                 poll: float = 0.2) -> dict:
    """Module-level worker entry point (picklable for multiprocessing).

    The crash-safety tests and the CI smoke spawn real OS processes
    running exactly this function — the same loop ``python -m repro
    serve --worker`` runs.
    """
    store = JobStore(store_root, cache_dir=cache_dir)
    worker = ServiceWorker(store, owner=owner, lease_seconds=lease_seconds,
                           chaos_plan=chaos_plan)
    return worker.run(max_idle=max_idle, poll=poll)


def run_fleet(store: JobStore, job_id: str, workers: int,
              on_result: Callable[[dict], None], *,
              deadline: Optional[float] = None,
              chaos_plan: Optional[str] = None,
              registry: Optional[MetricsRegistry] = None) -> None:
    """Work *job_id* with *workers* forked workers, handing each unit's
    published result to *on_result* in unit order as soon as it and
    every unit before it are done (so the caller works while the fleet
    does).

    Each worker runs :func:`worker_entry` until it finds nothing to
    claim.  The parent settles every claim a worker cannot:

    * a worker that dies holding a claim has the unit completed if its
      result was published, else charged one
      :class:`~repro.common.errors.TransientWorkerFailure` attempt;
    * a claim older than *deadline* seconds has its worker killed and
      the unit charged one :class:`~repro.common.errors.TaskTimeout`
      attempt;
    * replacement workers start while units are pending;
    * a unit parked after :data:`~repro.common.errors.MAX_ATTEMPTS`
      raises :class:`~repro.common.errors.PermanentSimFailure` when its
      poison verdict is ``permanent-sim``, else
      :class:`~repro.common.errors.PoisonedTask`;
    * a done unit whose result no longer reads (the read quarantines
      it) is restored and re-run like any lost unit.

    Surviving workers are killed on every exit path.  *registry* counts
    ``fanout_retries``, ``fanout_timeouts`` and
    ``fanout_worker_deaths``.
    """
    registry = registry if registry is not None else MetricsRegistry()
    units = [entry["unit"] for entry in store.load_job(job_id)["units"]]
    handed = 0
    live: Dict[str, multiprocessing.Process] = {}
    numbers = itertools.count()
    try:
        while True:
            for owner in [owner for owner, proc in live.items()
                          if proc.exitcode is not None]:
                live.pop(owner).join()
            now = time.time()
            wake = FLEET_POLL_SECONDS
            for unit_id, owner in store.claimed_units(job_id):
                claim = store.claim_path(job_id, unit_id, owner)
                if owner in live:
                    if deadline is None:
                        continue
                    try:
                        age = now - claim.stat().st_mtime
                    except OSError:
                        continue  # completed meanwhile
                    if age < deadline:
                        wake = min(wake, deadline - age)
                        continue
                    _kill(live.pop(owner))
                    registry.inc("fanout_timeouts")
                    error = TaskTimeout(
                        f"unit {unit_id} exceeded its {deadline:.3f}s "
                        f"deadline", deadline=deadline, elapsed=age)
                else:
                    registry.inc("fanout_worker_deaths")
                    error = TransientWorkerFailure(
                        f"worker {owner} died holding unit {unit_id}")
                # the worker is dead now: a claim it no longer holds was
                # completed or failed by the worker itself
                if store.unit_result(job_id, unit_id) is not None:
                    store.complete_unit(job_id, unit_id, claim)
                elif claim.exists():
                    store.fail_unit(job_id, unit_id, claim,
                                    f"{type(error).__name__}: {error}",
                                    error_type=type(error).__name__,
                                    owner="fleet")
            counts = store.counts(job_id)
            if counts["failed"]:
                from repro.service.health import diagnose_poison
                unit_id = store.failed_units(job_id)[0]
                verdict = diagnose_poison(store, job_id, unit_id)
                failure = verdict["distinct_failures"][-1]
                if verdict["classification"] == "permanent-sim":
                    raise PermanentSimFailure(
                        f"fan-out unit {unit_id} failed deterministically: "
                        f"{failure}")
                raise PoisonedTask(
                    f"fan-out unit {unit_id} failed {verdict['attempts']} "
                    f"attempt(s); giving up: {failure}",
                    index=units.index(unit_id),
                    attempts=verdict["attempts"])
            done = set(store.done_units(job_id))
            while handed < len(units) and units[handed] in done:
                result = store.unit_result(job_id, units[handed])
                if result is None:
                    break  # quarantined: the unit is lost now
                on_result(result)
                handed += 1
            if handed == len(units):
                return
            if sum(counts[state] for state in ("pending", "claimed", "done")) \
                    < counts["total"]:
                from repro.service.health import regenerate_lost_units
                # a torn unit file or an unreadable result
                regenerate_lost_units(store, job_id)
            for _ in range(min(counts["pending"], workers - len(live))):
                owner = f"fleet-{os.getpid()}-{next(numbers)}"
                proc = multiprocessing.Process(
                    target=worker_entry, args=(str(store.root),),
                    kwargs={"cache_dir": str(store.cache_dir),
                            "owner": owner, "lease_seconds": math.inf,
                            "chaos_plan": chaos_plan, "max_idle": 0.0})
                proc.start()
                live[owner] = proc
            wait([proc.sentinel for proc in live.values()], timeout=wake)
    finally:
        for proc in live.values():
            _kill(proc)
        registry.inc("fanout_retries", sum(
            len(store.unit_attempts(job_id, unit_id)) for unit_id in units)
            - len(store.failed_units(job_id)))


def _kill(proc: multiprocessing.Process) -> None:
    proc.kill()
    proc.join()
