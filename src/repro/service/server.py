"""Job status, progress streaming and the ``repro serve`` server loop.

The fabric is brokerless — workers coordinate through the store alone —
so the "server" is deliberately thin: a janitor/observer that runs the
workers' own sweep (:func:`repro.service.health.sweep_job`) over every
unmerged job and renders progress.  Everything it does is idempotent
and race-free against any number of workers (and other servers) doing
the same, so running one is an operational convenience, never a
correctness requirement.

:func:`job_status` is the one status oracle every surface shares — the
CLI ``serve status``/``serve watch``, the server's progress stream and
the tests all read the same payload.
"""

from __future__ import annotations

import time
from typing import Callable, Dict, List, Optional

from repro import __version__
from repro.service.health import diagnose_poison, sweep_job
from repro.service.store import DEFAULT_LEASE_SECONDS, JobStore

#: terminal job states (watchers stop on these)
TERMINAL_STATES = ("done", "failed", "unknown")


def job_status(store: JobStore, job_id: str) -> Dict:
    """One job's full status payload (shared by CLI, server and tests).

    ``state`` is derived, not stored: ``done`` iff the merged output
    exists, ``failed`` iff any unit exhausted its attempts and nothing
    is left in flight (a failed unit with live siblings still reports
    ``running`` — they may finish and the failure may be retried by a
    resubmission).  ``simulations``/``seconds`` aggregate the workers'
    telemetry: the simulation count is the fleet-wide number of faulty
    runs actually executed for this job, which a warm resubmission
    reports as 0.  ``poisoned`` diagnoses each parked unit from its
    attempt records.
    """
    job = store.load_job(job_id)
    if job is None:
        return {"job": job_id, "state": "unknown", "version": __version__}
    counts = store.counts(job_id)
    merged = store.merged_path(job_id).exists()
    if merged:
        state = "done"
    elif counts["failed"] and not counts["pending"] and not counts["claimed"]:
        state = "failed"
    elif counts["done"] or counts["claimed"]:
        state = "running"
    else:
        state = "planned"
    telemetry = store.telemetry(job_id)
    owners = sorted({record["owner"] for record in telemetry})
    verdicts = [diagnose_poison(store, job_id, unit_id)
                for unit_id in store.failed_units(job_id)]
    return {
        "job": job_id,
        "kind": job.get("kind"),
        "state": state,
        "version": __version__,
        "counts": counts,
        "merged": merged,
        "simulations": sum(r.get("simulations", 0) for r in telemetry),
        "seconds": round(sum(r.get("seconds", 0.0) for r in telemetry), 6),
        "workers": owners,
        "workload": job.get("spec", {}).get("workload"),
        "figure": job.get("figure"),
        "quarantined": len(store.quarantined_files(job_id)),
        "poisoned": [
            {"unit": verdict["unit"],
             "classification": verdict["classification"],
             "attempts": verdict["attempts"]}
            for verdict in verdicts
        ],
    }


def store_status(store: JobStore) -> Dict:
    """Whole-store summary: every job plus fleet health.

    ``workers`` lists every heartbeat the store knows about, annotated
    ``alive``/``stale`` — a worker that SIGKILLed mid-unit shows up
    stale here long before its claim lease expires.  ``counters`` are
    the store's integrity counters for *this process's* reads (each
    process has its own registry; fsck reports the on-disk truth).
    """
    jobs = [job_status(store, job_id) for job_id in store.list_jobs()]
    return {
        "version": __version__,
        "root": str(store.root),
        "cache": str(store.cache_dir),
        "jobs": jobs,
        "workers": store.worker_records(),
        "counters": dict(store.registry.counters()),
    }


def format_status(status: Dict) -> str:
    """Human one-liner for a :func:`job_status` payload."""
    counts = status.get("counts")
    if counts is None:
        return f"{status['job']}  {status['state']}"
    name = status.get("workload") or status.get("figure") or "?"
    line = (
        f"{status['job']}  {status['state']:8s} {status.get('kind', '?'):8s} "
        f"{name:12s} units {counts['done']}/{counts['total']} "
        f"(pending {counts['pending']}, in-flight {counts['claimed']}, "
        f"failed {counts['failed']}) simulations={status['simulations']} "
        f"workers={len(status.get('workers', []))}"
    )
    if status.get("quarantined"):
        line += f" quarantined={status['quarantined']}"
    if status.get("poisoned"):
        kinds = ",".join(sorted({p.get("classification") or "?"
                                 for p in status["poisoned"]}))
        line += f" poisoned={len(status['poisoned'])}({kinds})"
    return line


def format_workers(records: List[Dict]) -> List[str]:
    """Human one-liners for :meth:`JobStore.worker_records` payloads."""
    lines = []
    for record in records:
        lines.append(
            f"worker {record.get('owner', '?'):40s} "
            f"{record.get('state', '?'):6s} "
            f"beat {record.get('age_seconds', 0.0):7.1f}s ago  "
            f"done={record.get('units_done', 0)} "
            f"failed={record.get('units_failed', 0)} "
            f"simulations={record.get('simulations', 0)}"
        )
    return lines


def watch_job(store: JobStore, job_id: str, timeout: float = 600.0,
              interval: float = 0.2,
              lease_seconds: float = DEFAULT_LEASE_SECONDS,
              emit: Optional[Callable[[str], None]] = None) -> Dict:
    """Poll *job_id* to a terminal state, streaming progress lines.

    The watcher sweeps the job while it waits (:func:`sweep_job`), so
    ``serve watch`` alone is enough to drive a job to ``done`` once
    workers have published every unit — no server process required.
    Returns the final status payload; on timeout, the last one seen.
    """
    deadline = time.monotonic() + timeout
    last_line = None
    while True:
        sweep_job(store, job_id, lease_seconds)
        status = job_status(store, job_id)
        line = format_status(status)
        if emit is not None and line != last_line:
            emit(line)
            last_line = line
        if status["state"] in TERMINAL_STATES:
            return status
        if time.monotonic() >= deadline:
            return status
        time.sleep(interval)


class ServiceServer:
    """The janitor/observer loop behind ``python -m repro serve start``.

    Each poll runs :func:`sweep_job` over every unmerged job (the
    index's active list, :meth:`JobStore.active_jobs`): expired
    claims are stolen back (requeued, or completed when the dead
    worker already published), lost units restored, and fully
    classified jobs merged.  The server never executes units itself —
    workers do — so it stays responsive no matter how heavy the jobs
    are.
    """

    def __init__(self, store: JobStore,
                 lease_seconds: float = DEFAULT_LEASE_SECONDS) -> None:
        self.store = store
        self.lease_seconds = lease_seconds
        self.polls = 0
        self.requeued = 0
        self.completed = 0
        self.finalized = 0
        self.regenerated = 0

    def poll_once(self) -> Dict:
        """One janitor sweep; returns what changed plus live counts."""
        self.polls += 1
        requeued = completed = finalized = active = 0
        for job_id in self.store.active_jobs():
            swept = sweep_job(self.store, job_id, self.lease_seconds)
            if swept is None:
                continue
            requeued += len(swept["requeued"])
            completed += len(swept["completed"])
            self.regenerated += len(swept["regenerated"])
            if swept["finalized"]:
                finalized += 1
            else:
                active += 1
        self.requeued += requeued
        self.completed += completed
        self.finalized += finalized
        return {"requeued": requeued, "completed": completed,
                "finalized": finalized, "active_jobs": active}

    def serve(self, poll: float = 1.0, until_idle: bool = False,
              max_seconds: Optional[float] = None,
              emit: Optional[Callable[[str], None]] = None) -> Dict:
        """Run the sweep loop.

        ``until_idle`` exits once no unfinished job remains (the CI
        smoke's mode); ``max_seconds`` bounds the loop regardless.
        Returns the server's lifetime accounting.
        """
        started = time.monotonic()
        while True:
            swept = self.poll_once()
            if emit is not None and (swept["requeued"] or swept["completed"]
                                     or swept["finalized"]):
                emit(f"serve: requeued={swept['requeued']} "
                     f"orphans-completed={swept['completed']} "
                     f"finalized={swept['finalized']} "
                     f"active={swept['active_jobs']}")
            if until_idle and swept["active_jobs"] == 0:
                break
            if (max_seconds is not None
                    and time.monotonic() - started >= max_seconds):
                break
            time.sleep(poll)
        return {
            "polls": self.polls,
            "requeued": self.requeued,
            "orphans_completed": self.completed,
            "finalized": self.finalized,
            "regenerated": self.regenerated,
        }
