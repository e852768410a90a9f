"""Self-healing for the service fabric: fsck/repair, poison, health.

The job store (:mod:`repro.service.store`) trusts nothing it reads —
every torn or foreign artifact is quarantined on contact — but those
read-path defenses only heal what a worker happens to touch.  This
module is the offline counterpart: a full store audit that walks every
job's ``units/claims/results/done/failed/attempts`` layout, re-digests
every content-addressed artifact, and (with ``repair=True``) converges
the tree back to a state a plain worker fleet can finish:

* **torn or bit-flipped unit files** are quarantined and regenerated
  byte-identically from the job manifest (unit payloads are
  deterministic functions of the durable spec — the same property that
  makes job ids content-addressed);
* **corrupt results** are quarantined and their units requeued — the
  re-execution draws every classification from the shared cache, so
  repair costs file writes, never simulations;
* **valid published results are never discarded**: a unit whose result
  survives its audit is *adopted* (marked done) no matter how mangled
  its claim/done bookkeeping got — the RepTFD move of trusting the
  replayed good result;
* **foreign and orphaned files** (leftover ``.tmp`` from a writer that
  died at ENOSPC, results for units no manifest knows, cross-linked
  payloads) are quarantined;
* **lost units** (present in the manifest, on disk nowhere) are
  regenerated.

Also here: crash-loop *poison diagnosis* — a unit parked after
``MAX_UNIT_ATTEMPTS`` gets a ``poison.json`` verdict separating
deterministic failures (same traceback every attempt, taxonomy from
:mod:`repro.common.errors`) from flaky infrastructure — and fleet
health over the store's worker heartbeat files.

``python -m repro serve fsck [--repair]`` is the CLI surface; the
fabric chaos scenario (``python -m repro chaos --fabric``) is the
proof that audit + repair + a fresh fleet reconverge on byte-identical
merged output with zero recomputation of adopted results.
"""

from __future__ import annotations

import builtins
import os
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.common import errors as error_taxonomy
from repro.service.jobs import replan_unit_payloads, result_shape_ok
from repro.service.store import (DEFAULT_LEASE_SECONDS,
                                 DEFAULT_STALE_SECONDS, JobStore,
                                 job_id_for, unit_id_for)

#: schema version stamped into every poison verdict
POISON_SCHEMA = 1

#: directories every planned job owns (anything else at the job's top
#: level, the files of :data:`_JOB_FILES` aside, is foreign)
_JOB_DIRS = ("units", "claims", "results", "done", "failed", "attempts",
             "telemetry", "quarantine")

#: top-level job files fsck recognizes
_JOB_FILES = ("job.json", "merged.json", "poison.json", "table.pkl")


# ----------------------------------------------------------------------
# Findings and the report
# ----------------------------------------------------------------------
@dataclass
class Finding:
    """One defect fsck observed and what it did about it.

    ``action`` is ``reported`` on audit-only runs; repair runs record
    the healing step taken (``quarantined``, ``requeued``,
    ``regenerated``, ``adopted``, ``removed``, ``completed``).
    """

    job: str
    kind: str
    path: str
    action: str

    def to_payload(self) -> dict:
        return {"job": self.job, "kind": self.kind, "path": self.path,
                "action": self.action}


@dataclass
class FsckReport:
    """Outcome of one store audit (or audit + repair)."""

    repair: bool
    jobs: int = 0
    units_verified: int = 0
    results_verified: int = 0
    findings: List[Finding] = field(default_factory=list)
    workers: List[dict] = field(default_factory=list)
    counters: Dict[str, int] = field(default_factory=dict)

    @property
    def clean(self) -> bool:
        return not self.findings

    def by_kind(self) -> Dict[str, int]:
        out: Dict[str, int] = {}
        for finding in self.findings:
            out[finding.kind] = out.get(finding.kind, 0) + 1
        return out

    def to_payload(self) -> dict:
        return {
            "repair": self.repair,
            "clean": self.clean,
            "jobs": self.jobs,
            "units_verified": self.units_verified,
            "results_verified": self.results_verified,
            "findings": [f.to_payload() for f in self.findings],
            "by_kind": self.by_kind(),
            "workers": self.workers,
            "counters": self.counters,
        }


def format_fsck(report: FsckReport) -> str:
    """Human rendering of an :class:`FsckReport`."""
    mode = "fsck --repair" if report.repair else "fsck"
    lines = [f"{mode}: {report.jobs} jobs, "
             f"{report.units_verified} units and "
             f"{report.results_verified} results re-digested"]
    for finding in report.findings:
        lines.append(f"  {finding.kind:20s} {finding.path}  "
                     f"-> {finding.action}")
    stale = [w for w in report.workers if w.get("state") != "alive"]
    if report.workers:
        lines.append(f"workers: {len(report.workers)} known, "
                     f"{len(stale)} stale/dead")
    lines.append("store: clean" if report.clean
                 else f"store: {len(report.findings)} findings "
                      f"({'repaired' if report.repair else 'audit only'})")
    return "\n".join(lines)


# ----------------------------------------------------------------------
# Poison diagnosis
# ----------------------------------------------------------------------
def classify_error_type(type_name: str) -> str:
    """``"permanent"`` or ``"transient"``, from the recorded type name.

    Exceptions do not survive the store, their type names do: the name
    resolves against :mod:`repro.common.errors`, then the builtins, and
    :func:`~repro.common.errors.failure_kind` judges the class it names.
    A name that resolves to no exception class (a foreign or unrecorded
    type) is transient, like any other unknown infrastructure failure.
    """
    cls = getattr(error_taxonomy, type_name, None) \
        or getattr(builtins, type_name, None)
    if isinstance(cls, type) and issubclass(cls, BaseException):
        return error_taxonomy.failure_kind(cls)
    return "transient"


def diagnose_poison(store: JobStore, job_id: str, unit_id: str) -> dict:
    """The verdict for one parked unit: what kept failing, and how.

    ``classification`` is ``deterministic`` when every attempt died the
    same way (same error type and message — retrying cannot help;
    the unit's work itself is poison), ``flaky`` when the tracebacks
    differ (infrastructure trouble; a later resubmission may succeed),
    refined to ``permanent-sim`` when the error taxonomy says the
    failure class is deterministic regardless of repetition.
    """
    attempts = store.unit_attempts(job_id, unit_id)
    signatures = []
    tracebacks = []
    types = []
    for record in attempts:
        signature = f"{record.get('error_type', '')}: " \
                    f"{record.get('error', '')}"
        if signature not in signatures:
            signatures.append(signature)
            trace = record.get("traceback", "") or signature
            tracebacks.append(trace)
        error_type = record.get("error_type", "")
        if error_type and error_type not in types:
            types.append(error_type)
    if any(classify_error_type(name) == "permanent" for name in types):
        classification = "permanent-sim"
    elif len(signatures) <= 1:
        classification = "deterministic"
    else:
        classification = "flaky"
    return {
        "unit": unit_id,
        "attempts": len(attempts),
        "error_types": types,
        "distinct_failures": signatures,
        "distinct_tracebacks": tracebacks,
        "classification": classification,
    }


def update_poison_verdicts(store: JobStore, job_id: str) -> List[dict]:
    """(Re)write the job's ``poison.json`` from its parked units.

    Deterministic over the ``failed/`` and ``attempts/`` state, so any
    number of workers or fsck runs racing this write converge on
    identical bytes.  Returns the verdicts (empty list = no file).
    """
    verdicts = [diagnose_poison(store, job_id, unit_id)
                for unit_id in store.failed_units(job_id)]
    if verdicts:
        store.write_poison(job_id, {
            "job": job_id,
            "schema": POISON_SCHEMA,
            "units": verdicts,
        })
    return verdicts


# ----------------------------------------------------------------------
# Worker health
# ----------------------------------------------------------------------
def worker_health(store: JobStore,
                  stale_after: float = DEFAULT_STALE_SECONDS,
                  now: Optional[float] = None) -> List[dict]:
    """Every known worker's heartbeat, annotated alive/stale."""
    return store.worker_records(stale_after=stale_after, now=now)


# ----------------------------------------------------------------------
# fsck
# ----------------------------------------------------------------------
def fsck_store(store: JobStore, repair: bool = False,
               lease_seconds: float = DEFAULT_LEASE_SECONDS,
               stale_after: float = DEFAULT_STALE_SECONDS,
               now: Optional[float] = None) -> FsckReport:
    """Audit (and optionally repair) every job in the store.

    See the module docstring for the invariants checked.  The report's
    ``clean`` means *this pass found nothing* — after a repair pass, a
    second audit must come back clean (pinned by the chaos-fabric
    acceptance test).
    """
    report = FsckReport(repair=repair)
    for job_id in store.list_jobs():
        fsck_job(store, job_id, report, repair=repair,
                 lease_seconds=lease_seconds, now=now)
    report.workers = worker_health(store, stale_after=stale_after, now=now)
    if repair:
        for record in report.workers:
            # a record stale for many lease periods belongs to a dead
            # worker; dropping it keeps `serve status` honest
            if record["state"] == "stale" and \
                    record["age_seconds"] > max(lease_seconds, stale_after):
                store.remove_worker_record(record["owner"])
                report.findings.append(Finding(
                    "-", "dead-worker", f"workers/{record['owner']}.json",
                    "removed"))
    report.counters = dict(store.registry.counters())
    return report


def _act(report: FsckReport, repair: bool, job_id: str, kind: str,
         path: str, action: str) -> None:
    report.findings.append(
        Finding(job_id, kind, path, action if repair else "reported"))


def fsck_job(store: JobStore, job_id: str, report: FsckReport,
             repair: bool = False,
             lease_seconds: float = DEFAULT_LEASE_SECONDS,
             now: Optional[float] = None) -> None:
    """Audit one job directory into *report* (see :func:`fsck_store`)."""
    report.jobs += 1
    job_dir = store.job_dir(job_id)
    job = store.load_job(job_id)
    if job is None:
        # the manifest is the only durable spec; nothing downstream can
        # be trusted or regenerated without it
        report.findings.append(
            Finding(job_id, "corrupt-manifest", "job.json", "reported"))
        return
    if job_id_for(job["material"]) != job_id:
        report.findings.append(
            Finding(job_id, "foreign-manifest", "job.json", "reported"))
        return
    index = {entry["unit"]: entry["count"] for entry in job["units"]}

    # Lazily replanned unit payloads: only computed when a repair needs
    # to regenerate something (planning is pure — no simulation).
    planned: Dict[str, dict] = {}

    def planned_unit(unit_id: str) -> Optional[dict]:
        if not planned:
            try:
                planned.update({unit["unit"]: unit
                                for unit in replan_unit_payloads(job)})
            except Exception:  # noqa: BLE001 — a job whose material
                # cannot be replanned (foreign manifest, removed code
                # path) is reported, never crashes the whole audit
                pass
            planned.setdefault("__unplannable__", {})
        return planned.get(unit_id)

    def regenerate(unit_id: str, kind: str, path: str) -> None:
        # mark the unit handled either way so later passes (the final
        # lost-unit sweep) do not report the same loss twice
        present.setdefault(unit_id, "pending")
        if not repair:
            report.findings.append(
                Finding(job_id, kind, path, "reported"))
            return
        unit = planned_unit(unit_id)
        if unit is None:
            report.findings.append(
                Finding(job_id, kind, path, "reported"))
            return
        store.restore_unit(job_id, unit)
        report.findings.append(
            Finding(job_id, kind, path, "regenerated"))

    # -- expired claims first: completes orphans, requeues the dead ----
    if repair:
        moved = store.requeue_expired(job_id, lease_seconds, now=now)
        for unit_id in moved["completed"]:
            report.findings.append(Finding(
                job_id, "expired-claim", f"claims/{unit_id}", "completed"))
        for unit_id in moved["requeued"]:
            report.findings.append(Finding(
                job_id, "expired-claim", f"claims/{unit_id}", "requeued"))

    present: Dict[str, str] = {}

    # -- units/ --------------------------------------------------------
    units_dir = store._units_dir(job_id)
    for name in store._unit_names(units_dir, ""):
        path = units_dir / name
        rel = f"units/{name}"
        if not name.endswith(".json"):
            if repair:
                store._quarantine(path, job_id, "units")
            _act(report, repair, job_id, "foreign-file", rel, "quarantined")
            continue
        unit_id = name.removesuffix(".json")
        payload = store._read_validated(path, job_id, "units") \
            if repair else _parse_probe(path)
        if payload is None:
            if not repair:
                _act(report, repair, job_id, "torn-unit", rel, "reported")
            else:
                regenerate(unit_id, "torn-unit", rel)
            continue
        report.units_verified += 1
        if unit_id not in index:
            if repair:
                store._quarantine(path, job_id, "units")
            _act(report, repair, job_id, "orphan-unit", rel, "quarantined")
            continue
        if unit_id_for(job_id, payload.get("index", -1),
                       payload.get("items")) != unit_id:
            if repair:
                store._quarantine(path, job_id, "units")
            _act(report, repair, job_id, "corrupt-unit", rel, "quarantined")
            regenerate(unit_id, "lost-unit", rel)
            continue
        present[unit_id] = "pending"

    # -- claims/ -------------------------------------------------------
    claims_dir = store._claims_dir(job_id)
    for name in store._unit_names(claims_dir, ""):
        path = claims_dir / name
        rel = f"claims/{name}"
        if "@" not in name:
            if repair:
                store._quarantine(path, job_id, "claims")
            _act(report, repair, job_id, "foreign-file", rel, "quarantined")
            continue
        unit_id = name.split("@", 1)[0].removesuffix(".json")
        payload = _parse_probe(path)
        if payload is None or unit_id_for(
                job_id, payload.get("index", -1),
                payload.get("items")) != unit_id:
            if repair:
                store._quarantine(path, job_id, "claims")
            _act(report, repair, job_id, "torn-claim", rel, "quarantined")
            if unit_id in index:
                regenerate(unit_id, "lost-unit", rel)
            continue
        if unit_id not in index:
            if repair:
                store._quarantine(path, job_id, "claims")
            _act(report, repair, job_id, "orphan-claim", rel, "quarantined")
            continue
        present[unit_id] = "claimed"

    # -- results/ ------------------------------------------------------
    results_ok = set()
    results_dir = store._results_dir(job_id)
    for name in store._unit_names(results_dir, ""):
        path = results_dir / name
        rel = f"results/{name}"
        if not name.endswith(".json"):
            if repair:
                store._quarantine(path, job_id, "results")
            _act(report, repair, job_id, "foreign-file", rel, "quarantined")
            continue
        unit_id = name.removesuffix(".json")
        payload = _parse_probe(path)
        if payload is None:
            if repair:
                store._quarantine(path, job_id, "results")
            _act(report, repair, job_id, "torn-result", rel, "quarantined")
            continue
        report.results_verified += 1
        if unit_id not in index:
            if repair:
                store._quarantine(path, job_id, "results")
            _act(report, repair, job_id, "orphan-result", rel,
                 "quarantined")
            continue
        if payload.get("unit") != unit_id or \
                not result_shape_ok(job["kind"], payload, index[unit_id]):
            if repair:
                store._quarantine(path, job_id, "results")
            _act(report, repair, job_id, "corrupt-result", rel,
                 "quarantined")
            continue
        results_ok.add(unit_id)

    # -- done/ ---------------------------------------------------------
    done_dir = store._done_dir(job_id)
    for unit_id in store._unit_names(done_dir, ""):
        rel = f"done/{unit_id}"
        if unit_id not in index:
            if repair:
                try:
                    os.unlink(done_dir / unit_id)
                except OSError:
                    pass
            _act(report, repair, job_id, "orphan-done", rel, "removed")
            continue
        if unit_id not in results_ok:
            # completed on paper, but the published result did not
            # survive its audit: requeue so a worker republishes it
            # (pure cache replay — zero new simulations)
            if repair:
                try:
                    os.unlink(done_dir / unit_id)
                except OSError:
                    pass
            _act(report, repair, job_id, "done-without-result", rel,
                 "requeued")
            if unit_id not in present:
                regenerate(unit_id, "lost-unit", rel)
            continue
        present[unit_id] = "done"

    # -- failed/ -------------------------------------------------------
    failed_dir = store._failed_dir(job_id)
    for name in store._unit_names(failed_dir, ""):
        path = failed_dir / name
        rel = f"failed/{name}"
        unit_id = name.removesuffix(".json")
        payload = _parse_probe(path)
        if not name.endswith(".json") or payload is None \
                or unit_id not in index:
            if repair:
                store._quarantine(path, job_id, "units")
            _act(report, repair, job_id, "corrupt-failed", rel,
                 "quarantined")
            if unit_id in index and unit_id not in present:
                regenerate(unit_id, "lost-unit", rel)
            continue
        present[unit_id] = "failed"

    # -- merged.json / poison.json / foreign top-level files -----------
    merged_path = store.merged_path(job_id)
    if merged_path.exists():
        if _parse_probe(merged_path) is None:
            if repair:
                store._quarantine(merged_path, job_id, "merged")
            _act(report, repair, job_id, "torn-merged", "merged.json",
                 "quarantined")
    if store.poison_path(job_id).exists():
        if _parse_probe(store.poison_path(job_id)) is None:
            if repair:
                store._quarantine(store.poison_path(job_id), job_id,
                                  "poison")
                update_poison_verdicts(store, job_id)
            _act(report, repair, job_id, "torn-poison", "poison.json",
                 "rebuilt")
    try:
        top_level = sorted(os.listdir(job_dir))
    except OSError:
        top_level = []
    for name in top_level:
        if name in _JOB_DIRS or name in _JOB_FILES:
            continue
        if repair:
            store._quarantine(job_dir / name, job_id, "units")
        _act(report, repair, job_id, "foreign-file", name, "quarantined")

    # -- telemetry/ (advisory; torn records just go) -------------------
    telemetry_dir = store._telemetry_dir(job_id)
    for name in store._unit_names(telemetry_dir, ".json"):
        if _parse_probe(telemetry_dir / f"{name}.json") is None:
            if repair:
                store._quarantine(telemetry_dir / f"{name}.json", job_id,
                                  "units")
            _act(report, repair, job_id, "torn-telemetry",
                 f"telemetry/{name}.json", "quarantined")

    # -- adoption and lost units ---------------------------------------
    for unit_id in sorted(index):
        state = present.get(unit_id)
        if unit_id in results_ok and state != "done":
            # a valid published result is never discarded and never
            # recomputed — adopt it no matter what the bookkeeping says
            if repair and state != "claimed":
                store.adopt_result(job_id, unit_id)
            _act(report, repair, job_id, "unadopted-result",
                 f"results/{unit_id}.json", "adopted")
            continue
        if state is None and unit_id not in results_ok:
            regenerate(unit_id, "lost-unit", f"units/{unit_id}.json")

    if store.failed_units(job_id) and store.read_poison(job_id) is None:
        if repair:
            update_poison_verdicts(store, job_id)
        _act(report, repair, job_id, "missing-poison", "poison.json",
             "rebuilt")


def _parse_probe(path) -> Optional[dict]:
    """Parse a JSON artifact without side effects (audit mode)."""
    import json
    try:
        with open(path, "r", encoding="utf-8") as handle:
            payload = json.load(handle)
    except (OSError, json.JSONDecodeError, UnicodeDecodeError, ValueError):
        return None
    return payload if isinstance(payload, dict) else None


# ----------------------------------------------------------------------
# Janitor-grade healing (cheap enough for every idle pass)
# ----------------------------------------------------------------------
def regenerate_lost_units(store: JobStore, job_id: str,
                          job: Optional[dict] = None) -> List[str]:
    """Restore manifest units that exist nowhere on disk.

    The light sibling of full fsck, cheap enough for the worker's idle
    janitor: directory listings only, and planning is only invoked when
    something is actually missing (e.g. after a read path quarantined a
    torn unit file).  Returns the regenerated unit ids.
    """
    job = job if job is not None else store.load_job(job_id)
    if job is None:
        return []
    indexed = {entry["unit"] for entry in job["units"]}
    placed = set(store.pending_units(job_id))
    placed.update(unit for unit, _ in store.claimed_units(job_id))
    placed.update(store.done_units(job_id))
    placed.update(store.failed_units(job_id))
    missing = sorted(indexed - placed)
    restored = []
    planned: Dict[str, dict] = {}
    for unit_id in missing:
        if store.unit_result(job_id, unit_id) is not None:
            # published but unadopted (e.g. its done marker was lost):
            # adopt the result, never re-execute it
            store.adopt_result(job_id, unit_id)
            continue
        if not planned:
            try:
                planned.update({unit["unit"]: unit
                                for unit in replan_unit_payloads(job)})
            except Exception:  # noqa: BLE001 — unreplannable job:
                # leave its losses to fsck's report, keep the janitor up
                return restored
            planned.setdefault("__unplannable__", {})
        unit = planned.get(unit_id)
        if unit is None:
            continue
        store.restore_unit(job_id, unit)
        restored.append(unit_id)
    return restored
