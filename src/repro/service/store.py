"""The on-disk job store: durable specs, sharded units, atomic claims.

The fabric has no broker process.  Workers, submitters and the status
API all coordinate through one directory tree (by default a namespace
under the result cache), exactly the way the chaos harness's workers
already coordinate over plan markers — every state transition is a
single atomic ``os.replace``, so any number of processes (or hosts
sharing the filesystem) race safely:

.. code-block:: text

    <root>/
        cache/                      classification/result cache
                                    (content-addressed, shared by every
                                    worker and by serial CLI runs)
        jobs/<job_id>/
            job.json                durable job spec + unit index
            units/<uid>.json        pending work units
            claims/<uid>.json@<owner>   claimed (in-flight) units
            results/<uid>.json      published unit results
            done/<uid>              completion markers
            failed/<uid>.json       units that exhausted their attempts
            attempts/<uid>-<n>      per-unit failure bookkeeping
            merged.json             deterministic merged output
            table.pkl               a fan-out job's task table

**Claim protocol.**  A worker claims ``units/<uid>.json`` by renaming
it into ``claims/`` with its owner id appended — exactly one claimant
ever wins a unit, no matter how many race.  On success the worker
writes ``results/<uid>.json`` (atomic temp-file + replace) and then
renames its claim to ``done/<uid>``.  A worker that dies mid-unit
leaves a claim whose lease (claim-file mtime, refreshed at claim time)
expires; any other worker requeues it — or, if the result was already
published, completes it — so no unit is ever lost.  A unit can only
execute twice if its lease expires while the original claimant is
still alive, and then both executions publish byte-identical results
(classification is deterministic and content-addressed), so the race
is harmless: *exactly-once effects* even when execution is at-least-
once.

**Exactly-once classification.**  Unit results are published *through
the cache*: every fault classification inside a unit is also stored
under its :func:`~repro.faults.campaign.fault_run_key` in the shared
result cache, so a requeued unit — or a warm resubmission of a whole
job — re-simulates nothing that any worker anywhere already computed.
"""

from __future__ import annotations

import hashlib
import json
import os
import pathlib
import shutil
import tempfile
import time
from typing import Dict, List, Optional, Tuple

from repro.common.errors import MAX_ATTEMPTS, ConfigError, StoreDegraded
from repro.obs.metrics import MetricsRegistry
from repro.service.codec import encode_canonical

#: seconds a claim may go without completing before it is stealable
DEFAULT_LEASE_SECONDS = 300.0

#: attempts a unit gets before it is parked in ``failed/`` (the one
#: budget of :data:`repro.common.errors.MAX_ATTEMPTS`)
MAX_UNIT_ATTEMPTS = MAX_ATTEMPTS

#: seconds without a heartbeat before a worker is reported stale
DEFAULT_STALE_SECONDS = 30.0

#: free bytes the store's filesystem must keep for a submit to be
#: accepted (half-written jobs are worse than refused ones)
DEFAULT_MIN_FREE_BYTES = 64 * 1024 * 1024

#: quarantined-artifact fraction above which the store refuses new
#: work — media this corrupt needs an operator, not more writes
DEFAULT_MAX_QUARANTINE_FRACTION = 0.5

#: separator between unit id and owner in a claim file name.  ``@`` is
#: safe: unit ids are hex + ``u``/``-``, owners are sanitized.
_CLAIM_SEP = "@"

#: integrity counters every JobStore maintains (declared eagerly so an
#: uneventful run still reports them at zero)
STORE_COUNTERS = (
    "store_corrupt_units",
    "store_corrupt_claims",
    "store_corrupt_results",
    "store_corrupt_manifests",
    "store_corrupt_merged",
    "store_corrupt_poison",
    "store_corrupt_heartbeats",
    "store_quarantined",
    "store_requeue_adoptions",
    "store_degraded_rejections",
)


def declare_store_metrics(registry: MetricsRegistry) -> MetricsRegistry:
    """Pre-create every store integrity counter at zero in *registry*."""
    for name in STORE_COUNTERS:
        registry.counter(name)
    return registry


def canonical_json(payload) -> str:
    """The store's byte currency: canonical JSON, newline-terminated.

    Every comparison in the acceptance criteria ("byte-identical
    merged JSON") is over exactly these bytes.  Delegates to
    :func:`repro.service.codec.encode_canonical`, which rejects
    NaN/Infinity payloads with a :class:`~repro.common.errors.CodecError`
    instead of writing non-standard tokens durably.
    """
    return encode_canonical(payload)


def job_id_for(material: dict) -> str:
    """Content address of a job: SHA-256 over its canonical material.

    Two submissions of the same job (same spec, same sharding, same
    epoch, same code version) collapse onto one job directory — idle
    resubmission is free by construction.
    """
    blob = json.dumps(material, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()[:16]


def unit_id_for(job_id: str, index: int, items) -> str:
    """Content address of one work unit: job, position and item slice."""
    blob = json.dumps([job_id, index, items], sort_keys=True,
                      separators=(",", ":"))
    digest = hashlib.sha256(blob.encode("utf-8")).hexdigest()[:12]
    return f"u{index:04d}-{digest}"


def default_store_root() -> pathlib.Path:
    """``<result-cache dir>/service`` — the store's cache namespace."""
    from repro.analysis.result_cache import default_cache_dir
    return default_cache_dir() / "service"


def _write_atomic(path: pathlib.Path, text: str) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp_name = tempfile.mkstemp(dir=path.parent, suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as handle:
            handle.write(text)
        os.replace(tmp_name, path)
    except BaseException:
        try:
            os.unlink(tmp_name)
        except OSError:
            pass
        raise


def _read_json(path: pathlib.Path) -> Optional[dict]:
    try:
        with open(path, "r", encoding="utf-8") as handle:
            return json.load(handle)
    except (OSError, json.JSONDecodeError):
        return None


class JobStore:
    """One job-store directory tree (see the module docstring).

    ``root`` defaults to :func:`default_store_root`; the classification
    cache every worker shares lives at :attr:`cache_dir` (``root/cache``
    unless overridden), so pointing N workers at one ``--store`` wires
    up both coordination and result sharing.

    **Corruption tolerance.**  Every read path validates what it parses
    — a torn, bit-flipped or foreign artifact is *quarantined* (moved
    into the job's ``quarantine/`` directory, counted in ``registry``)
    and reported as absent, never served to a worker or folded into a
    merge.  ``python -m repro serve fsck`` (:mod:`repro.service.health`)
    audits and repairs the whole tree offline.

    **Backpressure.**  :meth:`check_admission` refuses new jobs when the
    filesystem is low on space (``min_free_bytes``) or the quarantine
    rate says the media can no longer be trusted
    (``max_quarantine_fraction``) — a refused submit writes nothing.
    """

    def __init__(self, root: Optional[os.PathLike] = None,
                 cache_dir: Optional[os.PathLike] = None,
                 registry: Optional[MetricsRegistry] = None,
                 min_free_bytes: int = DEFAULT_MIN_FREE_BYTES,
                 max_quarantine_fraction: float =
                 DEFAULT_MAX_QUARANTINE_FRACTION) -> None:
        self.root = (pathlib.Path(root) if root is not None
                     else default_store_root())
        self.cache_dir = (pathlib.Path(cache_dir) if cache_dir is not None
                          else self.root / "cache")
        self.registry = declare_store_metrics(
            registry if registry is not None else MetricsRegistry())
        self.min_free_bytes = int(min_free_bytes)
        self.max_quarantine_fraction = float(max_quarantine_fraction)

    # -- layout --------------------------------------------------------
    @property
    def jobs_dir(self) -> pathlib.Path:
        return self.root / "jobs"

    def job_dir(self, job_id: str) -> pathlib.Path:
        return self.jobs_dir / job_id

    def _units_dir(self, job_id: str) -> pathlib.Path:
        return self.job_dir(job_id) / "units"

    def _claims_dir(self, job_id: str) -> pathlib.Path:
        return self.job_dir(job_id) / "claims"

    def _results_dir(self, job_id: str) -> pathlib.Path:
        return self.job_dir(job_id) / "results"

    def _done_dir(self, job_id: str) -> pathlib.Path:
        return self.job_dir(job_id) / "done"

    def _failed_dir(self, job_id: str) -> pathlib.Path:
        return self.job_dir(job_id) / "failed"

    def _attempts_dir(self, job_id: str) -> pathlib.Path:
        return self.job_dir(job_id) / "attempts"

    def _telemetry_dir(self, job_id: str) -> pathlib.Path:
        return self.job_dir(job_id) / "telemetry"

    def merged_path(self, job_id: str) -> pathlib.Path:
        return self.job_dir(job_id) / "merged.json"

    def quarantine_dir(self, job_id: str) -> pathlib.Path:
        """Where a job's corrupt artifacts are moved for post-mortem."""
        return self.job_dir(job_id) / "quarantine"

    def poison_path(self, job_id: str) -> pathlib.Path:
        """The job's poison verdict file (see :mod:`repro.service.health`)."""
        return self.job_dir(job_id) / "poison.json"

    @property
    def workers_dir(self) -> pathlib.Path:
        """Store-wide worker heartbeat directory (one file per owner)."""
        return self.root / "workers"

    # -- integrity -----------------------------------------------------
    def _quarantine(self, path: pathlib.Path, job_id: str,
                    kind: str) -> bool:
        """Move a corrupt artifact into the job's quarantine directory.

        Counted per *kind* (``store_corrupt_<kind>``) and in the
        ``store_quarantined`` total.  Best-effort and race-safe: a
        concurrent reader may quarantine the same file first — either
        way the artifact can never be served again.
        """
        self.registry.inc(f"store_corrupt_{kind}")
        quarantine = self.quarantine_dir(job_id)
        try:
            quarantine.mkdir(parents=True, exist_ok=True)
            os.replace(path, quarantine / path.name)
        except OSError:
            return False
        self.registry.inc("store_quarantined")
        return True

    def _read_validated(self, path: pathlib.Path, job_id: str,
                        kind: str) -> Optional[dict]:
        """Read a JSON artifact; quarantine (and miss) if it is torn."""
        try:
            with open(path, "r", encoding="utf-8") as handle:
                payload = json.load(handle)
        except OSError:
            return None
        except (json.JSONDecodeError, UnicodeDecodeError, ValueError):
            self._quarantine(path, job_id, kind)
            return None
        if not isinstance(payload, dict):
            self._quarantine(path, job_id, kind)
            return None
        return payload

    def quarantined_files(self, job_id: str) -> List[str]:
        """Names currently sitting in the job's quarantine directory."""
        return self._unit_names(self.quarantine_dir(job_id), "")

    # -- admission / backpressure --------------------------------------
    def disk_free_bytes(self) -> int:
        """Free bytes on the filesystem holding the store root."""
        probe = self.root
        while not probe.exists() and probe.parent != probe:
            probe = probe.parent
        return shutil.disk_usage(probe).free

    def quarantine_fraction(self) -> float:
        """Quarantined artifacts as a fraction of all job artifacts."""
        quarantined = artifacts = 0
        for job_id in self.list_jobs():
            quarantined += len(self.quarantined_files(job_id))
            for sub in (self._units_dir, self._claims_dir,
                        self._results_dir, self._done_dir,
                        self._failed_dir):
                artifacts += len(self._unit_names(sub(job_id), ""))
        if not artifacts and not quarantined:
            return 0.0
        return quarantined / (artifacts + quarantined)

    def check_admission(self) -> None:
        """Refuse new work when the store is degraded.

        Raises :class:`~repro.common.errors.StoreDegraded` *before*
        anything is written, so a refused job leaves no half-planned
        directory behind.
        """
        free = self.disk_free_bytes()
        if free < self.min_free_bytes:
            self.registry.inc("store_degraded_rejections")
            raise StoreDegraded(
                f"store {self.root} refuses new jobs: {free} bytes free "
                f"< {self.min_free_bytes} required — free disk space or "
                f"lower JobStore.min_free_bytes",
                reason="disk_pressure",
            )
        fraction = self.quarantine_fraction()
        if fraction > self.max_quarantine_fraction:
            self.registry.inc("store_degraded_rejections")
            raise StoreDegraded(
                f"store {self.root} refuses new jobs: "
                f"{fraction:.0%} of artifacts are quarantined "
                f"(> {self.max_quarantine_fraction:.0%}) — run "
                f"`repro serve fsck --repair` and check the media",
                reason="quarantine_rate",
            )

    # -- jobs ----------------------------------------------------------
    def create_job(self, payload: dict,
                   units: List[dict]) -> Tuple[str, bool]:
        """Persist a planned job; returns ``(job_id, created)``.

        The job id is content-addressed over ``payload['material']``,
        so resubmitting an identical job finds the existing directory
        and creates nothing (``created=False``) — its units, results
        and merged output are already there or in flight.
        """
        job_id = job_id_for(payload["material"])
        job_dir = self.job_dir(job_id)
        if (job_dir / "job.json").exists():
            return job_id, False
        self.check_admission()
        for unit in units:
            _write_atomic(self._units_dir(job_id) / f"{unit['unit']}.json",
                          canonical_json(unit))
        for sub in (self._claims_dir, self._results_dir, self._done_dir,
                    self._failed_dir, self._attempts_dir,
                    self._telemetry_dir):
            sub(job_id).mkdir(parents=True, exist_ok=True)
        payload = dict(payload)
        payload["job_id"] = job_id
        payload["units"] = [
            {"unit": unit["unit"], "count": len(unit["items"])}
            for unit in units
        ]
        # job.json lands last: a job directory without it is still being
        # planned and is invisible to workers
        _write_atomic(job_dir / "job.json", canonical_json(payload))
        return job_id, True

    def load_job(self, job_id: str) -> Optional[dict]:
        """The job manifest, or ``None`` if missing or corrupt.

        A torn manifest is counted (``store_corrupt_manifests``) but
        deliberately *not* quarantined: the manifest is the job's only
        durable spec, so moving it aside would erase the evidence an
        operator needs.  ``fsck`` reports such jobs as unrepairable.
        """
        path = self.job_dir(job_id) / "job.json"
        try:
            with open(path, "r", encoding="utf-8") as handle:
                payload = json.load(handle)
        except OSError:
            return None
        except (json.JSONDecodeError, UnicodeDecodeError, ValueError):
            self.registry.inc("store_corrupt_manifests")
            return None
        if not isinstance(payload, dict) or "units" not in payload:
            self.registry.inc("store_corrupt_manifests")
            return None
        return payload

    def list_jobs(self) -> List[str]:
        """Every fully planned job id, sorted (stable claim scan order)."""
        if not self.jobs_dir.is_dir():
            return []
        return sorted(
            entry.name for entry in self.jobs_dir.iterdir()
            if (entry / "job.json").is_file()
        )

    # -- units ---------------------------------------------------------
    def pending_units(self, job_id: str) -> List[str]:
        return self._unit_names(self._units_dir(job_id), ".json")

    def done_units(self, job_id: str) -> List[str]:
        return self._unit_names(self._done_dir(job_id), "")

    def failed_units(self, job_id: str) -> List[str]:
        return self._unit_names(self._failed_dir(job_id), ".json")

    def claimed_units(self, job_id: str) -> List[Tuple[str, str]]:
        """``(unit_id, owner)`` for every in-flight claim."""
        out = []
        try:
            names = sorted(os.listdir(self._claims_dir(job_id)))
        except OSError:
            return []
        for name in names:
            if _CLAIM_SEP in name:
                unit, owner = name.split(_CLAIM_SEP, 1)
                out.append((unit.removesuffix(".json"), owner))
        return out

    def claim_path(self, job_id: str, unit_id: str,
                   owner: str) -> pathlib.Path:
        """Where *owner*'s claim on *unit_id* lives (the handle
        :meth:`complete_unit` and :meth:`fail_unit` take; its mtime is
        the claim's lease clock)."""
        return self._claims_dir(job_id) / f"{unit_id}.json{_CLAIM_SEP}{owner}"

    @staticmethod
    def _unit_names(directory: pathlib.Path, suffix: str) -> List[str]:
        try:
            names = sorted(os.listdir(directory))
        except OSError:
            return []
        if suffix:
            return [name.removesuffix(suffix) for name in names
                    if name.endswith(suffix)]
        return names

    def claim_unit(self, job_id: str,
                   owner: str) -> Optional[Tuple[dict, pathlib.Path]]:
        """Atomically claim one pending unit for *owner*.

        Scans in sorted unit order (deterministic up to claim races);
        the rename guarantees exactly one winner per unit.  Returns the
        unit payload and the claim path (needed to complete or fail the
        unit), or ``None`` when nothing is pending.
        """
        owner = sanitize_owner(owner)
        units_dir = self._units_dir(job_id)
        claims_dir = self._claims_dir(job_id)
        claims_dir.mkdir(parents=True, exist_ok=True)
        for name in self._unit_names(units_dir, ""):
            if not name.endswith(".json"):
                continue
            claim = claims_dir / f"{name}{_CLAIM_SEP}{owner}"
            # the rename keeps the file's mtime, which is the claim's
            # lease clock: start it first, so no claim ever shows the
            # unit file's age (best-effort — a failure just makes the
            # claim steal-eligible sooner)
            try:
                os.utime(units_dir / name)
            except OSError:
                pass
            try:
                os.replace(units_dir / name, claim)
            except OSError:
                continue  # another claimant won this unit
            unit_id = name.removesuffix(".json")
            payload = self._read_validated(claim, job_id, "units")
            if payload is None:
                # torn unit file: already quarantined above; fsck (or
                # the janitor) regenerates it from the job manifest
                continue
            if unit_id_for(job_id, payload.get("index", -1),
                           payload.get("items")) != unit_id:
                # parses but fails its content digest — a bit-flipped
                # or foreign unit must never reach a worker
                self._quarantine(claim, job_id, "units")
                continue
            return payload, claim
        return None

    def restore_unit(self, job_id: str, unit: dict) -> None:
        """Re-materialize a pending unit file from its planned payload.

        Used by the repair paths (fsck, the worker janitor) after a
        torn unit file was quarantined: unit payloads are deterministic
        functions of the job manifest, so the restored file is
        byte-identical to the one the planner wrote.
        """
        _write_atomic(self._units_dir(job_id) / f"{unit['unit']}.json",
                      canonical_json(unit))

    def adopt_result(self, job_id: str, unit_id: str) -> None:
        """Mark a unit with a valid published result done, claim or not.

        The repair-path counterpart of :meth:`complete_unit`: removes
        any pending copy of the unit and drops a done marker, so a
        published result is *adopted* instead of re-executed.
        """
        done = self._done_dir(job_id)
        done.mkdir(parents=True, exist_ok=True)
        (done / unit_id).touch()
        try:
            os.unlink(self._units_dir(job_id) / f"{unit_id}.json")
        except OSError:
            pass

    def reopen_unit(self, job_id: str, unit_id: str) -> None:
        """Withdraw a unit's done marker after its result was rejected.

        The inverse of :meth:`adopt_result`: once a published result is
        quarantined, the done marker would wedge the merge (done ==
        total but nothing to fold), so the marker goes too and the
        janitor's lost-unit pass re-materializes the unit for
        re-execution.
        """
        try:
            os.unlink(self._done_dir(job_id) / unit_id)
        except OSError:
            pass

    def write_poison(self, job_id: str, payload: dict) -> None:
        """Publish the job's poison verdict (atomic, deterministic
        bytes — concurrent diagnosers converge)."""
        _write_atomic(self.poison_path(job_id), canonical_json(payload))

    def read_poison(self, job_id: str) -> Optional[dict]:
        """The job's poison verdict, or ``None`` (torn files are
        quarantined; the verdict is re-derivable from ``attempts/``)."""
        return self._read_validated(self.poison_path(job_id), job_id,
                                    "poison")

    def publish_result(self, job_id: str, unit_id: str,
                       payload: dict) -> None:
        """Atomically publish a unit's result (idempotent by bytes)."""
        _write_atomic(self._results_dir(job_id) / f"{unit_id}.json",
                      canonical_json(payload))

    def unit_result(self, job_id: str, unit_id: str) -> Optional[dict]:
        """A unit's published result, or ``None`` if absent or corrupt.

        A result that is torn, or whose embedded unit id does not match
        its file name (a foreign or cross-linked file), is quarantined
        and reported absent — the unit reads as unpublished, so the
        claim/requeue machinery re-executes it (all classifications come
        from the shared cache, so nothing is re-simulated) instead of
        folding poison into the merge.
        """
        path = self._results_dir(job_id) / f"{unit_id}.json"
        payload = self._read_validated(path, job_id, "results")
        if payload is None:
            return None
        if payload.get("unit") != unit_id:
            self._quarantine(path, job_id, "results")
            return None
        return payload

    def quarantine_result(self, job_id: str, unit_id: str) -> bool:
        """Explicitly quarantine a published result a reader rejected.

        Used by the merge when a result parses but fails a semantic
        check the store cannot perform itself (e.g. a campaign unit
        whose run count disagrees with the job manifest).
        """
        path = self._results_dir(job_id) / f"{unit_id}.json"
        if not path.exists():
            return False
        return self._quarantine(path, job_id, "results")

    def publish_telemetry(self, job_id: str, unit_id: str, owner: str,
                          payload: dict) -> None:
        """Per-execution throughput stats, kept out of the result files.

        Result files must be byte-idempotent across duplicate
        executions (see the claim protocol), so anything
        execution-specific — owner, wall seconds, simulations actually
        run — lands here instead, one file per (unit, owner).
        """
        owner = sanitize_owner(owner)
        _write_atomic(
            self._telemetry_dir(job_id) / f"{unit_id}{_CLAIM_SEP}{owner}.json",
            canonical_json(payload),
        )

    def telemetry(self, job_id: str) -> List[dict]:
        """Every published telemetry record, in sorted file order."""
        directory = self._telemetry_dir(job_id)
        records = []
        for name in self._unit_names(directory, ".json"):
            payload = _read_json(directory / f"{name}.json")
            if payload is not None:
                records.append(payload)
        return records

    def complete_unit(self, job_id: str, unit_id: str,
                      claim: pathlib.Path) -> None:
        """Mark a published unit done by renaming its claim.

        If the claim vanished (a reclaimer stole it while we finished),
        the published result still stands — whoever holds the claim now
        will publish identical bytes and complete it.
        """
        done = self._done_dir(job_id)
        done.mkdir(parents=True, exist_ok=True)
        try:
            os.replace(claim, done / unit_id)
        except OSError:
            pass

    def fail_unit(self, job_id: str, unit_id: str, claim: pathlib.Path,
                  error: str, error_type: str = "",
                  traceback_text: str = "", owner: str = "") -> bool:
        """Book one failed attempt; returns True if the unit was parked.

        Under :data:`MAX_UNIT_ATTEMPTS` the unit is requeued for any
        worker to retry; at the limit it moves to ``failed/`` with the
        error text, and the job reports ``failed`` instead of spinning.

        Each attempt is recorded as a JSON file carrying the failure's
        type, message and traceback, so the poison diagnosis
        (:func:`repro.service.health.diagnose_poison`) can tell a
        deterministic crash (same traceback every time) from flaky
        infrastructure (distinct ones).
        """
        attempts_dir = self._attempts_dir(job_id)
        attempts_dir.mkdir(parents=True, exist_ok=True)
        attempt = 1 + sum(
            1 for name in self._unit_names(attempts_dir, "")
            if name.startswith(f"{unit_id}-")
        )
        _write_atomic(attempts_dir / f"{unit_id}-{attempt}",
                      canonical_json({
                          "unit": unit_id,
                          "attempt": attempt,
                          "error": error,
                          "error_type": error_type,
                          "traceback": traceback_text,
                          "owner": owner,
                      }))
        if attempt >= MAX_UNIT_ATTEMPTS:
            self._park_failed(job_id, claim, unit_id, error)
            return True
        try:
            os.replace(claim, self._units_dir(job_id) / f"{unit_id}.json")
        except OSError:
            pass
        return False

    def unit_attempts(self, job_id: str, unit_id: str) -> List[dict]:
        """Attempt records for one unit, in attempt order.

        Tolerates the pre-health empty marker files (recorded as bare
        attempts with no captured failure).
        """
        attempts_dir = self._attempts_dir(job_id)
        records = []
        for name in self._unit_names(attempts_dir, ""):
            if not name.startswith(f"{unit_id}-"):
                continue
            payload = _read_json(attempts_dir / name)
            if not isinstance(payload, dict):
                payload = {"unit": unit_id, "error": "", "error_type": "",
                           "traceback": "", "owner": ""}
            payload.setdefault(
                "attempt", int(name.rsplit("-", 1)[1])
                if name.rsplit("-", 1)[1].isdigit() else 0)
            records.append(payload)
        return sorted(records, key=lambda r: r.get("attempt", 0))

    def _park_failed(self, job_id: str, claim: pathlib.Path,
                     unit_id: str, error: str) -> None:
        failed_dir = self._failed_dir(job_id)
        failed_dir.mkdir(parents=True, exist_ok=True)
        _write_atomic(failed_dir / f"{unit_id}.json",
                      canonical_json({"unit": unit_id, "error": error}))
        try:
            os.unlink(claim)
        except OSError:
            pass

    # -- recovery ------------------------------------------------------
    def requeue_expired(self, job_id: str,
                        lease_seconds: float = DEFAULT_LEASE_SECONDS,
                        now: Optional[float] = None) -> Dict[str, List[str]]:
        """Steal expired claims: requeue unfinished, complete orphans.

        A claim older than *lease_seconds* whose result was already
        published belongs to a worker that died between publish and
        complete — it is completed in place (no re-execution).  One
        without a result is renamed back into ``units/`` for any worker
        to re-claim.  Losing either race to the (still live) claimant
        is fine: renames are atomic and results idempotent.
        """
        now = time.time() if now is None else now
        moved: Dict[str, List[str]] = {"requeued": [], "completed": []}
        claims_dir = self._claims_dir(job_id)
        for name in self._unit_names(claims_dir, ""):
            if _CLAIM_SEP not in name:
                continue
            claim = claims_dir / name
            try:
                age = now - claim.stat().st_mtime
            except OSError:
                continue  # completed or stolen meanwhile
            if age < lease_seconds:
                continue
            unit_id = name.split(_CLAIM_SEP, 1)[0].removesuffix(".json")
            if self.unit_result(job_id, unit_id) is not None:
                self.complete_unit(job_id, unit_id, claim)
                moved["completed"].append(unit_id)
                continue
            unit_path = self._units_dir(job_id) / f"{unit_id}.json"
            try:
                os.replace(claim, unit_path)
            except OSError:
                continue
            # Re-read after the requeue: the (still live) claimant may
            # have published its result in the window between the
            # result check above and the rename.  Adopting it here —
            # re-claiming the unit we just requeued and completing it —
            # turns a double-attempt into a completion; losing the
            # re-claim race to another worker is benign (it republishes
            # identical bytes), but we must not leave a published unit
            # sitting in the pending queue.
            if self.unit_result(job_id, unit_id) is not None:
                self.registry.inc("store_requeue_adoptions")
                try:
                    os.replace(unit_path, claim)
                except OSError:
                    moved["completed"].append(unit_id)
                    continue
                self.complete_unit(job_id, unit_id, claim)
                moved["completed"].append(unit_id)
                continue
            moved["requeued"].append(unit_id)
        return moved

    # -- accounting ----------------------------------------------------
    def counts(self, job_id: str) -> Dict[str, int]:
        job = self.load_job(job_id)
        total = len(job["units"]) if job else 0
        return {
            "total": total,
            "pending": len(self.pending_units(job_id)),
            "claimed": len(self.claimed_units(job_id)),
            "done": len(self.done_units(job_id)),
            "failed": len(self.failed_units(job_id)),
        }

    def read_merged(self, job_id: str) -> Optional[dict]:
        """The merged output, or ``None`` if absent or corrupt.

        A torn merged file is quarantined; the merge is deterministic,
        so the next finalizer rebuilds identical bytes from the unit
        results.
        """
        return self._read_validated(self.merged_path(job_id), job_id,
                                    "merged")

    def write_merged(self, job_id: str, payload: dict) -> None:
        """Publish the merged output (atomic; concurrent writers race
        benignly because the merge is deterministic — identical bytes)."""
        _write_atomic(self.merged_path(job_id), canonical_json(payload))

    # -- worker health -------------------------------------------------
    def beat(self, owner: str, payload: dict) -> None:
        """Publish a worker heartbeat (atomic, one file per owner).

        ``beat_unix`` is stamped here so every record carries the
        store's notion of when it was written; the rest of *payload*
        (pid, host, lifetime counters, current unit) is the worker's.
        """
        owner = sanitize_owner(owner)
        record = dict(payload)
        record["owner"] = owner
        record["beat_unix"] = time.time()
        _write_atomic(self.workers_dir / f"{owner}.json",
                      canonical_json(record))

    def worker_records(self, stale_after: float = DEFAULT_STALE_SECONDS,
                       now: Optional[float] = None) -> List[dict]:
        """Every worker heartbeat, annotated ``alive``/``stale``.

        A torn heartbeat is quarantined into ``workers/quarantine/``
        (heartbeats are advisory, so losing one is harmless) and
        skipped.
        """
        now = time.time() if now is None else now
        records = []
        for name in self._unit_names(self.workers_dir, ".json"):
            path = self.workers_dir / f"{name}.json"
            payload = _read_json(path)
            if not isinstance(payload, dict) or "beat_unix" not in payload:
                self.registry.inc("store_corrupt_heartbeats")
                try:
                    quarantine = self.workers_dir / "quarantine"
                    quarantine.mkdir(parents=True, exist_ok=True)
                    os.replace(path, quarantine / path.name)
                    self.registry.inc("store_quarantined")
                except OSError:
                    pass
                continue
            age = now - payload["beat_unix"]
            payload["age_seconds"] = round(age, 3)
            payload["state"] = "alive" if age < stale_after else "stale"
            records.append(payload)
        return sorted(records, key=lambda r: r.get("owner", ""))

    def remove_worker_record(self, owner: str) -> None:
        """Drop a worker's heartbeat (on clean exit, or by the janitor
        once a record has been stale past any useful horizon)."""
        try:
            os.unlink(self.workers_dir / f"{sanitize_owner(owner)}.json")
        except OSError:
            pass


def sanitize_owner(owner: str) -> str:
    """Owner ids land in file names; keep them boring."""
    cleaned = "".join(ch if ch.isalnum() or ch in "-._" else "-"
                      for ch in owner)
    if not cleaned:
        raise ConfigError(f"unusable worker owner id {owner!r}")
    return cleaned[:80]


def default_owner() -> str:
    """A unique-enough worker identity: host, pid, random nonce."""
    import socket
    host = socket.gethostname() or "host"
    return sanitize_owner(f"{host}-{os.getpid()}-{os.urandom(4).hex()}")
