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
            results/<uid>.json      published unit results (a unit is
                                    done iff its result exists)
            failed/<uid>.json       units that exhausted their attempts
            attempts/<uid>-<n>      one JSON record per failed attempt
            merged.json             deterministic merged output
            table.pkl               a fan-out job's task table
        index/                      derived state, rebuilt from one scan
                                    of jobs/ whenever it is missing
            active/<job_id>         empty marker of each unmerged job
            quarantined             empty flag: something was quarantined
        workers/<owner>.json        worker heartbeats

**Claim protocol.**  A worker claims ``units/<uid>.json`` by renaming
it into ``claims/`` with its owner id appended — exactly one claimant
ever wins a unit, no matter how many race.  Publishing
``results/<uid>.json`` (atomic temp-file + replace) completes the unit;
the worker then drops its claim.  A worker that dies mid-unit leaves a
claim whose lease (claim-file mtime, refreshed at claim time) expires;
any other worker requeues it — or, if the result was already
published, completes it — so no unit is ever lost.  A pending copy of
a unit whose result exists is dropped at claim time, never executed.
A unit can only execute twice if its lease expires while the original
claimant is still alive, and then both executions publish
byte-identical results (classification is deterministic and
content-addressed), so the race is harmless: *exactly-once effects*
even when execution is at-least-once.

**The index.**  Workers, the janitor and the server walk
``index/active/`` instead of listing every job ever stored, and
admission reads the ``quarantined`` flag instead of listing every
job's artifacts, so a warm op costs the same on a store of ten jobs
and of a thousand.  The index is derived and never trusted over the
job directories: a missing ``index/`` (a store written before it
existed, or deleted) is rebuilt from one scan, atomically, and the
rebuild is counted (``store_index_rebuilds``); ``serve fsck`` audits
it against the job directories and ``--repair`` mends it.  Its rules:

* a job's marker is written before its ``job.json`` and again after
  it (a marker whose ``job.json`` has not landed is skipped, not
  pruned);
* it is unlinked only after ``merged.json`` lands, then re-checked and
  restored if ``merged.json`` is gone again; every quarantine of
  ``merged.json`` re-creates it;
* the ``quarantined`` flag is written before every quarantine move,
  and admission runs the exact artifact scan once it is set, so the
  admission decision never rests on a tally;
* nothing but a rebuild creates ``index/`` itself, so a lone new entry
  can never pose as a whole index.

**Exactly-once classification.**  Unit results are published *through
the cache*: every fault classification inside a unit is also stored
under its :func:`~repro.faults.campaign.fault_run_key` in the shared
result cache, so a requeued unit — or a warm resubmission of a whole
job — re-simulates nothing that any worker anywhere already computed.
"""

from __future__ import annotations

import errno
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

#: tries an index read or write gets: a missing index is rebuilt
#: between tries, and it can go missing again before the next one
INDEX_ATTEMPTS = 5

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
    "store_corrupt_heartbeats",
    "store_quarantined",
    "store_degraded_rejections",
    "store_index_rebuilds",
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


def _touch(path: pathlib.Path) -> None:
    """Create the empty file *path* (its directory must exist)."""
    os.close(os.open(path, os.O_WRONLY | os.O_CREAT, 0o644))


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

    @property
    def workers_dir(self) -> pathlib.Path:
        """Store-wide worker heartbeat directory (one file per owner)."""
        return self.root / "workers"

    @property
    def index_dir(self) -> pathlib.Path:
        """The derived job index (see the module docstring)."""
        return self.root / "index"

    def active_marker(self, job_id: str) -> pathlib.Path:
        """The index entry that lists *job_id* as unmerged."""
        return self.index_dir / "active" / job_id

    @property
    def quarantine_flag(self) -> pathlib.Path:
        """Present once any job artifact may have been quarantined."""
        return self.index_dir / "quarantined"

    # -- the index -----------------------------------------------------
    def rebuild_index(self) -> bool:
        """Rebuild a missing ``index/`` from one scan of the jobs.

        The scan is built in a temporary directory and renamed into
        place, so no reader ever sees half an index; if another
        process's rebuild lands first, this one is discarded.  Returns
        True if this call's index landed; a rebuild that found planned
        jobs counts in ``store_index_rebuilds``.
        """
        if self.index_dir.is_dir():
            return False
        self.root.mkdir(parents=True, exist_ok=True)
        scratch = pathlib.Path(tempfile.mkdtemp(dir=self.root,
                                                prefix=".index-"))
        try:
            (scratch / "active").mkdir()
            jobs = self.list_jobs()
            for job_id in jobs:
                if not self.merged_path(job_id).exists():
                    _touch(scratch / "active" / job_id)
            if any(self.quarantined_files(job_id) for job_id in jobs):
                _touch(scratch / "quarantined")
            os.rename(scratch, self.index_dir)
        except OSError as error:
            shutil.rmtree(scratch, ignore_errors=True)
            if error.errno in (errno.ENOTEMPTY, errno.EEXIST):
                return False  # another process's rebuild landed first
            raise
        if jobs:
            self.registry.inc("store_index_rebuilds")
        return True

    def _with_index(self, operation):
        """``operation()`` on the index, rebuilding it whenever the
        operation finds it missing (nothing else creates ``index/``)."""
        for _ in range(INDEX_ATTEMPTS - 1):
            try:
                return operation()
            except FileNotFoundError:
                self.rebuild_index()
        return operation()

    def _index_touch(self, path: pathlib.Path) -> None:
        """Create the index entry *path*."""
        self._with_index(lambda: _touch(path))

    def mark_active(self, job_id: str) -> None:
        """List *job_id* as unmerged in the index."""
        self._index_touch(self.active_marker(job_id))

    def unmark_active(self, job_id: str) -> None:
        """Drop the marker of a merged job.

        Called only once ``merged.json`` has landed; if it is gone
        again by the time the marker is (a concurrent quarantine), the
        marker is restored.
        """
        try:
            os.unlink(self.active_marker(job_id))
        except OSError:
            return
        if not self.merged_path(job_id).exists():
            self.mark_active(job_id)

    def active_jobs(self) -> List[str]:
        """Every unmerged planned job id, sorted (the claim scan order).

        Read from the index, so the walk costs the same however many
        merged jobs the store holds.  A marker whose job has merged is
        pruned on the way; one whose ``job.json`` has not landed is
        skipped and kept (its planner writes the manifest next).
        """
        active_dir = self.index_dir / "active"
        names = self._with_index(lambda: os.listdir(active_dir))
        active = []
        for job_id in sorted(names):
            if self.merged_path(job_id).exists():
                self.unmark_active(job_id)
            elif (self.job_dir(job_id) / "job.json").exists():
                active.append(job_id)
        return active

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
        self._index_touch(self.quarantine_flag)
        merged = path == self.merged_path(job_id)
        if merged:
            # the job is unmerged again: listed before the move (a crash
            # after it must not lose the job) and after it (a pruner
            # that saw the old merged.json may have dropped the marker)
            self.mark_active(job_id)
        quarantine = self.quarantine_dir(job_id)
        try:
            quarantine.mkdir(parents=True, exist_ok=True)
            os.replace(path, quarantine / path.name)
        except OSError:
            return False
        finally:
            if merged:
                self.mark_active(job_id)
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
        """Quarantined artifacts as a fraction of all job artifacts.

        0.0 without a scan while the index's ``quarantined`` flag is
        absent (nothing was ever quarantined, so the fraction is exactly
        zero); otherwise the exact scan of every job's artifacts.
        """
        if not self.quarantine_flag.exists():
            self.rebuild_index()  # a no-op unless index/ is missing
            if not self.quarantine_flag.exists() and self.index_dir.is_dir():
                return 0.0
        quarantined = artifacts = 0
        for job_id in self.list_jobs():
            quarantined += len(self.quarantined_files(job_id))
            for sub in (self._units_dir, self._claims_dir,
                        self._results_dir, self._failed_dir):
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
        self.mark_active(job_id)
        for unit in units:
            _write_atomic(self._units_dir(job_id) / f"{unit['unit']}.json",
                          canonical_json(unit))
        for sub in (self._claims_dir, self._results_dir, self._failed_dir,
                    self._attempts_dir, self._telemetry_dir):
            sub(job_id).mkdir(parents=True, exist_ok=True)
        payload = dict(payload)
        payload["job_id"] = job_id
        payload["units"] = [
            {"unit": unit["unit"], "count": len(unit["items"])}
            for unit in units
        ]
        # job.json lands last: a job directory without it is still being
        # planned and is invisible to workers.  The marker is written
        # again after it, in case an index rebuilt meanwhile scanned the
        # directory before the manifest landed.
        _write_atomic(job_dir / "job.json", canonical_json(payload))
        self.mark_active(job_id)
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
        """Every fully planned job id, sorted.

        A scan of the whole store, kept for ``fsck``, ``serve status``
        and index rebuilds; the per-op paths walk :meth:`active_jobs`.
        """
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
        """Units with a published result: the one record of "done"."""
        return self._unit_names(self._results_dir(job_id), ".json")

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
        the rename guarantees exactly one winner per unit.  A pending
        copy of a unit whose result is already published (say, by a
        claimant whose expired lease was requeued under it) is dropped
        instead: the result completes the unit.  Returns the unit
        payload and the claim path (needed to complete or fail the
        unit), or ``None`` when nothing is pending.
        """
        owner = sanitize_owner(owner)
        units_dir = self._units_dir(job_id)
        claims_dir = self._claims_dir(job_id)
        results_dir = self._results_dir(job_id)
        claims_dir.mkdir(parents=True, exist_ok=True)
        for name in self._unit_names(units_dir, ""):
            if not name.endswith(".json"):
                continue
            if (results_dir / name).exists():
                try:
                    os.unlink(units_dir / name)
                except OSError:
                    pass
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

        Used by the janitor sweep and fsck once a unit is lost (its
        unit file or result was quarantined): unit payloads are
        deterministic functions of the job manifest, so the restored
        file is byte-identical to the one the planner wrote.
        """
        _write_atomic(self._units_dir(job_id) / f"{unit['unit']}.json",
                      canonical_json(unit))

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
        run — lands here instead, one file per execution:
        ``<unit>@<owner>.json``, then ``<unit>@<owner>@<n>.json`` for
        the owner's *n*-th run of the unit (its result was lost).
        """
        stem = f"{unit_id}{_CLAIM_SEP}{sanitize_owner(owner)}"
        path = self._telemetry_dir(job_id) / f"{stem}.json"
        runs = 1
        while path.exists():  # one owner runs one unit at a time
            runs += 1
            path = path.with_name(f"{stem}{_CLAIM_SEP}{runs}.json")
        _write_atomic(path, canonical_json(payload))

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
        """Drop the claim of a unit whose result is published.

        If the claim vanished (a reclaimer stole it while we finished),
        the published result still stands — it completes the unit, and
        the stolen copy is dropped when it is next claimed.
        """
        try:
            os.unlink(claim)
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
        is fine: renames are atomic, results idempotent, and a result
        published after the requeue makes :meth:`claim_unit` drop the
        requeued copy.
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
            try:
                os.replace(claim, self._units_dir(job_id) / f"{unit_id}.json")
            except OSError:
                continue
            moved["requeued"].append(unit_id)
        return moved

    # -- accounting ----------------------------------------------------
    def counts(self, job_id: str,
               job: Optional[dict] = None) -> Dict[str, int]:
        """Unit counts by state; *job* is the manifest, if loaded."""
        job = job if job is not None else self.load_job(job_id)
        units = {entry["unit"] for entry in job["units"]} if job else set()
        return {
            "total": len(units),
            "pending": len(self.pending_units(job_id)),
            "claimed": len(self.claimed_units(job_id)),
            "done": len(units.intersection(self.done_units(job_id))),
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
        benignly because the merge is deterministic — identical bytes),
        then drop the job's index marker."""
        _write_atomic(self.merged_path(job_id), canonical_json(payload))
        self.unmark_active(job_id)

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
