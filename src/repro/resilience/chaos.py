"""Chaos harness: inject faults into the *harness* and prove recovery.

Warped-DMR injects faults into simulated execution lanes; this module
injects them into the simulation fleet itself — SIGKILL a worker
mid-unit, sleep past the unit deadline, raise from a worker, truncate
or bit-flip persistent-cache entries — and asserts the campaign still
converges to results byte-identical to an unfaulted serial run.

Chaos events live as marker files in a plan directory
(:class:`ChaosPlan`).  A worker claims an event by atomically renaming
its marker (``os.replace`` — exactly one claimant wins across
processes and retries), so each event fires exactly once no matter how
often its unit is retried.  Workers fire them through
:meth:`repro.service.worker.ServiceWorker._fire_chaos`, between
claiming a unit and executing it; a fan-out reaches its workers
through :attr:`repro.analysis.result_cache.CachedFanout.chaos_plan`.

:func:`run_campaign_chaos` is the scenario driver behind ``python -m
repro chaos`` and the ``tests/resilience`` acceptance tests.
"""

from __future__ import annotations

import json
import os
import pathlib
import random
import tempfile
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

#: worker-side chaos kinds
WORKER_KINDS = ("kill", "sleep", "raise")

#: how long a ``sleep`` event stalls its worker — far past any deadline
#: a chaos scenario sets, so only the deadline kill ends it
SLEEP_SECONDS = 30.0


class ChaosFailure(RuntimeError):
    """The exception injected by ``raise`` events.

    Deliberately *not* a :class:`~repro.common.errors.ReproError`: the
    fleet must classify it transient and retry, exactly like any flaky
    infrastructure exception.
    """


class ChaosPlan:
    """A directory of one-shot chaos events.

    Each requested event becomes a marker file ``<kind>-<n>``; claiming
    renames it to ``<kind>-<n>.done``.  The plan object stays in the
    parent — workers only ever see the directory path.
    """

    def __init__(self, plan_dir: os.PathLike, kills: int = 0,
                 sleeps: int = 0, raises: int = 0) -> None:
        self.plan_dir = str(plan_dir)
        os.makedirs(self.plan_dir, exist_ok=True)
        for kind, count in (("kill", kills), ("sleep", sleeps),
                            ("raise", raises)):
            for number in range(count):
                pathlib.Path(self.plan_dir, f"{kind}-{number}").touch()

    def pending(self) -> int:
        """Events not yet claimed by any worker."""
        return sum(1 for name in os.listdir(self.plan_dir)
                   if not name.endswith(".done"))

    def fired(self) -> int:
        """Events already claimed (and therefore executed)."""
        return sum(1 for name in os.listdir(self.plan_dir)
                   if name.endswith(".done"))


def claim_event(plan_dir: str,
                kinds: Sequence[str] = WORKER_KINDS) -> Optional[str]:
    """Atomically claim one pending event of a kind in *kinds*.

    Returns the claimed kind, or ``None`` if nothing (matching) is
    pending.  Markers are scanned in sorted order so claims are
    deterministic up to the race between concurrent claimants — and the
    rename makes that race safe: exactly one claimant wins each marker.
    """
    try:
        names = sorted(os.listdir(plan_dir))
    except OSError:
        return None
    for name in names:
        if name.endswith(".done"):
            continue
        kind = name.rsplit("-", 1)[0]
        if kind not in kinds:
            continue
        path = os.path.join(plan_dir, name)
        try:
            os.replace(path, path + ".done")
        except OSError:
            continue  # another claimant won this marker
        return kind
    return None


# ----------------------------------------------------------------------
# Cache corruption
# ----------------------------------------------------------------------
def corrupt_cache_entries(cache_dir: os.PathLike, count: int = 1,
                          mode: str = "truncate",
                          seed: int = 0) -> List[str]:
    """Corrupt *count* cache entries in place; returns their file names.

    ``truncate`` halves the file (a crashed writer without atomic
    replace); ``bitflip`` flips one bit mid-payload (media corruption).
    The victims are drawn with an injected RNG so scenarios reproduce.
    """
    if mode not in ("truncate", "bitflip"):
        raise ValueError(f"unknown corruption mode {mode!r}")
    paths = sorted(pathlib.Path(cache_dir).glob("*.pkl"))
    rng = random.Random(seed)
    chosen = rng.sample(paths, min(count, len(paths)))
    for path in chosen:
        data = path.read_bytes()
        if mode == "truncate":
            path.write_bytes(data[: len(data) // 2])
        else:
            flipped = bytearray(data)
            flipped[len(flipped) // 2] ^= 0x10
            path.write_bytes(bytes(flipped))
    return [path.name for path in chosen]


# ----------------------------------------------------------------------
# Scenario driver
# ----------------------------------------------------------------------
@dataclass
class ChaosReport:
    """Outcome of one chaos scenario, ready for JSON and assertions."""

    matched: bool
    classifications: int
    outcomes: Dict[str, int]
    counters: Dict[str, int]
    corrupted_entries: List[str]
    events_fired: int
    events_pending: int
    simulations: int
    snapshot_payload: dict = field(repr=False, default_factory=dict)

    def to_payload(self) -> dict:
        return {
            "matched": self.matched,
            "classifications": self.classifications,
            "outcomes": self.outcomes,
            "counters": self.counters,
            "corrupted_entries": self.corrupted_entries,
            "events_fired": self.events_fired,
            "events_pending": self.events_pending,
            "simulations": self.simulations,
            "snapshot": self.snapshot_payload,
        }


def _canonical_runs(result) -> str:
    """Byte-identity currency: canonical JSON over run payloads."""
    return json.dumps([run.to_payload() for run in result.runs],
                      sort_keys=True, separators=(",", ":"), default=repr)


def run_campaign_chaos(workload: str = "scan", samples: int = 200,
                       parallel: int = 2, *, kills: int = 1,
                       sleeps: int = 0, raises: int = 0, corrupt: int = 1,
                       corrupt_mode: str = "truncate", scale: float = 0.5,
                       seed: int = 0, sms: int = 1,
                       task_deadline: Optional[float] = None,
                       work_dir: Optional[os.PathLike] = None,
                       ) -> ChaosReport:
    """Run the acceptance scenario and report what the harness absorbed.

    Three phases:

    1. a serial, unfaulted, cache-less campaign — the reference bytes;
    2. a cache seeded with a prefix of the classifications, then
       ``corrupt`` entries corrupted on disk;
    3. the same campaign, fanned out over ``parallel`` workers with the
       requested chaos plan and the poisoned cache.

    The report's ``matched`` is byte-identity of phase 3 against phase
    1 — zero lost classifications, zero poisoned results.  When
    ``sleeps`` are injected, pass a ``task_deadline`` (seconds per
    unit) well below :data:`SLEEP_SECONDS` so the timeout path fires.
    """
    from repro.analysis.runner import experiment_config
    from repro.common.config import DMRConfig
    from repro.faults.campaign import CampaignEngine, CampaignSpec
    from repro.faults.sampler import FaultSampler

    spec = CampaignSpec(
        workload=workload, config=experiment_config(num_sms=sms),
        dmr=DMRConfig.paper_default(), scale=scale, seed=seed,
    )

    cleanup = None
    if work_dir is None:
        cleanup = tempfile.TemporaryDirectory(prefix="repro-chaos-")
        work_dir = cleanup.name
    work = pathlib.Path(work_dir)
    cache_dir = work / "cache"
    plan_dir = work / "plan"

    try:
        # -- phase 1: serial unfaulted reference ------------------------
        reference_engine = CampaignEngine(spec)
        sampler = FaultSampler(spec.config)
        horizon = reference_engine.golden_result().cycles
        faults = sampler.sample(samples, horizon, seed=seed)
        reference = reference_engine.run(faults)

        # -- phase 2: seed then poison the cache ------------------------
        seed_engine = CampaignEngine(spec, cache=cache_dir)
        seed_count = max(2, 2 * corrupt)
        seed_engine.run(faults[:seed_count])
        corrupted = corrupt_cache_entries(cache_dir, corrupt,
                                          mode=corrupt_mode, seed=seed)

        # -- phase 3: chaos campaign ------------------------------------
        plan = ChaosPlan(plan_dir, kills=kills, sleeps=sleeps,
                         raises=raises)
        engine = CampaignEngine(spec, cache=cache_dir, jobs=parallel)
        engine.fanout.chaos_plan = str(plan_dir)
        if task_deadline:
            engine.fanout.deadline = task_deadline
        harness = engine.harness
        chaotic = engine.run(faults, parallel=parallel)

        matched = _canonical_runs(chaotic) == _canonical_runs(reference)
        return ChaosReport(
            matched=matched,
            classifications=chaotic.total,
            outcomes=chaotic.summary(),
            counters={name: value
                      for name, value in harness.counters().items()},
            corrupted_entries=corrupted,
            events_fired=plan.fired(),
            events_pending=plan.pending(),
            simulations=engine.simulations,
            snapshot_payload=harness.to_payload(),
        )
    finally:
        if cleanup is not None:
            cleanup.cleanup()


# ----------------------------------------------------------------------
# Fabric chaos: attacks on the service store itself
# ----------------------------------------------------------------------
def _mangle_file(path: pathlib.Path, mode: str) -> None:
    """Corrupt one store artifact in place.

    ``truncate`` halves the file (a writer that died without atomic
    replace — or at ENOSPC); ``bitflip`` flips a bit in the *first*
    byte, which reliably breaks JSON framing (``{`` stops being ``{``)
    — the deterministic stand-in for media corruption the store is
    contractually required to catch.
    """
    data = path.read_bytes()
    if mode == "truncate":
        path.write_bytes(data[: max(1, len(data) // 2)])
    else:
        flipped = bytearray(data) or bytearray(b"\x00")
        flipped[0] ^= 0x10
        path.write_bytes(bytes(flipped))


def corrupt_store_files(store, job_id: str, *, results: int = 1,
                        units: int = 1, mode: str = "bitflip",
                        seed: int = 0) -> List[str]:
    """Corrupt published results and pending units of a live job.

    Victims are drawn deterministically (sorted order + injected RNG)
    so scenarios reproduce.  Returns the relative paths attacked.
    Corrupting a *done* unit's result is the nastiest case: the job
    looks complete, but the merge must now quarantine the file, and
    the next sweep restores the unit for the fleet to republish from
    the cache.
    """
    if mode not in ("truncate", "bitflip"):
        raise ValueError(f"unknown corruption mode {mode!r}")
    rng = random.Random(seed)
    attacked: List[str] = []
    result_paths = sorted((store._results_dir(job_id)).glob("*.json"))
    for path in rng.sample(result_paths, min(results, len(result_paths))):
        _mangle_file(path, mode)
        attacked.append(f"results/{path.name}")
    unit_paths = sorted((store._units_dir(job_id)).glob("*.json"))
    for path in rng.sample(unit_paths, min(units, len(unit_paths))):
        _mangle_file(path, mode)
        attacked.append(f"units/{path.name}")
    return attacked


def skew_claim_clocks(store, job_id: str,
                      skew_seconds: float = 3600.0) -> int:
    """Set every claim's lease clock *skew_seconds* into the past.

    Models a host whose clock jumped (or an NFS server stamping
    mtimes from another era): every in-flight lease instantly looks
    expired, so reclaimers race the still-live claimants — exactly the
    window claim-time adoption covers (a requeued unit whose result
    lands is dropped, not re-run).  Returns claims skewed.
    """
    skewed = 0
    claims_dir = store._claims_dir(job_id)
    try:
        names = sorted(os.listdir(claims_dir))
    except OSError:
        return 0
    stamp = time.time() - skew_seconds
    for name in names:
        try:
            os.utime(claims_dir / name, (stamp, stamp))
            skewed += 1
        except OSError:
            continue
    return skewed


def scatter_foreign_files(store, job_id: str) -> List[str]:
    """Drop the debris a dying writer leaves: ``.tmp`` files and junk.

    A writer killed between ``mkstemp`` and ``os.replace`` (SIGKILL,
    ENOSPC) leaves an orphan temp file; a confused operator leaves a
    stray note.  None of it may ever be claimed, merged or mistaken
    for a unit — fsck must quarantine all of it.
    """
    dropped = []
    targets = (
        (store._units_dir(job_id) / "tmpchaosq1.tmp", b"{\"half\": "),
        (store._results_dir(job_id) / "tmpchaosq2.tmp", b"garbage"),
        (store.job_dir(job_id) / "NOTES.txt", b"operator was here\n"),
    )
    for path, blob in targets:
        try:
            path.parent.mkdir(parents=True, exist_ok=True)
            path.write_bytes(blob)
            dropped.append(path.name)
        except OSError:
            continue
    return dropped


@dataclass
class FabricChaosReport:
    """Outcome of one fabric chaos scenario (``repro chaos --fabric``)."""

    matched: bool
    fsck_clean: bool
    job_id: str
    samples: int
    simulations: int
    kills_fired: int
    corrupted: List[str]
    foreign_dropped: List[str]
    skewed_claims: int
    repair_findings: Dict[str, int]
    quarantined: int
    worker_exits: List[Optional[int]]
    counters: Dict[str, int]

    def to_payload(self) -> dict:
        return {
            "matched": self.matched,
            "fsck_clean": self.fsck_clean,
            "job_id": self.job_id,
            "samples": self.samples,
            "simulations": self.simulations,
            "kills_fired": self.kills_fired,
            "corrupted": self.corrupted,
            "foreign_dropped": self.foreign_dropped,
            "skewed_claims": self.skewed_claims,
            "repair_findings": self.repair_findings,
            "quarantined": self.quarantined,
            "worker_exits": self.worker_exits,
            "counters": self.counters,
        }


def run_fabric_chaos(workload: str = "scan", samples: int = 120,
                     workers: int = 2, *, kills: int = 1,
                     corrupt: int = 2, corrupt_mode: str = "bitflip",
                     skew_seconds: float = 3600.0,
                     unit_size: int = 8, scale: float = 0.4,
                     seed: int = 0, sms: int = 1,
                     lease_seconds: float = 1.0,
                     max_idle: float = 2.0,
                     work_dir: Optional[os.PathLike] = None,
                     ) -> FabricChaosReport:
    """The fabric acceptance scenario: chaos against the job store.

    Phases:

    1. submit a campaign job into a fresh store and let a single
       in-process worker complete a couple of units (so there are
       published results worth attacking);
    2. attack the store: bit-flip/truncate published results and
       pending units, abandon a claim and skew every claim's lease
       clock an hour into the past, scatter torn ``.tmp`` files and
       foreign junk (the disk-full writer's debris);
    3. run ``serve fsck --repair`` over the wreckage, then let a second
       in-process worker finish one more unit and corrupt its fresh
       result — a done unit with no claim and no pending copy, which
       the fleet must heal without a second fsck (not the opener: its
       next unit is one it already ran, and a same-owner re-run
       replaces that unit's telemetry record);
    4. unleash a fleet of real OS worker processes with ``kills``
       SIGKILL events pending, then drain the remainder in-process;
    5. audit again — fsck must now report **clean** — and compare
       ``merged.json`` byte-for-byte against the serial in-process
       oracle.

    ``matched`` requires byte-identity *and* fleet-wide simulations ==
    ``samples``: every corrupted result was re-published from the
    shared classification cache (adoption, not recomputation).
    """
    import multiprocessing

    from repro.analysis.runner import experiment_config
    from repro.common.config import DMRConfig
    from repro.faults.campaign import CampaignSpec
    from repro.service.health import fsck_store
    from repro.service.jobs import (serial_merged_payload,
                                    submit_campaign_job)
    from repro.service.server import job_status, watch_job
    from repro.service.store import JobStore, canonical_json
    from repro.service.worker import ServiceWorker, worker_entry

    cleanup = None
    if work_dir is None:
        cleanup = tempfile.TemporaryDirectory(prefix="repro-chaos-fabric-")
        work_dir = cleanup.name
    work = pathlib.Path(work_dir)

    try:
        # -- phase 1: submit, partially execute -------------------------
        store = JobStore(work / "store")
        spec = CampaignSpec(
            workload=workload, config=experiment_config(num_sms=sms),
            dmr=DMRConfig.paper_default(), scale=scale, seed=seed,
        )
        job_id, _ = submit_campaign_job(store, spec, samples=samples,
                                        unit_size=unit_size)
        opener = ServiceWorker(store, owner="chaos-opener")
        for _ in range(2):
            opener.run_once()

        # -- phase 2: attack the store ----------------------------------
        zombie = store.claim_unit(job_id, "chaos-zombie")  # abandoned
        corrupted = corrupt_store_files(
            store, job_id, results=corrupt, units=max(1, corrupt - 1),
            mode=corrupt_mode, seed=seed)
        skewed = skew_claim_clocks(store, job_id, skew_seconds)
        foreign = scatter_foreign_files(store, job_id)
        del zombie

        # -- phase 3: repair --------------------------------------------
        repair = fsck_store(store, repair=True,
                            lease_seconds=lease_seconds)
        finished = ServiceWorker(store, owner="chaos-closer").run_once()
        if finished is not None and "error" not in finished:
            victim = f"results/{finished['unit']}.json"
            _mangle_file(store.job_dir(job_id) / victim, corrupt_mode)
            corrupted.append(victim)

        # -- phase 4: chaos fleet, then drain ---------------------------
        plan = ChaosPlan(work / "plan", kills=kills)
        procs = [
            multiprocessing.Process(
                target=worker_entry, args=(str(store.root),),
                kwargs={"owner": f"chaos-proc-{i}",
                        "lease_seconds": lease_seconds,
                        "chaos_plan": str(work / "plan"),
                        "max_idle": max_idle, "poll": 0.05},
            )
            for i in range(workers)
        ]
        for proc in procs:
            proc.start()
        for proc in procs:
            proc.join(timeout=600)
        exits = [proc.exitcode for proc in procs]

        sweeper = ServiceWorker(store, owner="chaos-sweeper",
                                lease_seconds=0.0)
        while True:
            if sweeper.run_once() is None:
                counts = store.counts(job_id)
                if not counts["pending"] and not counts["claimed"]:
                    break
        watch_job(store, job_id, timeout=30.0, interval=0.05)

        # -- phase 5: audit + oracle ------------------------------------
        audit = fsck_store(store, repair=False)
        status = job_status(store, job_id)
        merged = store.read_merged(job_id)
        merged_bytes = canonical_json(merged) if merged else ""
        serial_bytes = canonical_json(
            serial_merged_payload(store.load_job(job_id)))
        matched = (merged_bytes == serial_bytes
                   and status["simulations"] == samples)
        return FabricChaosReport(
            matched=matched,
            fsck_clean=audit.clean,
            job_id=job_id,
            samples=samples,
            simulations=status["simulations"],
            kills_fired=plan.fired(),
            corrupted=corrupted,
            foreign_dropped=foreign,
            skewed_claims=skewed,
            repair_findings=repair.by_kind(),
            quarantined=len(store.quarantined_files(job_id)),
            worker_exits=exits,
            counters=dict(store.registry.counters()),
        )
    finally:
        if cleanup is not None:
            cleanup.cleanup()
