"""The job-store index: flat per-op cost, crash windows, fallback, fsck.

``index/active/<job_id>`` lists the unmerged jobs and
``index/quarantined`` says whether anything was ever quarantined, so a
warm op never lists the whole store.  The index is derived state: these
tests pin that a store of 1,000 merged jobs costs a warm op no more
file-system calls than a store of 10, that every crash window of the
marker protocol resolves to the job directories' truth, that a missing
index is rebuilt (and adopted on a store that never had one), that the
admission decision equals the exact scan's, and that ``serve fsck``
audits and repairs the index both ways.
"""

import builtins
import math
import multiprocessing
import os
import shutil
import time

import pytest

from repro.common.errors import StoreDegraded
from repro.service.health import fsck_store
from repro.service.jobs import submit_fanout_job
from repro.service.server import ServiceServer
from repro.service.store import JobStore, canonical_json, job_id_for
from repro.service.worker import ServiceWorker

from tests.service.test_health import finish_unit, make_job


def _square(context, item):
    return item * item


def submit_fanout(store: JobStore, items: int = 4) -> str:
    """A job that plans and executes without simulating anything."""
    values = list(range(items))
    return submit_fanout_job(store, _square, None, values,
                             [f"sq{value}" for value in values], 2)


def drain(store: JobStore, owner: str = "index-worker") -> ServiceWorker:
    worker = ServiceWorker(store, owner=owner, heartbeat_seconds=math.inf)
    while worker.run_once() is not None:
        pass
    return worker


def stuffed_store(root, merged_jobs: int) -> JobStore:
    """A store holding *merged_jobs* finished jobs (hand-made manifests
    and merged outputs), indexed by one rebuild."""
    store = JobStore(root)
    for number in range(merged_jobs):
        material = {"kind": "campaign", "test": "stuffed", "n": number}
        job_id = job_id_for(material)
        job_dir = store.job_dir(job_id)
        job_dir.mkdir(parents=True)
        (job_dir / "job.json").write_text(canonical_json(
            {"kind": "campaign", "material": material, "job_id": job_id,
             "units": []}))
        (job_dir / "merged.json").write_text(canonical_json(
            {"kind": "campaign", "n": number}))
    store.rebuild_index()
    return store


def exact_quarantine_fraction(store: JobStore) -> float:
    """The full artifact scan admission ran before the index existed."""
    quarantined = artifacts = 0
    for job_id in store.list_jobs():
        quarantined += len(store.quarantined_files(job_id))
        for sub in ("units", "claims", "results", "failed"):
            try:
                artifacts += len(os.listdir(store.job_dir(job_id) / sub))
            except OSError:
                pass
    if not artifacts and not quarantined:
        return 0.0
    return quarantined / (artifacts + quarantined)


class FileSystemCalls:
    """Counts directory listings, stats and opens (and keeps the
    listed paths) while installed through ``monkeypatch``."""

    def __init__(self, monkeypatch) -> None:
        self.counts = {"listdir": 0, "stat": 0, "open": 0}
        self.listed = []
        listdir, stat, open_ = os.listdir, os.stat, builtins.open

        def counting_listdir(path="."):
            self.counts["listdir"] += 1
            self.listed.append(os.fspath(path))
            return listdir(path)

        def counting_stat(*args, **kwargs):
            self.counts["stat"] += 1
            return stat(*args, **kwargs)

        def counting_open(*args, **kwargs):
            self.counts["open"] += 1
            return open_(*args, **kwargs)

        monkeypatch.setattr(os, "listdir", counting_listdir)
        monkeypatch.setattr(os, "stat", counting_stat)
        monkeypatch.setattr(builtins, "open", counting_open)


# ----------------------------------------------------------------------
# The counting gate: a warm op's store reads do not grow with the store
# ----------------------------------------------------------------------
class TestFlatCost:
    def _warm_op(self, root, merged_jobs, monkeypatch):
        store = stuffed_store(root, merged_jobs)
        assert len(store.list_jobs()) == merged_jobs
        with monkeypatch.context() as patch:
            calls = FileSystemCalls(patch)
            job_id = submit_fanout(store)
            drain(store)
            merged = store.read_merged(job_id)
        assert merged == {"kind": "fanout",
                          "keys": ["sq0", "sq1", "sq2", "sq3"]}
        return calls.counts

    def test_store_reads_per_op_do_not_grow_with_the_store(
            self, tmp_path, monkeypatch):
        small = self._warm_op(tmp_path / "ten", 10, monkeypatch)
        large = self._warm_op(tmp_path / "thousand", 1000, monkeypatch)
        assert small == large
        assert small["listdir"] > 0 and small["stat"] > 0

    def test_admission_on_a_healthy_store_lists_no_job(self, tmp_path,
                                                       monkeypatch):
        store = stuffed_store(tmp_path, 10)
        with monkeypatch.context() as patch:
            calls = FileSystemCalls(patch)
            store.check_admission()
        jobs = os.fspath(store.jobs_dir)
        assert not [path for path in calls.listed
                    if path.startswith(jobs)]


# ----------------------------------------------------------------------
# Crash windows of the marker protocol
# ----------------------------------------------------------------------
class TestMarkers:
    def test_marker_written_around_the_manifest(self, tmp_path):
        store = JobStore(tmp_path)
        job_id = make_job(store)
        assert store.active_marker(job_id).exists()
        assert store.active_jobs() == [job_id]

    def test_rebuild_before_the_manifest_lands_keeps_the_job(
            self, tmp_path, monkeypatch):
        """An index rebuilt between a job's first marker and its
        job.json scans no manifest; the marker written after job.json
        lists the job all the same."""
        store = JobStore(tmp_path)
        make_job(store, tag="first")
        mark_active = store.mark_active
        raced = []

        def racing_mark(job_id):
            mark_active(job_id)
            if not raced:
                raced.append(job_id)
                shutil.rmtree(store.index_dir)
                assert store.rebuild_index()
                assert not store.active_marker(job_id).exists()
        monkeypatch.setattr(store, "mark_active", racing_mark)
        job_id = make_job(store, tag="second")
        assert raced == [job_id]
        assert job_id in store.active_jobs()

    def test_marker_without_manifest_is_skipped_not_pruned(self, tmp_path):
        store = JobStore(tmp_path)
        make_job(store, tag="landed")
        # a planner that died between its marker and its job.json
        material = {"kind": "campaign", "test": "half-planned"}
        half = job_id_for(material)
        store.mark_active(half)
        store.restore_unit(half, {"unit": "u0000-x", "index": 0,
                                  "kind": "campaign", "items": [0]})
        assert half not in store.active_jobs()
        assert store.active_marker(half).exists()
        server = ServiceServer(store)
        assert server.poll_once()["active_jobs"] == 1  # the landed job
        assert store.active_marker(half).exists()

    def test_leftover_marker_of_merged_job_is_pruned(self, tmp_path):
        store = JobStore(tmp_path)
        job_id = submit_fanout(store)
        drain(store)
        assert store.read_merged(job_id) is not None
        assert not store.active_marker(job_id).exists()
        # a finalizer that died between merged.json and the unlink
        store.mark_active(job_id)
        assert store.active_jobs() == []
        assert not store.active_marker(job_id).exists()

    def test_quarantined_merged_brings_the_job_back(self, tmp_path):
        store = JobStore(tmp_path)
        job_id = submit_fanout(store)
        drain(store)
        first = store.merged_path(job_id).read_bytes()
        store.merged_path(job_id).write_text("torn{")
        assert store.read_merged(job_id) is None  # quarantined
        assert store.active_jobs() == [job_id]
        drain(store)
        assert store.merged_path(job_id).read_bytes() == first
        assert store.active_jobs() == []

    def test_unmark_restores_a_marker_whose_merge_vanished(self, tmp_path):
        store = JobStore(tmp_path)
        job_id = make_job(store)  # never merged
        store.unmark_active(job_id)
        assert store.active_marker(job_id).exists()


# ----------------------------------------------------------------------
# A missing index is rebuilt from the job directories
# ----------------------------------------------------------------------
class TestRebuild:
    def test_index_deleted_mid_fleet_rebuilds_once(self, tmp_path):
        from repro.analysis.runner import experiment_config
        from repro.common.config import DMRConfig
        from repro.faults.campaign import CampaignSpec
        from repro.service.jobs import (serial_merged_payload,
                                        submit_campaign_job)

        store = JobStore(tmp_path / "store")
        spec = CampaignSpec(workload="scan",
                            config=experiment_config(num_sms=1),
                            dmr=DMRConfig.paper_default(), scale=0.25,
                            seed=0)
        job_id, _ = submit_campaign_job(store, spec, samples=12,
                                        unit_size=3)
        fleet = [ServiceWorker(store, owner=f"fleet-{i}",
                               heartbeat_seconds=math.inf)
                 for i in range(2)]
        assert fleet[0].run_once() is not None
        shutil.rmtree(store.index_dir)
        idle = 0
        while idle < len(fleet):
            idle = sum(worker.run_once() is None for worker in fleet)
        assert store.registry.value("store_index_rebuilds") == 1
        merged = canonical_json(store.read_merged(job_id))
        serial = canonical_json(serial_merged_payload(store.load_job(job_id)))
        assert merged == serial
        assert store.active_jobs() == []

    def test_store_without_index_is_adopted(self, tmp_path):
        # the layout the code before the index wrote: jobs/ alone
        store = JobStore(tmp_path)
        done = submit_fanout(store, items=2)
        drain(store)
        pending = make_job(store, n_units=2, tag="pending")
        shutil.rmtree(store.index_dir)

        adopted = JobStore(tmp_path)
        assert adopted.active_jobs() == [pending]
        assert adopted.registry.value("store_index_rebuilds") == 1
        assert adopted.active_marker(pending).exists()
        assert not adopted.active_marker(done).exists()
        assert fsck_store(adopted).clean

    def test_rebuild_on_a_fresh_store_is_not_counted(self, tmp_path):
        store = JobStore(tmp_path)
        make_job(store)
        assert store.registry.value("store_index_rebuilds") == 0
        assert store.index_dir.is_dir()

    def test_rebuild_loses_to_an_index_already_present(self, tmp_path):
        store = JobStore(tmp_path)
        make_job(store)
        assert store.rebuild_index() is False
        assert store.registry.value("store_index_rebuilds") == 0


def _submit_and_work(root: str, sizes, seconds: float) -> None:
    store = JobStore(root)
    worker = ServiceWorker(store, owner=f"stress-{os.getpid()}",
                           heartbeat_seconds=math.inf)
    for size in sizes:
        submit_fanout(store, items=size)
        worker.run_once()
    deadline = time.monotonic() + seconds
    while time.monotonic() < deadline:
        worker.run_once()


def _remove_index(root: str, seconds: float) -> None:
    """Take the index away every 20 ms, atomically (a rename): far
    more often than an operator would, and each time while writers
    and rebuilds race for it."""
    index = os.path.join(root, "index")
    deadline = time.monotonic() + seconds
    removed = 0
    while time.monotonic() < deadline:
        try:
            os.rename(index, f"{index}.gone-{removed}")
            removed += 1
        except OSError:
            pass
        time.sleep(0.02)


class TestIndexUnderRemoval:
    def test_no_job_is_lost_while_the_index_keeps_vanishing(self,
                                                            tmp_path):
        """Three processes submit and work jobs while a fourth keeps
        taking the index away: rebuilds and marker writes race, yet
        every job merges and the index ends consistent with the job
        directories."""
        root = str(tmp_path / "store")
        JobStore(root).rebuild_index()
        procs = [multiprocessing.Process(
                     target=_submit_and_work,
                     args=(root, range(2 + 5 * i, 7 + 5 * i), 2.0))
                 for i in range(3)]
        procs.append(multiprocessing.Process(target=_remove_index,
                                             args=(root, 2.0)))
        for proc in procs:
            proc.start()
        for proc in procs:
            proc.join(timeout=60)
            assert not proc.is_alive()
            assert proc.exitcode == 0
        store = JobStore(root)
        drain(store)
        jobs = store.list_jobs()
        assert len(jobs) == 15
        for job_id in jobs:
            merged = store.read_merged(job_id)
            assert merged is not None, job_id
            assert merged["keys"] == [f"sq{value}" for value in
                                      range(len(merged["keys"]))]
        assert store.active_jobs() == []
        assert fsck_store(store).clean


# ----------------------------------------------------------------------
# Admission stays exact
# ----------------------------------------------------------------------
class TestAdmissionExact:
    def test_fraction_equals_the_scan_on_every_state(self, tmp_path):
        store = JobStore(tmp_path)
        states = []
        states.append(store.quarantine_fraction())  # empty store
        job_id = make_job(store)
        finish_unit(store, job_id)
        assert not store.quarantine_flag.exists()
        for fraction_state in range(3):
            if fraction_state == 1:
                # a torn pending unit: the read path quarantines it
                name = store.pending_units(job_id)[0]
                (store._units_dir(job_id) / f"{name}.json").write_text("{")
                store.claim_unit(job_id, "probe")
                assert store.quarantine_flag.exists()
            if fraction_state == 2:
                shutil.rmtree(store.index_dir)  # rebuilt with the flag
            assert store.quarantine_fraction() == \
                exact_quarantine_fraction(store)
            states.append(store.quarantine_fraction())
        assert states[0] == states[1] == 0.0
        assert states[2] == states[3] > 0.0
        assert store.quarantine_flag.exists()

    def test_store_without_index_keeps_its_quarantine_rate(self, tmp_path):
        store = JobStore(tmp_path, max_quarantine_fraction=0.1)
        job_id = make_job(store)
        for name in store.pending_units(job_id):
            (store._units_dir(job_id) / f"{name}.json").write_text("{")
        assert store.claim_unit(job_id, "probe") is None
        shutil.rmtree(store.index_dir)

        adopted = JobStore(tmp_path, max_quarantine_fraction=0.1)
        with pytest.raises(StoreDegraded) as excinfo:
            adopted.check_admission()
        assert excinfo.value.reason == "quarantine_rate"
        assert adopted.quarantine_fraction() == \
            exact_quarantine_fraction(adopted) == 1.0


# ----------------------------------------------------------------------
# fsck audits the index both ways and repair mends it
# ----------------------------------------------------------------------
def audit_kinds(store: JobStore) -> dict:
    report = fsck_store(store)
    return report.by_kind()


class TestFsckIndex:
    def _heal(self, store: JobStore, kind: str) -> None:
        assert kind in audit_kinds(store)
        repaired = fsck_store(store, repair=True)
        assert kind in repaired.by_kind()
        assert fsck_store(store).clean

    def test_missing_entry_restored(self, tmp_path):
        store = JobStore(tmp_path)
        job_id = make_job(store)
        os.unlink(store.active_marker(job_id))
        assert store.active_jobs() == []  # invisible to workers
        self._heal(store, "missing-index-entry")
        assert store.active_jobs() == [job_id]

    def test_marker_of_merged_job_removed(self, tmp_path):
        store = JobStore(tmp_path)
        job_id = submit_fanout(store)
        drain(store)
        store.mark_active(job_id)
        self._heal(store, "stale-index-entry")
        assert not store.active_marker(job_id).exists()

    def test_marker_of_absent_job_removed(self, tmp_path):
        store = JobStore(tmp_path)
        make_job(store)
        ghost = "0123456789abcdef"
        store.mark_active(ghost)
        self._heal(store, "stale-index-entry")
        assert not store.active_marker(ghost).exists()

    def test_stale_quarantine_flag_removed(self, tmp_path):
        store = JobStore(tmp_path)
        make_job(store)
        store.quarantine_flag.touch()
        self._heal(store, "stale-quarantine-flag")
        assert not store.quarantine_flag.exists()
        assert store.quarantine_fraction() == 0.0

    def test_missing_quarantine_flag_restored(self, tmp_path):
        store = JobStore(tmp_path)
        job_id = submit_fanout(store)
        torn = store.pending_units(job_id)[0]
        (store._units_dir(job_id) / f"{torn}.json").write_text("{ torn")
        store.claim_unit(job_id, "probe")  # quarantines the torn unit
        assert store.quarantined_files(job_id) == [f"{torn}.json@probe"]
        # as a writer that predates the index would leave it
        os.unlink(store.quarantine_flag)
        self._heal(store, "missing-quarantine-flag")
        assert store.quarantine_flag.exists()

    def test_missing_index_rebuilt(self, tmp_path):
        store = JobStore(tmp_path)
        job_id = make_job(store)
        shutil.rmtree(store.index_dir)
        self._heal(store, "missing-index")
        assert store.registry.value("store_index_rebuilds") == 1
        assert store.active_jobs() == [job_id]

    def test_healthy_index_is_clean(self, tmp_path):
        store = JobStore(tmp_path)
        done = submit_fanout(store)
        drain(store)
        make_job(store)  # planned, never worked
        assert store.read_merged(done) is not None
        assert fsck_store(store).clean
