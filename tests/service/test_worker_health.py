"""Worker-loop health: heartbeats, the idle-pass janitor, and
MAX_UNIT_ATTEMPTS poison parking.

These cover the worker side of the self-healing fabric end-to-end: a
lone worker on a damaged store (abandoned claims, deleted unit files,
crash-looping units) must converge to the same terminal state a clean
fleet would, leaving a poison verdict instead of spinning on units
that can never succeed.
"""

import pytest

from repro.analysis.runner import experiment_config
from repro.common.config import DMRConfig
from repro.faults.campaign import CampaignSpec
from repro.service.jobs import serial_merged_payload, submit_campaign_job
from repro.service.server import job_status
from repro.service.store import (MAX_UNIT_ATTEMPTS, JobStore,
                                 canonical_json, job_id_for, unit_id_for)
from repro.service.worker import ServiceWorker

SAMPLES = 6
UNIT_SIZE = 2


def make_synthetic_job(store: JobStore, n_units: int = 1,
                       tag: str = "worker-health") -> str:
    """A planned job with no spec: every execution attempt must fail."""
    material = {"kind": "campaign", "test": tag, "n": n_units}
    units = [
        {"unit": unit_id_for(job_id_for(material), i, [i]),
         "index": i, "kind": "campaign", "items": [i]}
        for i in range(n_units)
    ]
    job_id, created = store.create_job(
        {"kind": "campaign", "material": material}, units)
    assert created
    return job_id


def submit_mini_campaign(store: JobStore, samples: int = SAMPLES) -> str:
    spec = CampaignSpec(
        workload="scan", config=experiment_config(num_sms=1),
        dmr=DMRConfig.paper_default(), scale=0.3, seed=0,
    )
    job_id, created = submit_campaign_job(store, spec, samples=samples,
                                          unit_size=UNIT_SIZE)
    assert created
    return job_id


class TestIdlePassJanitor:
    def test_lone_worker_heals_abandoned_claim_and_lost_unit(
            self, tmp_path):
        store = JobStore(tmp_path / "store", cache_dir=tmp_path / "cache")
        job_id = submit_mini_campaign(store)

        # a worker dies holding a claim...
        dead = store.claim_unit(job_id, "w-dead")
        assert dead is not None
        # ...and corruption eats one still-pending unit file entirely
        lost = store.pending_units(job_id)[0]
        (store._units_dir(job_id) / f"{lost}.json").unlink()

        worker = ServiceWorker(store, owner="medic", lease_seconds=0.0)
        summary = worker.run(max_idle=2.0, poll=0.05)

        status = job_status(store, job_id)
        assert status["state"] == "done"
        assert status["counts"]["done"] == status["counts"]["total"]
        # every sample simulated exactly once, by this worker
        assert summary["simulations"] == SAMPLES
        assert status["simulations"] == SAMPLES
        assert summary["units_failed"] == 0

    def test_clean_exit_withdraws_heartbeat(self, tmp_path):
        store = JobStore(tmp_path / "store", cache_dir=tmp_path / "cache")
        submit_mini_campaign(store)
        worker = ServiceWorker(store, owner="transient", lease_seconds=0.0)

        worker.run_once()  # first pass always beats
        assert [r["owner"] for r in store.worker_records()] == ["transient"]

        worker.run(max_idle=0.5, poll=0.05)
        assert store.worker_records() == []

    def test_corrupt_result_of_done_unit_heals_without_fsck(self, tmp_path):
        store = JobStore(tmp_path / "store", cache_dir=tmp_path / "cache")
        job_id = submit_mini_campaign(store, samples=8)
        worker = ServiceWorker(store, owner="w")
        for _ in range(4):
            assert worker.run_once() is not None
        assert store.counts(job_id)["done"] == store.counts(job_id)["total"]
        simulations = worker.simulations

        # the result of a done unit goes bad before the merge
        victim = store._results_dir(job_id) / \
            f"{store.done_units(job_id)[1]}.json"
        data = bytearray(victim.read_bytes())
        data[0] ^= 0x10
        victim.write_bytes(bytes(data))

        # plain worker passes, no fsck: the merge quarantines the result,
        # the next sweep restores the unit, a cache replay republishes it
        for _ in range(5):
            worker.run_once()
        merged = store.read_merged(job_id)
        assert merged is not None
        assert canonical_json(merged) == canonical_json(
            serial_merged_payload(store.load_job(job_id)))
        assert worker.simulations == simulations
        assert victim.name in store.quarantined_files(job_id)

    def test_rerun_of_own_unit_keeps_both_telemetry_records(self,
                                                           tmp_path):
        """A worker re-runs a unit it already ran (its result was
        quarantined, the unit restored): both executions keep a record,
        and the job's simulation count is their sum."""
        store = JobStore(tmp_path / "store", cache_dir=tmp_path / "cache")
        job_id = submit_mini_campaign(store, samples=8)
        worker = ServiceWorker(store, owner="w")
        for _ in range(4):
            assert worker.run_once() is not None
        unit_id = store.done_units(job_id)[1]
        first = store.telemetry(job_id)
        assert store.quarantine_result(job_id, unit_id)
        for _ in range(5):  # sweep restores the unit, the worker re-runs it
            worker.run_once()
        assert store.read_merged(job_id) is not None
        records = store.telemetry(job_id)
        reruns = [r for r in records if r not in first]
        assert [r["unit"] for r in reruns] == [unit_id]
        assert len(records) == len(first) + 1
        status = job_status(store, job_id)
        assert status["simulations"] == sum(r["simulations"] for r in records)
        assert status["simulations"] == worker.simulations == 8

    def test_idle_pass_loads_no_merged_job(self, tmp_path, monkeypatch):
        store = JobStore(tmp_path / "store")
        for tag in range(5):
            job_id = make_synthetic_job(store, tag=f"merged-{tag}")
            store.write_merged(job_id, {"kind": "campaign"})
        loaded = []
        load_job = JobStore.load_job

        def counted(self, job_id):
            loaded.append(job_id)
            return load_job(self, job_id)

        monkeypatch.setattr(JobStore, "load_job", counted)
        assert ServiceWorker(store, owner="idle").run_once() is None
        assert loaded == []

    def test_worker_skips_torn_manifest_without_burning_attempts(
            self, tmp_path):
        store = JobStore(tmp_path / "store")
        job_id = make_synthetic_job(store)
        (store.job_dir(job_id) / "job.json").write_text("{ torn")

        worker = ServiceWorker(store, owner="w", lease_seconds=0.0)
        assert worker.run_once() is None
        # the unit is still pristine: no claim, no attempt record
        unit_id = store.pending_units(job_id)[0]
        assert store.counts(job_id)["claimed"] == 0
        assert store.unit_attempts(job_id, unit_id) == []


class TestPoisonParking:
    @pytest.fixture()
    def parked(self, tmp_path):
        """Run a worker against a job whose unit always crashes."""
        store = JobStore(tmp_path / "store")
        job_id = make_synthetic_job(store)
        worker = ServiceWorker(store, owner="crashy", lease_seconds=0.0)
        worker.run(max_idle=0.5, poll=0.02)
        return store, job_id, worker

    def test_unit_parks_after_max_attempts(self, parked):
        store, job_id, worker = parked
        failed = store.failed_units(job_id)
        assert len(failed) == 1
        assert worker.units_failed == MAX_UNIT_ATTEMPTS
        attempts = store.unit_attempts(job_id, failed[0])
        assert len(attempts) == MAX_UNIT_ATTEMPTS
        assert all(a["error_type"] == "KeyError" for a in attempts)
        assert all(a["owner"] == "crashy" for a in attempts)
        assert all("Traceback" in a["traceback"] for a in attempts)

    def test_janitor_writes_deterministic_poison_verdict(self, parked):
        store, job_id, _ = parked
        (verdict,) = job_status(store, job_id)["poisoned"]
        assert verdict["unit"] == store.failed_units(job_id)[0]
        assert verdict["classification"] == "deterministic"
        assert verdict["attempts"] == MAX_UNIT_ATTEMPTS
        # computed from the attempt records, so every reader agrees
        assert job_status(store, job_id)["poisoned"] == [verdict]

    def test_job_status_reports_failed_with_poison(self, parked):
        store, job_id, _ = parked
        status = job_status(store, job_id)
        assert status["state"] == "failed"
        assert status["counts"]["failed"] == 1
        assert status["poisoned"][0]["classification"] == "deterministic"

    def test_parked_unit_is_not_reclaimed(self, parked):
        store, job_id, _ = parked
        assert store.claim_unit(job_id, "fresh-worker") is None
        assert store.pending_units(job_id) == []
