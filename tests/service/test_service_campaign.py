"""Acceptance tests for the distributed campaign fabric.

The ISSUE's acceptance criteria, as executable assertions:

* a campaign run through ``repro.service`` across >= 2 worker
  processes produces classifications, merged snapshots and merged JSON
  byte-identical to a serial in-process run;
* SIGKILLing a worker mid-campaign loses nothing and recomputes no
  completed unit (fleet-wide simulation count stays exactly the sample
  count);
* a warm resubmission (epoch bump over the same shared classification
  cache) completes with **zero** simulations and byte-identical merged
  output;
* a sharded figure job merges to exactly what its driver produces
  directly.
"""

import multiprocessing

import pytest

from repro.analysis.runner import experiment_config
from repro.common.config import DMRConfig
from repro.faults.campaign import CampaignSpec
from repro.service.jobs import (serial_merged_payload, submit_campaign_job,
                                submit_figure_job)
from repro.service.server import job_status, watch_job
from repro.service.store import JobStore, canonical_json
from repro.service.worker import ServiceWorker, worker_entry

#: one small, fast campaign shared by the whole module (sms=1 keeps a
#: faulty scan run ~50 ms; 24 samples ~= 1.5 s of simulation total)
SAMPLES = 24
UNIT_SIZE = 6  # -> 4 units, so two workers really interleave


def campaign_spec() -> CampaignSpec:
    return CampaignSpec(
        workload="scan", config=experiment_config(num_sms=1),
        dmr=DMRConfig.paper_default(), scale=0.4, seed=0,
    )


def drain(store: JobStore, owner: str) -> ServiceWorker:
    """Run an in-process worker until the store is fully idle.

    An idle pass runs the janitor, which may itself requeue expired
    claims (lease 0 here), so keep going until nothing is pending or
    in flight anywhere.
    """
    worker = ServiceWorker(store, owner=owner, lease_seconds=0.0)
    while True:
        if worker.run_once() is None:
            counts = [store.counts(job) for job in store.list_jobs()]
            if all(c["pending"] == 0 and c["claimed"] == 0
                   for c in counts):
                return worker


@pytest.fixture(scope="module")
def fabric(tmp_path_factory):
    """Cold distributed run across 2 real OS worker processes."""
    root = tmp_path_factory.mktemp("fabric")
    store = JobStore(root / "store")
    job_id, created = submit_campaign_job(store, campaign_spec(),
                                          samples=SAMPLES,
                                          unit_size=UNIT_SIZE)
    assert created
    workers = [
        multiprocessing.Process(
            target=worker_entry, args=(str(store.root),),
            kwargs={"owner": f"proc-{i}", "max_idle": 2.0, "poll": 0.05},
        )
        for i in range(2)
    ]
    for proc in workers:
        proc.start()
    for proc in workers:
        proc.join(timeout=120)
        assert proc.exitcode == 0
    status = watch_job(store, job_id, timeout=10.0, interval=0.05)
    assert status["state"] == "done"
    job = store.load_job(job_id)
    return {
        "store": store,
        "job_id": job_id,
        "job": job,
        "merged_bytes": canonical_json(store.read_merged(job_id)),
        "serial_bytes": canonical_json(serial_merged_payload(job)),
    }


class TestDistributedEqualsSerial:
    def test_merged_json_byte_identical_to_serial_run(self, fabric):
        assert fabric["merged_bytes"] == fabric["serial_bytes"]

    def test_runs_and_snapshot_match_serial(self, fabric):
        merged = fabric["store"].read_merged(fabric["job_id"])
        serial = serial_merged_payload(fabric["job"])
        assert merged["runs"] == serial["runs"]  # classification order too
        assert merged["snapshot"] == serial["snapshot"]
        assert merged["outcomes"] == serial["outcomes"]
        assert merged["coverage"] == serial["coverage"]

    def test_every_unit_done_exactly_once(self, fabric):
        counts = fabric["store"].counts(fabric["job_id"])
        assert counts["done"] == counts["total"] == 4
        assert counts["pending"] == counts["claimed"] == 0
        assert counts["failed"] == 0

    def test_fleetwide_simulations_equal_samples(self, fabric):
        # the shared cache makes classification exactly-once even
        # across racing processes: total simulations == fault samples
        status = job_status(fabric["store"], fabric["job_id"])
        assert status["simulations"] == SAMPLES
        assert status["state"] == "done"

    def test_finished_job_keeps_only_data_files(self, fabric):
        # a published result is the only record that a unit is done, and
        # a poison verdict is computed when asked for: neither is a file
        names = {path.name for path in
                 fabric["store"].job_dir(fabric["job_id"]).iterdir()}
        assert "merged.json" in names
        assert "done" not in names and "poison.json" not in names

    def test_merged_output_excludes_execution_noise(self, fabric):
        merged = fabric["store"].read_merged(fabric["job_id"])
        assert "simulations" not in merged
        assert "seconds" not in merged


class TestWarmResubmit:
    def test_epoch_bump_completes_with_zero_simulations(self, fabric):
        store = fabric["store"]
        job_id, created = submit_campaign_job(store, campaign_spec(),
                                              samples=SAMPLES,
                                              unit_size=UNIT_SIZE, epoch=1)
        assert created and job_id != fabric["job_id"]
        drain(store, "warm-worker")
        status = job_status(store, job_id)
        assert status["state"] == "done"
        assert status["simulations"] == 0  # everything from the cache
        assert (canonical_json(store.read_merged(job_id))
                == fabric["merged_bytes"])

    def test_identical_resubmit_dedups_onto_existing_job(self, fabric):
        job_id, created = submit_campaign_job(fabric["store"],
                                              campaign_spec(),
                                              samples=SAMPLES,
                                              unit_size=UNIT_SIZE)
        assert job_id == fabric["job_id"] and not created


class TestWorkerCrash:
    def test_sigkill_mid_campaign_loses_nothing(self, tmp_path):
        from repro.resilience.chaos import ChaosPlan

        store = JobStore(tmp_path / "store")
        samples = 12
        job_id, _ = submit_campaign_job(store, campaign_spec(),
                                        samples=samples, unit_size=4)

        # one unit completes normally first, so the crash leaves a mix
        # of done units and an orphaned in-flight claim behind
        opener = ServiceWorker(store, owner="opener")
        first = opener.run_once()
        assert first is not None and "error" not in first

        # the victim process SIGKILLs itself right after claiming the
        # next unit — the claim is left orphaned mid-unit
        plan_dir = tmp_path / "plan"
        ChaosPlan(plan_dir, kills=1)
        proc = multiprocessing.Process(
            target=worker_entry, args=(str(store.root),),
            kwargs={"owner": "victim", "chaos_plan": str(plan_dir),
                    "max_idle": 2.0, "poll": 0.05},
        )
        proc.start()
        proc.join(timeout=120)
        assert proc.exitcode == -9  # SIGKILL fired between claim and run

        counts = store.counts(job_id)
        assert counts["claimed"] == 1  # the orphaned mid-unit claim

        # worker 2 (lease 0 = the victim's lease has expired) steals
        # the orphan and finishes the job
        drain(store, "rescuer")
        status = job_status(store, job_id)
        assert status["state"] == "done"
        counts = store.counts(job_id)
        assert counts["done"] == counts["total"]
        assert counts["pending"] == counts["claimed"] == 0

        # nothing was lost and nothing already completed was recomputed:
        # fleet-wide simulations stayed exactly one per sampled fault
        assert status["simulations"] == samples

        # and the recovered campaign still matches the serial oracle
        merged = canonical_json(store.read_merged(job_id))
        serial = canonical_json(serial_merged_payload(store.load_job(job_id)))
        assert merged == serial


class TestFigureJobs:
    def test_sharded_figure_merge_matches_direct_driver(self, tmp_path):
        from repro.analysis.inst_mix import run_figure5
        from repro.analysis.runner import SuiteRunner

        store = JobStore(tmp_path / "store")
        job_id, _ = submit_figure_job(store, "fig5", scale=0.25, sms=1,
                                      unit_size=4)
        drain(store, "fig-worker")
        status = job_status(store, job_id)
        assert status["state"] == "done"
        merged = store.read_merged(job_id)

        runner = SuiteRunner(experiment_config(num_sms=1), scale=0.25,
                             seed=0)
        direct = run_figure5(runner)
        assert canonical_json(merged["data"]) == canonical_json(direct)
        assert merged["figure"] == "fig5"
        assert "Figure 5" in merged["table"]

    def test_unknown_figure_rejected(self, tmp_path):
        from repro.common.errors import ConfigError

        store = JobStore(tmp_path / "store")
        with pytest.raises(ConfigError):
            submit_figure_job(store, "fig10")  # bypasses the cache
