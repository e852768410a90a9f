"""Self-healing layer tests: fsck, poison, heartbeats, backpressure.

Most cases run against synthetic jobs (no simulation) so the whole
corruption matrix iterates in milliseconds; a handful use a real mini
campaign to pin the properties that only hold end-to-end (replanned
units are byte-identical, repaired jobs finish with zero extra
simulations).  The fleet-scale proof lives in
``tests/resilience/test_fabric_chaos.py``.
"""

import json
import os
import time

import pytest
from hypothesis import given, settings, strategies as st

from repro.common.errors import CodecError, ReproError, StoreDegraded
from repro.service.codec import decode_canonical, encode_canonical
from repro.service.health import (FsckReport, classify_error_type,
                                  diagnose_poison, fsck_job, fsck_store,
                                  format_fsck, regenerate_lost_units,
                                  sweep_job)
from repro.service.jobs import submit_fanout_job
from repro.service.store import (JobStore, canonical_json, job_id_for,
                                 unit_id_for)


def make_job(store: JobStore, n_units: int = 4, tag: str = "health") -> str:
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


def result_for(unit: dict) -> dict:
    """A shape-valid synthetic campaign result for ``unit``."""
    return {"unit": unit["unit"], "runs": [0] * len(unit["items"])}


def _double(context, item):
    return 2 * item


def make_fanout_job(store: JobStore) -> str:
    """A replannable job that plans without simulating: a fan-out."""
    items = list(range(4))
    return submit_fanout_job(store, _double, None, items,
                             [f"k{item}" for item in items], 2)


def expire(claim) -> None:
    past = time.time() - 1000
    os.utime(claim, (past, past))


def finish_unit(store: JobStore, job_id: str, owner: str = "w") -> str:
    """Claim, publish and complete one unit; returns its id."""
    unit, claim = store.claim_unit(job_id, owner)
    store.publish_result(job_id, unit["unit"], result_for(unit))
    store.complete_unit(job_id, unit["unit"], claim)
    return unit["unit"]


# ----------------------------------------------------------------------
# Satellite: canonical-JSON codec rejects NaN/Infinity, round-trips
# ----------------------------------------------------------------------
class TestCanonicalCodec:
    @pytest.mark.parametrize("bad", [float("nan"), float("inf"),
                                     float("-inf")])
    def test_non_finite_floats_rejected(self, bad):
        with pytest.raises(CodecError):
            encode_canonical({"value": bad})
        with pytest.raises(CodecError):
            canonical_json({"nested": [1, {"x": bad}]})

    def test_codec_error_is_a_repro_error(self):
        assert issubclass(CodecError, ReproError)

    def test_decode_rejects_torn_text(self):
        with pytest.raises(CodecError):
            decode_canonical('{"torn": ')

    json_payloads = st.recursive(
        st.none() | st.booleans() | st.integers(-2**53, 2**53)
        | st.floats(allow_nan=False, allow_infinity=False, width=64)
        | st.text(max_size=20),
        lambda children: (st.lists(children, max_size=4)
                          | st.dictionaries(st.text(max_size=8), children,
                                            max_size=4)),
        max_leaves=20,
    )

    @settings(max_examples=60, deadline=None)
    @given(payload=json_payloads)
    def test_round_trip_is_byte_identical(self, payload):
        text = encode_canonical(payload)
        assert text.endswith("\n")
        assert encode_canonical(decode_canonical(text)) == text


# ----------------------------------------------------------------------
# Backpressure / degraded mode
# ----------------------------------------------------------------------
class TestAdmission:
    def test_disk_pressure_refuses_before_writing(self, tmp_path):
        store = JobStore(tmp_path / "store", min_free_bytes=2**62)
        with pytest.raises(StoreDegraded) as excinfo:
            make_job(store)
        assert excinfo.value.reason == "disk_pressure"
        assert store.list_jobs() == []  # nothing half-written
        assert store.registry.counters()["store_degraded_rejections"] == 1

    def test_quarantine_rate_refuses_new_jobs(self, tmp_path):
        store = JobStore(tmp_path / "store", max_quarantine_fraction=0.4)
        job_id = make_job(store)
        # corrupt every unit so most artifacts quarantine
        for name in store.pending_units(job_id):
            (store._units_dir(job_id) / f"{name}.json").write_text("torn{")
        assert store.claim_unit(job_id, "probe") is None
        with pytest.raises(StoreDegraded) as excinfo:
            make_job(store, tag="rejected")
        assert excinfo.value.reason == "quarantine_rate"

    def test_healthy_store_admits(self, tmp_path):
        store = JobStore(tmp_path / "store")
        store.check_admission()  # must not raise
        assert make_job(store)


# ----------------------------------------------------------------------
# Corruption tolerance on the store read paths
# ----------------------------------------------------------------------
class TestReadPathTolerance:
    def test_torn_result_quarantined_and_reported_absent(self, tmp_path):
        store = JobStore(tmp_path)
        job_id = make_job(store)
        unit_id = finish_unit(store, job_id)
        path = store._results_dir(job_id) / f"{unit_id}.json"
        path.write_text('{"unit": "tor')
        assert store.unit_result(job_id, unit_id) is None
        assert f"{unit_id}.json" in store.quarantined_files(job_id)
        assert store.registry.counters()["store_corrupt_results"] == 1

    def test_foreign_result_quarantined(self, tmp_path):
        store = JobStore(tmp_path)
        job_id = make_job(store)
        unit_id = finish_unit(store, job_id)
        path = store._results_dir(job_id) / f"{unit_id}.json"
        path.write_text(canonical_json({"unit": "u9999-not-me"}))
        assert store.unit_result(job_id, unit_id) is None
        assert store.registry.counters()["store_corrupt_results"] == 1

    def test_corrupt_unit_never_reaches_a_worker(self, tmp_path):
        store = JobStore(tmp_path, registry=None)
        job_id = make_job(store, n_units=2)
        first = store.pending_units(job_id)[0]
        (store._units_dir(job_id) / f"{first}.json").write_text("{ torn")
        claimed = store.claim_unit(job_id, "w")
        # the torn unit is skipped (quarantined), the good one served
        assert claimed is not None and claimed[0]["unit"] != first
        assert store.registry.counters()["store_corrupt_units"] == 1

    def test_bitflipped_unit_fails_digest_check(self, tmp_path):
        store = JobStore(tmp_path)
        job_id = make_job(store, n_units=1)
        unit_id = store.pending_units(job_id)[0]
        path = store._units_dir(job_id) / f"{unit_id}.json"
        payload = json.loads(path.read_text())
        payload["items"] = [999]  # parses fine, digest no longer matches
        path.write_text(canonical_json(payload))
        assert store.claim_unit(job_id, "w") is None
        assert store.registry.counters()["store_corrupt_units"] == 1

    def test_torn_merged_quarantined(self, tmp_path):
        store = JobStore(tmp_path)
        job_id = make_job(store)
        store.merged_path(job_id).write_text("not json")
        assert store.read_merged(job_id) is None
        assert store.registry.counters()["store_corrupt_merged"] == 1

    def test_torn_manifest_counted_but_preserved(self, tmp_path):
        store = JobStore(tmp_path)
        job_id = make_job(store)
        manifest = store.job_dir(job_id) / "job.json"
        manifest.write_text("{ torn manifest")
        assert store.load_job(job_id) is None
        assert manifest.exists()  # evidence for the operator, not moved
        assert store.registry.counters()["store_corrupt_manifests"] == 1


# ----------------------------------------------------------------------
# A result published after its claim was requeued
# ----------------------------------------------------------------------
class TestRequeueAdoption:
    def test_result_published_in_race_window_is_adopted(self, tmp_path):
        store = JobStore(tmp_path)
        job_id = make_job(store, n_units=1)
        unit, claim = store.claim_unit(job_id, "slow-worker")
        unit_id = unit["unit"]
        past = time.time() - 1000
        os.utime(claim, (past, past))  # lease long expired
        moved = store.requeue_expired(job_id, lease_seconds=1.0)
        assert moved == {"requeued": [unit_id], "completed": []}

        # the still-live claimant publishes after the requeue; its claim
        # is gone, but the published result completes the unit
        store.publish_result(job_id, unit_id, result_for(unit))
        store.complete_unit(job_id, unit_id, claim)
        assert store.done_units(job_id) == [unit_id]
        assert store.counts(job_id)["done"] == 1

        # adopted, not double-attempted: the stale copy is never handed
        # out again, it is dropped at claim time
        assert store.claim_unit(job_id, "other-worker") is None
        assert store.pending_units(job_id) == []
        assert store.done_units(job_id) == [unit_id]

    def test_unpublished_expired_claim_still_requeues(self, tmp_path):
        store = JobStore(tmp_path)
        job_id = make_job(store, n_units=1)
        unit, claim = store.claim_unit(job_id, "dead-worker")
        past = time.time() - 1000
        os.utime(claim, (past, past))
        moved = store.requeue_expired(job_id, lease_seconds=1.0)
        assert moved["requeued"] == [unit["unit"]]
        assert store.pending_units(job_id) == [unit["unit"]]


# ----------------------------------------------------------------------
# fsck: detection and repair
# ----------------------------------------------------------------------
def fsck_one(store, job_id, repair):
    report = FsckReport(repair=repair)
    fsck_job(store, job_id, report, repair=repair, lease_seconds=1.0)
    return report


class TestFsckDetect:
    def test_clean_store_is_clean(self, tmp_path):
        store = JobStore(tmp_path)
        job_id = make_job(store)
        finish_unit(store, job_id)
        report = fsck_store(store)
        assert report.clean
        assert report.jobs == 1
        assert report.units_verified == 3
        assert report.results_verified == 1
        assert "clean" in format_fsck(report)

    def test_audit_reports_without_touching(self, tmp_path):
        store = JobStore(tmp_path)
        job_id = make_job(store)
        unit_id = finish_unit(store, job_id)
        victim = store._results_dir(job_id) / f"{unit_id}.json"
        victim.write_text("{ torn")
        report = fsck_one(store, job_id, repair=False)
        assert not report.clean
        assert victim.exists()  # audit never moves files
        assert all(f.action == "reported" for f in report.findings)
        assert "torn-result" in report.by_kind()

    def test_foreign_and_orphan_files_detected(self, tmp_path):
        store = JobStore(tmp_path)
        job_id = make_job(store)
        (store._units_dir(job_id) / "tmpXYZ.tmp").write_text("{ half")
        (store._results_dir(job_id) / "u9999-feedbeef0000.json"
         ).write_text(canonical_json({"unit": "u9999-feedbeef0000"}))
        (store.job_dir(job_id) / "README.rogue").write_text("hello")
        kinds = fsck_one(store, job_id, repair=False).by_kind()
        assert kinds.get("foreign-file", 0) >= 2
        assert kinds.get("orphan-result") == 1

    def test_unrepairable_manifest_reported(self, tmp_path):
        store = JobStore(tmp_path)
        job_id = make_job(store)
        (store.job_dir(job_id) / "job.json").write_text("{ torn")
        report = fsck_one(store, job_id, repair=True)
        assert report.by_kind() == {"corrupt-manifest": 1}


class TestFsckRepair:
    def test_corrupt_result_of_done_unit_requeues_it(self, tmp_path):
        store = JobStore(tmp_path)
        job_id = make_job(store)
        unit_id = finish_unit(store, job_id)
        (store._results_dir(job_id) / f"{unit_id}.json").write_text("{ t")
        report = fsck_one(store, job_id, repair=True)
        # quarantining the result loses the unit (a synthetic job does
        # not replan, so the loss is reported rather than regenerated)
        assert report.by_kind() == {"torn-result": 1, "lost-unit": 1}
        assert unit_id not in store.done_units(job_id)
        assert f"{unit_id}.json" in store.quarantined_files(job_id)

    def test_foreign_files_quarantined_on_repair(self, tmp_path):
        store = JobStore(tmp_path)
        job_id = make_job(store)
        rogue = store.job_dir(job_id) / "writer.tmp"
        rogue.write_text("{ half a write")
        report = fsck_one(store, job_id, repair=True)
        assert not rogue.exists()
        assert "writer.tmp" in store.quarantined_files(job_id)
        assert any(f.action == "quarantined" for f in report.findings)

    def test_valid_published_result_is_adopted_never_discarded(
            self, tmp_path):
        store = JobStore(tmp_path)
        job_id = make_job(store)
        # publish a valid result with no claim bookkeeping at all
        unit_id = store.pending_units(job_id)[0]
        payload = {"unit": unit_id, "runs": [0]}
        store.publish_result(job_id, unit_id, payload)
        assert fsck_one(store, job_id, repair=False).clean
        assert fsck_one(store, job_id, repair=True).clean
        assert unit_id in store.done_units(job_id)
        # the result file itself was never moved
        assert store.unit_result(job_id, unit_id) == payload
        # and its pending copy is never handed out
        claimed = []
        while (got := store.claim_unit(job_id, "w")) is not None:
            claimed.append(got[0]["unit"])
        assert len(claimed) == 3 and unit_id not in claimed
        assert unit_id not in store.pending_units(job_id)

    def test_expired_claim_with_result_completed(self, tmp_path):
        store = JobStore(tmp_path)
        job_id = make_job(store)
        unit, claim = store.claim_unit(job_id, "dead")
        store.publish_result(job_id, unit["unit"], result_for(unit))
        past = time.time() - 1000
        os.utime(claim, (past, past))
        report = fsck_one(store, job_id, repair=True)
        assert any(f.kind == "expired-claim" and f.action == "completed"
                   for f in report.findings)
        assert unit["unit"] in store.done_units(job_id)

    def test_repair_then_audit_is_clean_for_repairable_damage(
            self, tmp_path):
        store = JobStore(tmp_path)
        job_id = make_job(store)
        unit_id = finish_unit(store, job_id)
        (store._units_dir(job_id) / "junk.tmp").write_text("x")
        (store.job_dir(job_id) / "NOTES").write_text("op")
        store.merged_path(job_id).write_text("torn merged")
        fsck_one(store, job_id, repair=True)
        # synthetic jobs cannot replan, so only structural damage heals;
        # none was unit-destroying here -> second audit must be clean
        report = fsck_one(store, job_id, repair=False)
        assert report.clean, [f.__dict__ for f in report.findings]
        assert store.unit_result(job_id, unit_id) is not None


class TestFsckRegeneration:
    """Real-campaign cases: replanned units are byte-identical."""

    @pytest.fixture(scope="class")
    def campaign_store(self, tmp_path_factory):
        from repro.analysis.runner import experiment_config
        from repro.common.config import DMRConfig
        from repro.faults.campaign import CampaignSpec
        from repro.service.jobs import submit_campaign_job

        store = JobStore(tmp_path_factory.mktemp("regen") / "store")
        spec = CampaignSpec(
            workload="scan", config=experiment_config(num_sms=1),
            dmr=DMRConfig.paper_default(), scale=0.3, seed=0,
        )
        job_id, created = submit_campaign_job(store, spec, samples=6,
                                              unit_size=3)
        assert created
        return store, job_id

    def test_deleted_unit_regenerated_byte_identical(self, campaign_store):
        store, job_id = campaign_store
        unit_id = store.pending_units(job_id)[0]
        path = store._units_dir(job_id) / f"{unit_id}.json"
        original = path.read_bytes()
        path.unlink()
        report = fsck_one(store, job_id, repair=True)
        assert any(f.kind == "lost-unit" and f.action == "regenerated"
                   for f in report.findings)
        assert path.read_bytes() == original

    def test_janitor_regenerates_lost_units(self, campaign_store):
        store, job_id = campaign_store
        unit_id = store.pending_units(job_id)[-1]
        path = store._units_dir(job_id) / f"{unit_id}.json"
        original = path.read_bytes()
        path.unlink()
        assert regenerate_lost_units(store, job_id) == [unit_id]
        assert path.read_bytes() == original

    def test_janitor_adopts_published_over_regenerating(self,
                                                        campaign_store):
        store, job_id = campaign_store
        unit_id = store.pending_units(job_id)[0]
        (store._units_dir(job_id) / f"{unit_id}.json").unlink()
        store.publish_result(job_id, unit_id, {"unit": unit_id,
                                               "runs": []})
        assert regenerate_lost_units(store, job_id) == []
        assert unit_id in store.done_units(job_id)
        # quarantining the fabricated result loses the unit again
        store.quarantine_result(job_id, unit_id)
        assert regenerate_lost_units(store, job_id) == [unit_id]


# ----------------------------------------------------------------------
# The janitor sweep
# ----------------------------------------------------------------------
class TestSweepJob:
    def test_merged_job_is_left_alone(self, tmp_path):
        store = JobStore(tmp_path)
        job_id = make_job(store, n_units=1)
        unit, claim = store.claim_unit(job_id, "dead")
        expire(claim)
        store.write_merged(job_id, {"kind": "campaign"})
        assert sweep_job(store, job_id, lease_seconds=1.0) is None
        assert store.claimed_units(job_id) == [(unit["unit"], "dead")]

    def test_expired_claim_is_requeued(self, tmp_path):
        store = JobStore(tmp_path)
        job_id = make_job(store, n_units=1)
        unit, claim = store.claim_unit(job_id, "dead")
        expire(claim)
        swept = sweep_job(store, job_id, lease_seconds=1.0)
        assert swept["requeued"] == [unit["unit"]]
        assert swept["completed"] == [] and not swept["finalized"]
        assert store.pending_units(job_id) == [unit["unit"]]

    def test_expired_claim_with_result_is_completed(self, tmp_path):
        store = JobStore(tmp_path)
        job_id = make_job(store, n_units=2)
        unit, claim = store.claim_unit(job_id, "dead")
        store.publish_result(job_id, unit["unit"], result_for(unit))
        expire(claim)
        swept = sweep_job(store, job_id, lease_seconds=1.0)
        assert swept["completed"] == [unit["unit"]]
        assert store.claimed_units(job_id) == []
        assert store.done_units(job_id) == [unit["unit"]]

    def test_lost_unit_is_restored(self, tmp_path):
        store = JobStore(tmp_path)
        job_id = make_fanout_job(store)
        unit_id = store.pending_units(job_id)[-1]
        path = store._units_dir(job_id) / f"{unit_id}.json"
        original = path.read_bytes()
        path.unlink()
        swept = sweep_job(store, job_id)
        assert swept["regenerated"] == [unit_id]
        assert path.read_bytes() == original

    def test_finished_job_is_finalized(self, tmp_path):
        store = JobStore(tmp_path)
        job_id = make_fanout_job(store)
        while (claimed := store.claim_unit(job_id, "w")) is not None:
            unit, claim = claimed
            store.publish_result(job_id, unit["unit"], {
                "unit": unit["unit"],
                "keys": [f"k{item}" for item in unit["items"]]})
            store.complete_unit(job_id, unit["unit"], claim)
        assert sweep_job(store, job_id)["finalized"]
        assert store.read_merged(job_id) == {
            "kind": "fanout", "keys": ["k0", "k1", "k2", "k3"]}
        assert sweep_job(store, job_id) is None


# ----------------------------------------------------------------------
# Poison diagnosis
# ----------------------------------------------------------------------
def park_unit(store, job_id, errors):
    """Fail one unit through MAX_UNIT_ATTEMPTS with the given errors."""
    for message, error_type, trace in errors:
        unit, claim = store.claim_unit(job_id, "crashy")
        parked = store.fail_unit(job_id, unit["unit"], claim, message,
                                 error_type=error_type,
                                 traceback_text=trace, owner="crashy")
    assert parked
    return unit["unit"]


class TestPoisonDiagnosis:
    def test_classify_error_type_taxonomy(self):
        assert classify_error_type("TransientWorkerFailure") == "transient"
        assert classify_error_type("TaskTimeout") == "transient"
        assert classify_error_type("SimulationError") == "permanent"
        assert classify_error_type("DMRViolation") == "permanent"
        assert classify_error_type("AssertionError") == "permanent"
        assert classify_error_type("OSError") == "transient"
        assert classify_error_type("") == "transient"

    def test_same_traceback_every_attempt_is_deterministic(self, tmp_path):
        store = JobStore(tmp_path)
        job_id = make_job(store, n_units=1)
        unit_id = park_unit(store, job_id, [
            ("'spec'", "KeyError", "tb-one")] * 3)
        verdict = diagnose_poison(store, job_id, unit_id)
        assert verdict["classification"] == "deterministic"
        assert verdict["attempts"] == 3
        assert verdict["distinct_failures"] == ["KeyError: 'spec'"]

    def test_distinct_tracebacks_are_flaky(self, tmp_path):
        store = JobStore(tmp_path)
        job_id = make_job(store, n_units=1)
        unit_id = park_unit(store, job_id, [
            ("ConnectionError: a", "ConnectionError", "tb-a"),
            ("OSError: b", "OSError", "tb-b"),
            ("ConnectionError: c", "ConnectionError", "tb-c"),
        ])
        verdict = diagnose_poison(store, job_id, unit_id)
        assert verdict["classification"] == "flaky"
        assert len(verdict["distinct_failures"]) == 3

    def test_repro_error_types_classify_permanent_sim(self, tmp_path):
        store = JobStore(tmp_path)
        job_id = make_job(store, n_units=1)
        unit_id = park_unit(store, job_id, [
            ("SimulationError: lane out of range", "SimulationError",
             "tb")] * 3)
        verdict = diagnose_poison(store, job_id, unit_id)
        assert verdict["classification"] == "permanent-sim"

    def test_job_status_surfaces_poison_and_quarantine(self, tmp_path):
        from repro.service.server import format_status, job_status

        store = JobStore(tmp_path)
        job_id = make_job(store, n_units=2)
        unit_id = park_unit(store, job_id,
                            [("boom", "AssertionError", "tb")] * 3)
        (store._results_dir(job_id) / "junk.json").write_text("{ t")
        store.unit_result(job_id, "junk")  # quarantines it
        status = job_status(store, job_id)
        assert status["quarantined"] == 1
        # computed from the attempt records; no verdict file is written
        assert status["poisoned"] == [{"unit": unit_id,
                                       "classification": "permanent-sim",
                                       "attempts": 3}]
        assert job_status(store, job_id) == status
        assert not (store.job_dir(job_id) / "poison.json").exists()
        line = format_status(status)
        assert "poisoned=1(permanent-sim)" in line
        assert "quarantined=1" in line


# ----------------------------------------------------------------------
# Worker heartbeats and fleet health
# ----------------------------------------------------------------------
class TestWorkerHealthRecords:
    def test_beat_and_alive_stale_annotation(self, tmp_path):
        store = JobStore(tmp_path)
        store.beat("w-1", {"units_done": 3})
        records = store.worker_records(stale_after=30.0)
        assert [r["owner"] for r in records] == ["w-1"]
        assert records[0]["state"] == "alive"
        assert records[0]["units_done"] == 3
        later = time.time() + 100
        stale = store.worker_records(stale_after=30.0, now=later)
        assert stale[0]["state"] == "stale"

    def test_torn_heartbeat_quarantined(self, tmp_path):
        store = JobStore(tmp_path)
        store.workers_dir.mkdir(parents=True, exist_ok=True)
        (store.workers_dir / "broken.json").write_text("{ torn beat")
        assert store.worker_records() == []
        assert store.registry.counters()["store_corrupt_heartbeats"] == 1
        assert (store.workers_dir / "quarantine" / "broken.json").exists()

    def test_remove_worker_record(self, tmp_path):
        store = JobStore(tmp_path)
        store.beat("w-gone", {})
        store.remove_worker_record("w-gone")
        assert store.worker_records() == []

    def test_fsck_repair_drops_long_dead_workers(self, tmp_path):
        store = JobStore(tmp_path)
        store.beat("w-dead", {})
        later = time.time() + 10_000
        report = fsck_store(store, repair=True, lease_seconds=1.0,
                            stale_after=1.0, now=later)
        assert any(f.kind == "dead-worker" for f in report.findings)
        assert store.worker_records() == []

    def test_store_status_lists_workers(self, tmp_path):
        from repro.service.server import format_workers, store_status

        store = JobStore(tmp_path)
        store.beat("w-2", {"units_done": 1, "simulations": 5})
        summary = store_status(store)
        assert summary["workers"][0]["owner"] == "w-2"
        assert "store_quarantined" in summary["counters"]
        lines = format_workers(summary["workers"])
        assert "w-2" in lines[0] and "alive" in lines[0]


# ----------------------------------------------------------------------
# CLI surface
# ----------------------------------------------------------------------
class TestServeFsckCli:
    def test_fsck_clean_store_exits_zero(self, tmp_path, capsys):
        from repro.__main__ import main

        store = JobStore(tmp_path / "store")
        make_job(store)
        assert main(["serve", "fsck", "--store",
                     str(tmp_path / "store")]) == 0
        assert "store: clean" in capsys.readouterr().out

    def test_fsck_audit_flags_damage_then_repair_heals(self, tmp_path,
                                                       capsys):
        from repro.__main__ import main

        root = str(tmp_path / "store")
        store = JobStore(root)
        job_id = make_job(store)
        (store.job_dir(job_id) / "junk.tmp").write_text("{ half")

        assert main(["serve", "fsck", "--store", root]) == 1
        out = capsys.readouterr().out
        assert "foreign-file" in out and "audit only" in out

        assert main(["serve", "fsck", "--store", root, "--repair"]) == 0
        capsys.readouterr()
        assert main(["serve", "fsck", "--store", root]) == 0

    def test_fsck_json_report(self, tmp_path, capsys):
        from repro.__main__ import main

        root = str(tmp_path / "store")
        store = JobStore(root)
        job_id = make_job(store)
        assert main(["serve", "fsck", job_id, "--store", root,
                     "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["clean"] is True
        assert payload["jobs"] == 1
