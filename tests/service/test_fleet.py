"""The fault-tolerant fan-out: a private fan-out job worked by
``run_fleet``'s forked service workers.

Simulate functions live at module level so the task table pickles
them by reference; one-shot failures are driven through the chaos
plan's atomic claim protocol, which holds across retries and
processes.
"""

import time

import pytest

from repro.analysis.result_cache import CachedFanout, ResultCache
from repro.common.errors import (MAX_ATTEMPTS, PermanentSimFailure,
                                 PoisonedTask)
from repro.obs.metrics import MetricsRegistry
from repro.resilience import HARNESS_COUNTERS, declare_harness_metrics
from repro.resilience.chaos import ChaosPlan
from repro.service.health import fsck_store
from repro.service.jobs import (merge_job, replan_unit_payloads,
                                submit_fanout_job)
from repro.service.store import JobStore
from repro.service.worker import run_fleet

ITEMS = list(range(1, 13))


def _square(context, item):
    return {"value": context * item * item}


def _flaky(context, item):
    raise OSError("injected infrastructure failure")


def _assert_positive(context, item):
    assert item > 0, "injected deterministic failure"
    return {"value": item}


def _keys(items):
    return [f"k{item:04d}" for item in items]


def _fleet(tmp_path, simulate, items=ITEMS, workers=2, **kwargs):
    """Run one fan-out job; returns (store, job id, the keys its unit
    results listed in the order they were handed over, registry)."""
    store = JobStore(tmp_path / "store")
    job_id = submit_fanout_job(store, simulate, 3, items, _keys(items),
                               workers)
    registry = declare_harness_metrics(MetricsRegistry())
    handed = []
    run_fleet(store, job_id, workers,
              lambda result: handed.extend(result["keys"]),
              registry=registry, **kwargs)
    return store, job_id, handed, registry


def _attempt_types(store, job_id):
    return [record["error_type"]
            for entry in store.load_job(job_id)["units"]
            for record in store.unit_attempts(job_id, entry["unit"])]


class TestFleet:
    def test_order_preserved_and_payloads_cached(self, tmp_path):
        store, job_id, handed, registry = _fleet(tmp_path, _square)
        assert handed == _keys(ITEMS)
        assert merge_job(store, job_id) == {"kind": "fanout",
                                            "keys": _keys(ITEMS)}
        cache = ResultCache(store.cache_dir)
        assert [cache.get_payload(key)["value"] for key in _keys(ITEMS)] \
            == [3 * item * item for item in ITEMS]
        assert registry.value("fanout_retries") == 0
        # units are pool_chunks slices, several items each
        units = store.load_job(job_id)["units"]
        assert len(units) == 8 and max(u["count"] for u in units) == 2

    def test_finished_private_store_is_clean_and_replannable(self, tmp_path):
        store, job_id, _, _ = _fleet(tmp_path, _square)
        assert fsck_store(store).clean
        job = store.load_job(job_id)
        assert [unit["unit"] for unit in replan_unit_payloads(job)] == \
            [entry["unit"] for entry in job["units"]]

    def test_killed_worker_is_recovered(self, tmp_path):
        plan = ChaosPlan(tmp_path / "plan", kills=1)
        store, job_id, handed, registry = _fleet(
            tmp_path, _square, chaos_plan=plan.plan_dir)
        assert plan.fired() == 1
        assert handed == _keys(ITEMS)
        assert registry.value("fanout_worker_deaths") == 1
        assert registry.value("fanout_retries") == 1
        assert _attempt_types(store, job_id) == ["TransientWorkerFailure"]

    def test_always_transient_failure_poisons(self, tmp_path):
        with pytest.raises(PoisonedTask) as excinfo:
            _fleet(tmp_path, _flaky, items=[1, 2], workers=2)
        assert excinfo.value.attempts == MAX_ATTEMPTS
        assert "OSError" in str(excinfo.value)

    def test_deterministic_failure_is_permanent(self, tmp_path):
        registry = declare_harness_metrics(MetricsRegistry())
        store = JobStore(tmp_path / "store")
        items = [1, 2, -3, 4]
        job_id = submit_fanout_job(store, _assert_positive, None, items,
                                   _keys(items), 2)
        with pytest.raises(PermanentSimFailure, match="AssertionError"):
            run_fleet(store, job_id, 2, lambda result: None,
                      registry=registry)
        assert _attempt_types(store, job_id) == \
            ["AssertionError"] * MAX_ATTEMPTS
        assert registry.value("fanout_retries") == MAX_ATTEMPTS - 1

    def test_overdue_unit_is_killed_and_retried(self, tmp_path):
        plan = ChaosPlan(tmp_path / "plan", sleeps=1)
        start = time.monotonic()
        store, job_id, handed, registry = _fleet(
            tmp_path, _square, chaos_plan=plan.plan_dir, deadline=1.0)
        assert time.monotonic() - start < 15.0  # not the 30 s sleep
        assert plan.fired() == 1
        assert handed == _keys(ITEMS)
        assert registry.value("fanout_timeouts") == 1
        assert _attempt_types(store, job_id) == ["TaskTimeout"]

    def test_done_unit_with_torn_result_is_rerun(self, tmp_path):
        store = JobStore(tmp_path / "store")
        job_id = submit_fanout_job(store, _square, 3, ITEMS, _keys(ITEMS), 2)
        unit, claim = store.claim_unit(job_id, "gone")
        assert unit["index"] == 0
        torn = store._results_dir(job_id) / f"{unit['unit']}.json"
        torn.write_text('{"unit": "tor')
        store.complete_unit(job_id, unit["unit"], claim)
        handed = []
        run_fleet(store, job_id, 2,
                  lambda result: handed.extend(result["keys"]))
        assert handed == _keys(ITEMS)
        assert torn.name in store.quarantined_files(job_id)

    def test_finished_job_keeps_only_data_files(self, tmp_path):
        store, job_id, _, _ = _fleet(tmp_path, _square)
        names = {path.name for path in store.job_dir(job_id).iterdir()}
        assert "done" not in names and "poison.json" not in names

    def test_declared_counters_all_present(self):
        registry = declare_harness_metrics(MetricsRegistry())
        for name in HARNESS_COUNTERS:
            assert registry.value(name) == 0
            assert name in registry.counters()


class TestCachedFanoutInParallel:
    def test_parallel_equals_serial_with_duplicates(self, tmp_path):
        items = ITEMS + ITEMS[:3]
        serial = CachedFanout(_square, dict)
        parallel = CachedFanout(_square, dict, tmp_path / "cache")
        expected = serial.run(_keys(items), items, lambda: 3)
        assert parallel.run(_keys(items), items, lambda: 3, 2) == expected
        assert parallel.simulations == len(ITEMS)
        assert parallel.cache.stores == len(ITEMS)

    def test_calibrated_deadline_sees_the_largest_unit(self, tmp_path):
        seen = []
        fanout = CachedFanout(_square, dict)
        fanout.deadline = lambda count: seen.append(count)
        fanout.run(_keys(ITEMS[:9]), ITEMS[:9], lambda: 1, 2)
        assert seen == [2]  # 9 items over 8 units
