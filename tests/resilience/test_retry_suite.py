"""A retried parallel suite is byte-identical to serial.

A worker that raises on its first unit and succeeds on retry must leave
no trace in the results — ``run_suite(parallel=N)`` under chaos
converges to the exact payload bytes of a clean serial run.
"""

import pickle

from repro.analysis.runner import SuiteRunner, experiment_config
from repro.common.config import DMRConfig
from repro.resilience.chaos import ChaosPlan

SCALE = 0.25


def _runner(**kwargs) -> SuiteRunner:
    kwargs.setdefault("scale", SCALE)
    return SuiteRunner(experiment_config(num_sms=2), **kwargs)


def test_retried_parallel_suite_byte_identical_to_serial(tmp_path):
    serial = _runner().run_suite(DMRConfig.paper_default())

    plan = ChaosPlan(tmp_path / "plan", raises=1)
    chaotic_runner = _runner()
    chaotic_runner.fanout.chaos_plan = plan.plan_dir
    chaotic = chaotic_runner.run_suite(DMRConfig.paper_default(),
                                       parallel=2)

    assert plan.fired() == 1, "the injected raise must have fired"
    assert chaotic_runner.harness.value("fanout_retries") == 1

    assert set(chaotic) == set(serial)
    for name in serial:
        assert pickle.dumps(chaotic[name].to_payload()) == \
            pickle.dumps(serial[name].to_payload()), name


def test_harness_snapshot_rides_the_runner(tmp_path):
    plan = ChaosPlan(tmp_path / "plan", raises=1)
    runner = _runner()
    runner.fanout.chaos_plan = plan.plan_dir
    runner.run_many([("scan",), ("radixsort",)], parallel=2)

    snapshot = runner.harness_snapshot()
    assert snapshot.value("fanout_retries") >= 1
    assert "retries=" in runner.cache_summary()
