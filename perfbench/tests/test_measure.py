"""The benchmark's statistics and output digests."""

import random

import pytest

from perfbench import measure
from perfbench.ops import Op
from perfbench.run import check_op


def test_p90_needs_ten_samples_beyond_it():
    samples = [float(i) for i in range(100)]
    random.Random(0).shuffle(samples)
    assert measure.samples_beyond(100, 90) == 10
    assert measure.percentile(samples, 90) == 89.0
    assert sum(s > measure.percentile(samples, 90) for s in samples) == 10
    with pytest.raises(ValueError, match="at least 10"):
        measure.percentile(samples[:99], 90)


def test_median_of_small_runs_is_allowed():
    assert measure.percentile([3.0] * 20 + [1.0], 50) == 3.0
    with pytest.raises(ValueError):
        measure.percentile([], 50)


PAYLOAD = {
    "program_name": "scan",
    "cycles": 298,
    "stats": {"counters": [["thread_instructions", 4096]]},
    "memory": {"size_words": 8, "words": [[0, 1.5], [1, -0.0]]},
    "obs": None,
}


def test_digest_ignores_key_order_only():
    reordered = dict(reversed(list(PAYLOAD.items())))
    assert measure.digest(reordered) == measure.digest(PAYLOAD)
    assert measure.digest({1: "a"}) != measure.digest({"1": "a"})


@pytest.mark.parametrize("path, value", [
    (("cycles",), 299),
    (("memory", "words", 1, 1), 0.0),          # -0.0 vs 0.0
    (("memory", "words", 0, 1), 1.5000000000000002),
    (("stats", "counters", 0, 1), 4096.0),     # int vs float
])
def test_perturbed_payload_fails_its_check(path, value):
    expected = {"op": measure.digest(PAYLOAD)}
    op = Op("op", "op", call=None, output=lambda raw: raw)
    assert check_op(op, PAYLOAD, expected, None, 0, True) is None

    perturbed = _copy(PAYLOAD)
    target = perturbed
    for key in path[:-1]:
        target = target[key]
    target[path[-1]] = value
    error = check_op(op, perturbed, expected, None, 0, True)
    assert error is not None and "digest" in error


def test_warm_op_that_simulates_fails():
    expected = {"op": measure.digest(PAYLOAD)}
    op = Op("op", "op", call=None, output=lambda raw: raw)
    assert "simulation" in check_op(op, PAYLOAD, expected, None, 1, False)


def test_speed_factors_follow_the_local_calibration():
    slow, fast = 2e-3, 1e-3
    samples = [slow] * 20 + [fast] * 20
    factors = measure.speed_factors(samples)
    ref = measure.REFERENCE_CALIBRATION_S
    window = measure.CALIBRATION_WINDOW
    assert 2 * window + 1 < 20
    assert factors[:20 - window] == pytest.approx([ref / slow] * (20 - window))
    assert factors[20 + window:] == pytest.approx([ref / fast] * (20 - window))
    assert len(factors) == len(samples)


def _copy(value):
    if isinstance(value, dict):
        return {k: _copy(v) for k, v in value.items()}
    if isinstance(value, list):
        return [_copy(v) for v in value]
    return value
