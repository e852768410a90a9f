"""Property tests for the deadline calibration.

The cycle watchdog and the fan-out's wall-clock deadline must stay
positive, bounded by their caps, and monotone in the golden runtime.
"""

from hypothesis import given, strategies as st

from repro.resilience import (
    DEFAULT_MAX_FAULTY_CYCLES,
    cycle_budget,
    wall_budget,
)


class TestBudgets:
    @given(golden=st.integers(0, 10**6))
    def test_cycle_budget_bounded_and_positive(self, golden):
        budget = cycle_budget(golden)
        assert 1 <= budget <= DEFAULT_MAX_FAULTY_CYCLES

    @given(golden=st.floats(0.0, 100.0, allow_nan=False))
    def test_wall_budget_bounded_and_positive(self, golden):
        budget = wall_budget(golden)
        assert 0.0 < budget <= max(600.0, golden)

    @given(short=st.floats(0.0, 50.0, allow_nan=False),
           extra=st.floats(0.0, 50.0, allow_nan=False))
    def test_wall_budget_monotone_in_golden_runtime(self, short, extra):
        assert wall_budget(short + extra) >= wall_budget(short)
