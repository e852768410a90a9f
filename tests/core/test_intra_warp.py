"""Unit tests for intra-warp DMR and the result comparator."""

from repro.obs.metrics import MetricsRegistry
from repro.core.comparator import ResultComparator
from repro.core.intra_warp import IntraWarpDMR
from repro.isa.opcodes import Opcode

from tests.core.conftest import faulty_executor, make_event


def make_engine(cluster=4):
    stats = MetricsRegistry()
    comparator = ResultComparator()
    engine = IntraWarpDMR(
        cluster_size=cluster, stats=stats, comparator=comparator,
    )
    return engine, stats, comparator


class TestVerifiedCounting:
    def test_half_active_fully_verified(self):
        engine, stats, _ = make_engine()
        # every cluster 0b0011: 16 active, all verified
        mask = 0
        for c in range(8):
            mask |= 0b0011 << (4 * c)
        verified = engine.process(make_event(hw_mask=mask), None)
        assert verified == 16
        assert stats.value("intra_warp_verified_lanes") == 16

    def test_clustered_actives_unverified(self):
        engine, _, _ = make_engine()
        # two fully active clusters, six idle ones: RFU can't reach
        verified = engine.process(make_event(hw_mask=0xFF), None)
        assert verified == 0

    def test_single_active_lane_verified_with_redundancy(self):
        engine, stats, _ = make_engine()
        verified = engine.process(make_event(hw_mask=0b1), None)
        assert verified == 1
        # three idle lanes all re-execute it (more-than-dual is allowed)
        assert stats.value("intra_redundant_lanes_SP") == 3

    def test_zero_cost(self):
        """Intra-warp DMR must never charge stall cycles — the paper's
        'almost zero overhead' property (Section 3.3)."""
        engine, _, _ = make_engine()
        # the API returns a verified count, not stalls; this documents it
        result = engine.process(make_event(hw_mask=0b0011), None)
        assert isinstance(result, int)


class TestFunctionalVerification:
    """Lane values are compared on a faulty executor (an armed hook;
    the bare one may perturb any lane, so every pair is recomputed)."""

    def test_clean_execution_no_detections(self):
        engine, _, comparator = make_engine()
        engine.process(make_event(Opcode.IADD, hw_mask=0b0011),
                       faulty_executor())
        assert comparator.detection_count == 0

    def test_corrupted_original_detected(self):
        engine, _, comparator = make_engine()
        executor = faulty_executor()
        event = make_event(Opcode.IADD, hw_mask=0b0011)
        event.lane_results[0] = 999  # corrupt lane 0's stored result
        engine.process(event, executor)
        assert comparator.detection_count == 1
        detection = comparator.detections[0]
        assert detection.original_lane == 0
        assert detection.mode == "intra"
        assert detection.verifier_lane != detection.original_lane


class TestComparator:
    def test_equal_values_no_event(self):
        comparator = ResultComparator()
        assert comparator.compare(
            0, 0, 0, 0, Opcode.IADD, 0, 1, 5, 5, "intra"
        ) is None
        assert comparator.detection_count == 0

    def test_mismatch_records_event(self):
        comparator = ResultComparator()
        event = comparator.compare(
            3, 1, 2, 7, Opcode.FMUL, 0, 1, 5.0, 6.0, "inter"
        )
        assert event is not None
        assert event.cycle == 3
        assert "inter" in str(event)

    def test_nan_equals_nan(self):
        comparator = ResultComparator()
        nan = float("nan")
        assert comparator.compare(
            0, 0, 0, 0, Opcode.FMUL, 0, 1, nan, nan, "intra"
        ) is None

    def test_float_int_mismatch_detected(self):
        comparator = ResultComparator()
        assert comparator.compare(
            0, 0, 0, 0, Opcode.IADD, 0, 1, 5, 6, "intra"
        ) is not None
