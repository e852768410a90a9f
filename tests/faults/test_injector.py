"""Unit tests for the fault injector hook."""

from repro.baselines.secded import SECDEDBackend
from repro.faults.injector import FaultInjector
from repro.faults.models import StuckAtFault, TransientFault
from repro.isa.opcodes import UnitType


class TestStuckAt:
    def test_perturbs_every_matching_computation(self):
        injector = FaultInjector([
            StuckAtFault(sm_id=0, hw_lane=3, unit=UnitType.SP,
                         bit=0, stuck_to=1),
        ])
        assert injector.apply(0, UnitType.SP, 3, 0, 0) == 1
        assert injector.apply(0, UnitType.SP, 3, 99, 4) == 5
        assert injector.activations == 2

    def test_other_sites_untouched(self):
        injector = FaultInjector([
            StuckAtFault(sm_id=0, hw_lane=3, unit=UnitType.SP, bit=0,
                         stuck_to=1),
        ])
        assert injector.apply(0, UnitType.SP, 4, 0, 0) == 0
        assert injector.apply(1, UnitType.SP, 3, 0, 0) == 0
        assert injector.apply(0, UnitType.LDST, 3, 0, 0) == 0
        assert injector.activations == 0

    def test_masked_activation_not_counted(self):
        injector = FaultInjector([
            StuckAtFault(sm_id=0, hw_lane=0, bit=0, stuck_to=1),
        ])
        assert injector.apply(0, UnitType.SP, 0, 0, 1) == 1  # already 1
        assert injector.activations == 0


class TestTransient:
    def test_fires_exactly_once(self):
        injector = FaultInjector([
            TransientFault(sm_id=0, hw_lane=0, bit=0, cycle=10),
        ])
        assert injector.apply(0, UnitType.SP, 0, 5, 0) == 0   # not armed
        assert injector.apply(0, UnitType.SP, 0, 10, 0) == 1  # strike
        assert injector.apply(0, UnitType.SP, 0, 11, 0) == 0  # consumed
        assert injector.activations == 1

    def test_reset_rearms(self):
        injector = FaultInjector([
            TransientFault(sm_id=0, hw_lane=0, bit=0, cycle=0),
        ])
        injector.apply(0, UnitType.SP, 0, 0, 0)
        injector.reset()
        assert not injector.any_fired
        assert injector.apply(0, UnitType.SP, 0, 0, 0) == 1

    def test_multiple_faults_compose(self):
        injector = FaultInjector([
            StuckAtFault(sm_id=0, hw_lane=0, bit=0, stuck_to=1),
            StuckAtFault(sm_id=0, hw_lane=0, bit=1, stuck_to=1),
        ])
        assert injector.apply(0, UnitType.SP, 0, 0, 0) == 3


class TestSECDEDStrike:
    """The ECC backend shares the injector's fault walk and overrides
    only how a fired fault resolves; its codec counters stay exact."""

    @staticmethod
    def _counters(backend):
        return (backend.activations, backend.checks, backend.detections,
                backend.corrections, backend.uncorrectable)

    def test_transient_is_corrected_once(self):
        backend = SECDEDBackend([
            TransientFault(sm_id=0, hw_lane=0, bit=5, cycle=10),
        ])
        assert backend.may_perturb(0, 10)
        assert backend.apply(0, UnitType.SP, 0, 5, 7) == 7    # not armed
        assert backend.apply(0, UnitType.SP, 0, 10, 7) == 7   # corrected
        assert backend.apply(0, UnitType.SP, 0, 11, 7) == 7   # consumed
        assert not backend.may_perturb(0, 11)
        assert self._counters(backend) == (1, 1, 1, 1, 0)

    def test_stuck_at_is_codec_blind(self):
        backend = SECDEDBackend([
            StuckAtFault(sm_id=0, hw_lane=3, unit=UnitType.SP,
                         bit=0, stuck_to=1),
        ])
        assert backend.apply(0, UnitType.SP, 3, 0, 0) == 1
        assert backend.apply(0, UnitType.SP, 3, 1, 1) == 1    # masked
        assert self._counters(backend) == (1, 0, 0, 0, 0)

    def test_reset_rearms_and_clears(self):
        backend = SECDEDBackend([
            TransientFault(sm_id=0, hw_lane=0, bit=0, cycle=0),
        ])
        backend.apply(0, UnitType.SP, 0, 0, 0)
        backend.reset()
        assert self._counters(backend) == (0, 0, 0, 0, 0)
        backend.apply(0, UnitType.SP, 0, 0, 0)
        assert self._counters(backend) == (1, 1, 1, 1, 0)
