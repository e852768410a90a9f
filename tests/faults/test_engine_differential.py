"""Engine differential: faulty runs must be execution-engine invariant.

A classification computed under the scalar interpreter must equal one
computed under the ``fast`` engine's windowed vector path (run
vectorized until the fault can fire, scalar only inside the activation
window).  The campaign cache keys the two engines apart (the engine is
a ``GPUConfig`` field), so these tests compare real runs, never a
cached twin: identical fault lists under a config pinned to
``engine="scalar"`` and one pinned to ``engine="fast"`` must yield
byte-identical :class:`FaultRun` payloads — outcomes, detection counts,
activations and cycle counts — across DMR configurations.

A non-vacuity check pins down that the windowed path really *is*
vectorized outside the fault window; without it the differential would
pass trivially if faulty runs silently pinned scalar again.
"""

from __future__ import annotations

from dataclasses import replace

import pytest

from repro.common.config import (DMRConfig, GPUConfig, LaunchConfig,
                                 MappingPolicy)
from repro.faults.campaign import CampaignEngine, CampaignSpec
from repro.faults.injector import FaultInjector
from repro.faults.models import StuckAtFault, TransientFault
from repro.faults.sampler import FaultSampler
from repro.isa.opcodes import UnitType
from repro.sim.gpu import GPU
from repro.sim.memory import GlobalMemory
from repro.sim.sm import SM

from tests.conftest import build_counting_kernel

DMR_CONFIGS = [
    DMRConfig.disabled(),
    DMRConfig.paper_default(),
    DMRConfig.paper_default().with_mapping(MappingPolicy.IN_ORDER),
]


def campaign_payloads(spec: CampaignSpec, engine: str, faults) -> list:
    """Classify *faults* with *spec* pinned to execution *engine*."""
    pinned = replace(spec, config=replace(spec.config, engine=engine))
    return [run.to_payload()
            for run in CampaignEngine(pinned).run(faults).runs]


@pytest.mark.parametrize("dmr", DMR_CONFIGS,
                         ids=["disabled", "paper", "inorder"])
def test_sampled_transients_engine_invariant(dmr):
    """The tentpole oracle: same faults, scalar vs windowed vector."""
    spec = CampaignSpec(workload="scan", config=GPUConfig.small(1),
                        dmr=dmr, scale=0.25)
    horizon = CampaignEngine(spec).golden_result().cycles
    faults = FaultSampler(spec.config, windows=2).sample(
        12, horizon, seed=11)
    assert (campaign_payloads(spec, "scalar", faults)
            == campaign_payloads(spec, "fast", faults))


def test_stuck_at_faults_engine_invariant():
    """Permanent faults keep every issue scalar, but must still agree."""
    spec = CampaignSpec(workload="matrixmul", config=GPUConfig.small(1),
                        dmr=DMRConfig.paper_default(), scale=0.25)
    faults = [
        StuckAtFault(sm_id=0, hw_lane=lane, unit=unit, bit=bit, stuck_to=1)
        for lane, unit, bit in [(0, UnitType.SP, 0), (5, UnitType.SP, 3),
                                (9, UnitType.LDST, 1), (13, UnitType.SFU, 7)]
    ]
    assert (campaign_payloads(spec, "scalar", faults)
            == campaign_payloads(spec, "fast", faults))


def _run_faulty_sm(fault, iterations: int = 40) -> SM:
    """One SM running the counting kernel under *fault*, engine=fast."""
    config = GPUConfig(num_sms=1, engine="fast")
    program = build_counting_kernel(iterations)
    sm = SM(sm_id=0, config=config, program=program,
            launch=LaunchConfig(1, 32), block_ids=[0],
            global_memory=GlobalMemory(),
            lane_of_slot=list(range(config.warp_size)),
            fault_hook=FaultInjector([fault]))
    sm.run()
    return sm


def test_windowed_path_vectorizes_outside_fault_window():
    """Non-vacuity: a mid-kernel transient leaves most issues vectorized.

    Before this machinery a fault hook pinned the whole run scalar; a
    regression back to that would make the differential tests vacuously
    green, so assert the engine split directly on the executor counters.
    """
    golden = _run_faulty_sm(
        TransientFault(sm_id=0, hw_lane=0, unit=UnitType.SP,
                       bit=4, cycle=10 ** 9))  # never fires
    assert golden.executor.vector_issues > 0
    assert golden.executor.scalar_issues == 0

    strike = golden.cycle // 2
    faulty = _run_faulty_sm(
        TransientFault(sm_id=0, hw_lane=3, unit=UnitType.SP,
                       bit=4, cycle=strike))
    assert faulty.executor.vector_issues > 0, "windowed path never engaged"
    assert faulty.executor.scalar_issues > 0, (
        "fault window never dropped to the scalar engine"
    )


def test_stuck_at_pins_scalar():
    """A permanent fault can fire on any issue: no vector issue is safe."""
    sm = _run_faulty_sm(
        StuckAtFault(sm_id=0, hw_lane=2, unit=UnitType.SP,
                     bit=3, stuck_to=1), iterations=6)
    assert sm.executor.vector_issues == 0
    assert sm.executor.scalar_issues > 0


class TestMayPerturb:
    def test_transient_arms_at_strike_cycle(self):
        fault = TransientFault(sm_id=0, hw_lane=1, unit=UnitType.SP,
                               bit=0, cycle=100)
        injector = FaultInjector([fault])
        assert not injector.may_perturb(0, 99)
        assert injector.may_perturb(0, 100)
        assert injector.may_perturb(0, 5000)  # armed until it fires

    def test_transient_disarms_after_firing(self):
        fault = TransientFault(sm_id=0, hw_lane=1, unit=UnitType.SP,
                               bit=0, cycle=100)
        injector = FaultInjector([fault])
        injector.apply(0, UnitType.SP, 1, 150, 0)  # one-shot flip fires
        assert injector.activations == 1
        assert not injector.may_perturb(0, 151)

    def test_other_sm_never_perturbed(self):
        fault = TransientFault(sm_id=2, hw_lane=1, unit=UnitType.SP,
                               bit=0, cycle=0)
        injector = FaultInjector([fault])
        assert not injector.may_perturb(0, 0)
        assert injector.may_perturb(2, 0)

    def test_stuck_at_always_armed(self):
        fault = StuckAtFault(sm_id=0, hw_lane=1, unit=UnitType.SP,
                             bit=0, stuck_to=1)
        injector = FaultInjector([fault])
        assert injector.may_perturb(0, 0)
        assert injector.may_perturb(0, 10 ** 9)
