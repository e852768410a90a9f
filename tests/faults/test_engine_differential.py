"""Engine differential: faulty runs must be execution-engine invariant.

A classification computed under the scalar interpreter must equal one
computed under the ``fast`` engine's site-aware path (every issue
vectorized; only the fault's site lanes pass through the hook, and DMR
recomputes only the lane pairs a fault could have touched).  The
campaign cache keys the two engines apart (the engine is a
``GPUConfig`` field), so these tests compare real runs, never a cached
twin: identical fault lists under a config pinned to ``engine="scalar"``
and one pinned to ``engine="fast"`` must yield byte-identical
:class:`FaultRun` payloads — outcomes, detection counts, activations,
cycle counts, pcs and obs — across DMR configurations and schemes.

Non-vacuity checks pin down that faulted runs really *are* vectorized
and really skip the redundant recomputes; without them the
differential would pass trivially if faulty runs silently pinned scalar
again.
"""

from __future__ import annotations

import collections
from dataclasses import replace

import pytest

from repro.baselines.secded import SECDEDBackend
from repro.common.config import (DMRConfig, GPUConfig, LaunchConfig,
                                 MappingPolicy)
from repro.core.comparator import ResultComparator
from repro.faults.campaign import CampaignEngine, CampaignSpec
from repro.faults.injector import FaultInjector
from repro.faults.models import StuckAtFault, TransientFault
from repro.faults.sampler import FaultSampler
from repro.isa.opcodes import UnitType
from repro.service.store import canonical_json
from repro.sim.executor import Executor, FaultHook
from repro.sim.gpu import GPU
from repro.sim.memory import GlobalMemory
from repro.sim.sm import SM

from tests.conftest import build_counting_kernel
from tests.faults import golden_corpus

#: engine differentials compare launches that execute: a replayed
#: launch (repro.sim.replay) would only repeat its own recording
pytestmark = pytest.mark.usefixtures("executing")

DMR_CONFIGS = [
    DMRConfig.disabled(),
    DMRConfig.paper_default(),
    DMRConfig.paper_default().with_mapping(MappingPolicy.IN_ORDER),
]

#: permanent faults on every unit kind: SP, LDST (loads and stores with
#: a live site lane stay scalar), SFU, and a unit-less lane defect
STUCK_ATS = [
    StuckAtFault(sm_id=0, hw_lane=lane, unit=unit, bit=bit, stuck_to=1)
    for lane, unit, bit in [(0, UnitType.SP, 0), (5, UnitType.SP, 3),
                            (9, UnitType.LDST, 1), (13, UnitType.SFU, 7),
                            (6, None, 2)]
]


def campaign_payloads(spec: CampaignSpec, engine: str, faults) -> list:
    """Classify *faults* with *spec* pinned to execution *engine*; the
    :class:`FaultRun` payloads as canonical JSON bytes."""
    pinned = replace(spec, config=replace(spec.config, engine=engine))
    return [canonical_json(run.to_payload())
            for run in CampaignEngine(pinned).run(faults).runs]


@pytest.mark.parametrize("dmr", DMR_CONFIGS,
                         ids=["disabled", "paper", "inorder"])
def test_sampled_transients_engine_invariant(dmr):
    """The tentpole oracle: same faults, scalar vs site-aware vector."""
    spec = CampaignSpec(workload="scan", config=GPUConfig.small(1),
                        dmr=dmr, scale=0.25)
    horizon = CampaignEngine(spec).golden_result().cycles
    faults = FaultSampler(spec.config, windows=2).sample(
        12, horizon, seed=11)
    assert (campaign_payloads(spec, "scalar", faults)
            == campaign_payloads(spec, "fast", faults))


def test_stuck_at_faults_engine_invariant():
    """Permanent faults run vectorized off their site, and must agree."""
    spec = CampaignSpec(workload="matrixmul", config=GPUConfig.small(1),
                        dmr=DMRConfig.paper_default(), scale=0.25)
    assert (campaign_payloads(spec, "scalar", STUCK_ATS)
            == campaign_payloads(spec, "fast", STUCK_ATS))


@pytest.mark.parametrize("workload", ["scan", "matrixmul"])
def test_secded_engine_invariant(workload):
    """The ECC backend's sites: sampled transients (corrected in place,
    hook state still advances) and stuck-ats on every unit kind."""
    spec = CampaignSpec(workload=workload, config=GPUConfig.small(1),
                        dmr=DMRConfig.disabled(), scale=0.25,
                        scheme="secded", obs=True)
    horizon = CampaignEngine(spec).golden_result().cycles
    faults = FaultSampler(spec.config, windows=2).sample(
        8, horizon, seed=5) + STUCK_ATS
    assert (campaign_payloads(spec, "scalar", faults)
            == campaign_payloads(spec, "fast", faults))


def _verify_every_pair(self, executor, event, pairs, cycle, mode):
    """Reference for :meth:`ResultComparator.verify`: recompute and
    compare every pair whose original lane has inputs, no exceptions."""
    for original, verifier in pairs:
        if original in event.lane_inputs:
            self.compare(cycle, event.sm_id, event.warp_id, event.pc,
                         event.instruction.opcode, original, verifier,
                         event.lane_results[original],
                         executor.reexecute_lane(event, original, verifier,
                                                 cycle),
                         mode)


def test_golden_corpus_matches_all_lanes_oracle(monkeypatch):
    """Every golden-corpus entry, obs on: ``engine="scalar"`` with hooks
    whose ``site_lanes`` names every lane and a verifier that recomputes
    every DMR pair (every lane through ``apply``, no pair skipped)
    against ``engine="fast"`` with the real site-aware hooks and
    verification by exception.  Payloads byte-identical, cycles, pcs
    and obs included."""
    corpus = golden_corpus.load()
    groups = collections.defaultdict(list)
    for entry in corpus["entries"]:
        groups[(entry["workload"], entry["scheme"])].append(
            golden_corpus.entry_fault(entry))
    checked = 0
    for (workload, scheme), faults in groups.items():
        pcs = tuple(corpus["partial_pcs"][workload])
        spec = replace(golden_corpus.corpus_spec(workload, scheme, pcs),
                       obs=True)
        with monkeypatch.context() as patch:
            patch.setattr(FaultInjector, "site_lanes", FaultHook.site_lanes)
            patch.setattr(ResultComparator, "verify", _verify_every_pair)
            oracle = campaign_payloads(spec, "scalar", faults)
        assert campaign_payloads(spec, "fast", faults) == oracle, \
            (workload, scheme)
        checked += len(faults)
    assert checked == len(corpus["entries"]) == 162


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
    """Non-vacuity: a mid-kernel transient fires on a vector issue.

    A faulted run that silently went scalar would make the differential
    tests vacuously green, so assert the engine split directly on the
    executor counters.
    """
    golden = _run_faulty_sm(
        TransientFault(sm_id=0, hw_lane=0, unit=UnitType.SP,
                       bit=4, cycle=10 ** 9))  # never fires
    assert golden.executor.vector_issues > 0
    assert golden.executor.scalar_issues == 0
    assert golden.executor.fault_hook.activations == 0

    strike = golden.cycle // 2
    faulty = _run_faulty_sm(
        TransientFault(sm_id=0, hw_lane=3, unit=UnitType.SP,
                       bit=4, cycle=strike))
    # armed at the end, yet off the site mask: the one shot was taken
    assert faulty.executor.fault_hook.site_lanes(
        0, UnitType.SP, faulty.cycle) == 0, "the strike never fired"
    assert faulty.executor.scalar_issues == 0, "the strike went scalar"
    assert faulty.executor.vector_issues == golden.executor.vector_issues


def test_stuck_at_runs_vectorized():
    """A permanent SP fault touches one lane: no issue goes scalar, and
    the fault still fires on the vector issues' site lane."""
    sm = _run_faulty_sm(
        StuckAtFault(sm_id=0, hw_lane=2, unit=UnitType.SP,
                     bit=3, stuck_to=1), iterations=6)
    assert sm.executor.vector_issues > 0
    assert sm.executor.scalar_issues == 0
    assert sm.executor.fault_hook.activations > 0


def _count_reexecutions(monkeypatch, hook) -> tuple:
    """``(reexecute_lane calls, verified lanes)`` of one DMR launch of
    matrixmul under *hook*."""
    calls = []
    original = Executor.reexecute_lane

    def counting(self, *args):
        calls.append(args)
        return original(self, *args)

    monkeypatch.setattr(Executor, "reexecute_lane", counting)
    run = golden_corpus.corpus_spec("matrixmul").prepare()
    result = GPU(GPUConfig.small(1), dmr=DMRConfig.paper_default(),
                 fault_hook=hook).launch(run.program, run.launch,
                                         memory=run.memory)
    return len(calls), result.coverage.verified_lanes


def test_never_firing_fault_recomputes_nothing(monkeypatch):
    """Verification by exception: with no lane perturbed and no site
    live, DMR verifies every lane it always did without one recompute."""
    calls, verified = _count_reexecutions(monkeypatch, FaultInjector([
        TransientFault(sm_id=0, hw_lane=3, unit=UnitType.SP, bit=4,
                       cycle=10 ** 9)]))
    assert verified > 0
    assert calls == 0


def test_stuck_at_recomputes_only_its_site(monkeypatch):
    """A stuck-at lane is recomputed where it is the verifier or its
    original result was perturbed; an all-lanes hook recomputes all."""
    fault = StuckAtFault(sm_id=0, hw_lane=5, unit=UnitType.SP, bit=3,
                         stuck_to=1)
    site, _ = _count_reexecutions(monkeypatch, FaultInjector([fault]))
    monkeypatch.setattr(FaultInjector, "site_lanes", FaultHook.site_lanes)
    every, _ = _count_reexecutions(monkeypatch, FaultInjector([fault]))
    assert 0 < site < every // 10


class TestSiteLanes:
    def test_transient_arms_at_strike_cycle(self):
        fault = TransientFault(sm_id=0, hw_lane=1, unit=UnitType.SP,
                               bit=0, cycle=100)
        injector = FaultInjector([fault])
        assert injector.site_lanes(0, UnitType.SP, 99) == 0
        assert injector.site_lanes(0, UnitType.SP, 100) == 1 << 1
        assert injector.site_lanes(0, UnitType.SP, 5000) == 1 << 1

    def test_transient_disarms_after_firing(self):
        fault = TransientFault(sm_id=0, hw_lane=1, unit=UnitType.SP,
                               bit=0, cycle=100)
        injector = FaultInjector([fault])
        injector.apply(0, UnitType.SP, 1, 150, 0)  # one-shot flip fires
        assert injector.activations == 1
        assert injector.site_lanes(0, UnitType.SP, 151) == 0

    def test_other_sm_never_perturbed(self):
        fault = TransientFault(sm_id=2, hw_lane=1, unit=UnitType.SP,
                               bit=0, cycle=0)
        injector = FaultInjector([fault])
        assert injector.site_lanes(0, UnitType.SP, 0) == 0
        assert injector.site_lanes(2, UnitType.SP, 0) == 1 << 1

    def test_stuck_at_always_armed(self):
        fault = StuckAtFault(sm_id=0, hw_lane=1, unit=UnitType.SP,
                             bit=0, stuck_to=1)
        injector = FaultInjector([fault])
        assert injector.site_lanes(0, UnitType.SP, 0) == 1 << 1
        assert injector.site_lanes(0, UnitType.SP, 10 ** 9) == 1 << 1

    def test_unit_filters_the_site(self):
        injector = FaultInjector([
            StuckAtFault(sm_id=0, hw_lane=4, unit=UnitType.SFU, bit=0),
            TransientFault(sm_id=0, hw_lane=7, unit=UnitType.LDST,
                           bit=0, cycle=0),
        ])
        assert injector.site_lanes(0, UnitType.SP, 0) == 0
        assert injector.site_lanes(0, UnitType.SFU, 0) == 1 << 4
        assert injector.site_lanes(0, UnitType.LDST, 0) == 1 << 7

    def test_unitless_fault_matches_every_unit(self):
        injector = FaultInjector([
            StuckAtFault(sm_id=0, hw_lane=9, unit=None, bit=0)])
        for unit in UnitType:
            assert injector.site_lanes(0, unit, 0) == 1 << 9

    def test_fired_transient_leaves_the_mask(self):
        """Only the fired fault's lane goes; the other faults stay."""
        backend = SECDEDBackend([
            TransientFault(sm_id=0, hw_lane=2, unit=UnitType.SP,
                           bit=0, cycle=10),
            TransientFault(sm_id=0, hw_lane=6, unit=UnitType.SP,
                           bit=0, cycle=10),
            StuckAtFault(sm_id=0, hw_lane=2, unit=UnitType.SP, bit=0),
        ])
        assert backend.site_lanes(0, UnitType.SP, 10) == 1 << 2 | 1 << 6
        assert backend.apply(0, UnitType.SP, 6, 10, 7) == 7  # corrected
        assert backend.site_lanes(0, UnitType.SP, 11) == 1 << 2
        backend.reset()
        assert backend.site_lanes(0, UnitType.SP, 11) == 1 << 2 | 1 << 6

    def test_base_hook_names_every_lane(self):
        assert FaultHook().site_lanes(0, UnitType.SP, 0) == -1  # all bits
