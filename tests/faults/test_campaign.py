"""Campaign tests: measured detection, including the hidden-error case.

These are the tests that *demonstrate* the paper's central safety
claims on live fault injections:

* intra-warp DMR detects faults because the verifier is a different SP;
* inter-warp DMR with lane shuffling detects permanent faults that
  same-lane (core-affinity) replay provably hides;
* without any DMR, the same faults cause silent data corruption.
"""

import pytest

from repro.common.config import DMRConfig, GPUConfig, LaunchConfig
from repro.faults.campaign import CampaignEngine, CampaignSpec, Outcome
from repro.faults.injector import FaultInjector
from repro.faults.models import StuckAtFault, TransientFault
from repro.isa.opcodes import UnitType
from repro.sim.gpu import GPU
from repro.sim.memory import GlobalMemory

from tests.conftest import build_counting_kernel


def launch_counting(dmr, fault, config=None, iterations=6):
    config = config or GPUConfig.small(1)
    program = build_counting_kernel(iterations)
    memory = GlobalMemory()
    injector = FaultInjector([fault]) if fault else None
    gpu = GPU(config, dmr=dmr, fault_hook=injector)
    result = gpu.launch(
        program, LaunchConfig(1, 32), memory=memory
    )
    return result, memory


GOLDEN = {g: 6 * g for g in range(32)}


def output_corrupt(memory):
    return any(memory.load(g) != GOLDEN[g] for g in range(32))


class TestStuckAtDetection:
    def test_no_dmr_means_silent_corruption(self):
        # bit 3: corrupts data but leaves the (boolean) loop predicate
        # intact, so the kernel terminates
        fault = StuckAtFault(sm_id=0, hw_lane=2, unit=UnitType.SP,
                             bit=3, stuck_to=1)
        result, memory = launch_counting(DMRConfig.disabled(), fault)
        assert output_corrupt(memory)
        assert len(result.detections) == 0  # the SDC Warped-DMR prevents

    def test_warped_dmr_detects_stuck_at(self):
        # bit 3: corrupts data but leaves the (boolean) loop predicate
        # intact, so the kernel terminates
        fault = StuckAtFault(sm_id=0, hw_lane=2, unit=UnitType.SP,
                             bit=3, stuck_to=1)
        result, memory = launch_counting(DMRConfig.paper_default(), fault)
        assert len(result.detections) > 0

    def test_lane_shuffling_prevents_hidden_errors(self):
        """The paper's hidden-error argument, demonstrated: a stuck-at
        fault on a fully-utilized warp is INVISIBLE to same-lane replay
        but caught once the replay is shuffled to a neighboring lane."""
        # bit 3: corrupts data but leaves the (boolean) loop predicate
        # intact, so the kernel terminates
        fault = StuckAtFault(sm_id=0, hw_lane=2, unit=UnitType.SP,
                             bit=3, stuck_to=1)
        no_shuffle, memory_a = launch_counting(
            DMRConfig(lane_shuffle=False), fault
        )
        shuffle, memory_b = launch_counting(
            DMRConfig(lane_shuffle=True), fault
        )
        # the full-warp (inter-warp DMR) replays dominate this kernel;
        # same-lane replay recomputes the same wrong value
        inter_detections_off = [
            d for d in no_shuffle.detections if d.mode == "inter"
        ]
        inter_detections_on = [
            d for d in shuffle.detections if d.mode == "inter"
        ]
        assert len(inter_detections_off) == 0   # hidden!
        assert len(inter_detections_on) > 0     # caught
        assert output_corrupt(memory_a)


class TestTransientDetection:
    def test_transient_detected_by_inter_warp(self):
        fault = TransientFault(sm_id=0, hw_lane=4, unit=UnitType.SP,
                               bit=3, cycle=40)
        result, _ = launch_counting(DMRConfig.paper_default(), fault)
        assert len(result.detections) >= 1

    def test_transient_before_kernel_may_hit_first_op(self):
        fault = TransientFault(sm_id=0, hw_lane=0, unit=UnitType.SP,
                               bit=0, cycle=0)
        result, _ = launch_counting(DMRConfig.paper_default(), fault)
        assert len(result.detections) >= 1


class TestCampaignHarness:
    @pytest.fixture
    def campaign(self):
        return CampaignEngine(CampaignSpec(
            workload="scan", config=GPUConfig.small(1),
            dmr=DMRConfig.paper_default(), scale=0.25))

    def test_golden_run_reproducible(self, campaign):
        assert campaign.golden_output() == campaign.golden_output()

    def test_campaign_classifies_all_runs(self, campaign):
        faults = [
            StuckAtFault(sm_id=0, hw_lane=lane, unit=UnitType.SP,
                         bit=0, stuck_to=1)
            for lane in (0, 5, 9)
        ]
        result = campaign.run(faults)
        assert result.total == 3
        assert sum(result.summary().values()) == 3

    def test_detection_rate_high_for_active_stuck_at(self, campaign):
        faults = [
            StuckAtFault(sm_id=0, hw_lane=lane, unit=UnitType.SP,
                         bit=1, stuck_to=1)
            for lane in range(8)
        ]
        result = campaign.run(faults)
        assert result.detection_rate >= 0.8
