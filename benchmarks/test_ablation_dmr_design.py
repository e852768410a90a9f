"""Ablation benches for the design choices DESIGN.md calls out.

* lane shuffling on/off under permanent faults (hidden-error rate);
* eager re-execution vs register re-read on a full ReplayQ;
* ReplayQ sizes beyond the paper's 10 (diminishing returns);
* scheduler policy sensitivity (RR vs GTO).
"""

import statistics
from dataclasses import replace

from repro.analysis.report import format_table
from repro.analysis.runner import SuiteRunner, experiment_config
from repro.common.config import (
    DMRConfig,
    GPUConfig,
    LaunchConfig,
    SchedulerPolicy,
)
from repro.faults.campaign import CampaignEngine, CampaignSpec, Outcome
from repro.faults.models import StuckAtFault
from repro.isa.opcodes import UnitType

from benchmarks.conftest import emit, once


def test_ablation_lane_shuffle_hidden_errors(benchmark, results_dir):
    """Stuck-at faults on fully-utilized workloads: without lane
    shuffling, inter-warp replay lands on the defective SP and the
    error hides."""
    def campaign_for(shuffle: bool):
        # full scale: SHA's warps must be fully utilized so detection
        # rests on inter-warp replay alone (partial warps would let
        # intra-warp DMR catch the fault in both configurations)
        campaign = CampaignEngine(CampaignSpec(
            workload="sha", config=GPUConfig.small(1),
            dmr=DMRConfig(lane_shuffle=shuffle), scale=1.0))
        faults = [
            StuckAtFault(sm_id=0, hw_lane=lane, unit=UnitType.SP,
                         bit=4, stuck_to=1)
            for lane in range(0, 32, 4)
        ]
        return campaign.run(faults)

    def run_both():
        return campaign_for(False), campaign_for(True)

    no_shuffle, with_shuffle = once(benchmark, run_both)
    rows = [
        ["lane shuffle OFF", no_shuffle.count(Outcome.SDC),
         no_shuffle.count(Outcome.DETECTED)
         + no_shuffle.count(Outcome.DETECTED_AND_CORRUPT),
         f"{no_shuffle.detection_rate:.0%}"],
        ["lane shuffle ON", with_shuffle.count(Outcome.SDC),
         with_shuffle.count(Outcome.DETECTED)
         + with_shuffle.count(Outcome.DETECTED_AND_CORRUPT),
         f"{with_shuffle.detection_rate:.0%}"],
    ]
    text = format_table(
        ["configuration", "SDCs", "detected", "detection rate"],
        rows, title="Ablation: lane shuffling vs hidden errors "
                    "(8 stuck-at faults, SHA)",
    )
    emit(results_dir, "ablation_lane_shuffle", text)
    assert with_shuffle.detection_rate > no_shuffle.detection_rate


def test_ablation_eager_reexecution(benchmark, results_dir):
    """Eager re-execution (operands still in the pipeline) saves one
    cycle per full-queue event vs re-reading the register file."""
    runner = SuiteRunner(experiment_config(num_sms=2), scale=1.0)

    def run_both():
        name = "matrixmul"
        base = runner.baseline(name).cycles
        eager = runner.run(
            name, DMRConfig(replayq_entries=0, eager_reexecution=True)
        ).cycles
        lazy = runner.run(
            name, DMRConfig(replayq_entries=0, eager_reexecution=False)
        ).cycles
        return base, eager, lazy

    base, eager, lazy = once(benchmark, run_both)
    text = format_table(
        ["variant", "cycles", "normalized"],
        [
            ["baseline (no DMR)", base, 1.0],
            ["eager re-execution", eager, eager / base],
            ["register re-read", lazy, lazy / base],
        ],
        title="Ablation: eager re-execution on full ReplayQ (MatrixMul, q=0)",
    )
    emit(results_dir, "ablation_eager_reexecution", text)
    assert eager < lazy


def test_ablation_replayq_beyond_paper(benchmark, results_dir):
    """Queue sizes past 10: the paper argues 10 suffices; the curve
    should flatten."""
    runner = SuiteRunner(experiment_config(num_sms=2), scale=1.0)
    sizes = [0, 5, 10, 20, 40]

    def sweep():
        name = "matrixmul"
        base = runner.baseline(name).cycles
        return {
            size: runner.run(
                name, DMRConfig.paper_default().with_replayq(size)
            ).cycles / base
            for size in sizes
        }

    data = once(benchmark, sweep)
    text = format_table(
        ["ReplayQ entries", "normalized cycles"],
        [[size, data[size]] for size in sizes],
        title="Ablation: ReplayQ sizes beyond the paper (MatrixMul)",
    )
    emit(results_dir, "ablation_replayq_sizes", text)
    assert data[10] <= data[0]
    gain_0_to_10 = data[0] - data[10]
    gain_10_to_40 = data[10] - data[40]
    assert gain_10_to_40 <= gain_0_to_10  # diminishing returns


def test_ablation_scheduler_policy(benchmark, results_dir):
    """Warped-DMR's overhead under RR vs GTO scheduling."""
    names = ("matrixmul", "sha", "libor")

    def sweep():
        rows = []
        for policy in (SchedulerPolicy.ROUND_ROBIN,
                       SchedulerPolicy.GREEDY_THEN_OLDEST):
            config = replace(experiment_config(num_sms=2), scheduler=policy)
            runner = SuiteRunner(config, scale=1.0)
            overheads = []
            for name in names:
                base = runner.baseline(name).cycles
                dmr = runner.run(name, DMRConfig.paper_default()).cycles
                overheads.append(dmr / base)
            rows.append([policy.value, statistics.mean(overheads)])
        return rows

    rows = once(benchmark, sweep)
    text = format_table(
        ["scheduler", "mean normalized cycles (q=10)"], rows,
        title="Ablation: scheduler policy sensitivity",
    )
    emit(results_dir, "ablation_scheduler", text)
    for _, overhead in rows:
        assert overhead < 1.6
