"""Differential tests over the full workload suite.

Each of the 11 paper workloads runs through the cycle-level SIMT
simulator and through the barrier-synchronous scalar reference
interpreter; the kernel outputs must match exactly.  Parameterizing the
simulator side over mapping policy and ReplayQ size pins down the
semantics under every timing-relevant DMR knob — a parallel-execution
or cache regression that altered architectural results would surface
here before any figure drifted.
"""

from __future__ import annotations

import pytest

from repro.common.config import DMRConfig, MappingPolicy
from repro.sim.gpu import GPU
from repro.sim.memory import GlobalMemory
from repro.sim.scalar_ref import run_scalar_block
from repro.workloads import all_workloads, get_workload

from tests.conftest import build_counting_kernel

from repro.analysis.runner import experiment_config

#: engine differentials compare launches that execute: a replayed
#: launch (repro.sim.replay) would only repeat its own recording
pytestmark = pytest.mark.usefixtures("executing")

SCALE = 0.25
SEED = 0

DMR_VARIANTS = [
    pytest.param(None, id="no_dmr"),
    pytest.param(DMRConfig(mapping=MappingPolicy.CROSS, replayq_entries=10),
                 id="cross_q10"),
    pytest.param(DMRConfig(mapping=MappingPolicy.CROSS, replayq_entries=0),
                 id="cross_q0"),
    pytest.param(DMRConfig(mapping=MappingPolicy.IN_ORDER,
                           replayq_entries=10), id="inorder_q10"),
    pytest.param(DMRConfig(mapping=MappingPolicy.IN_ORDER,
                           replayq_entries=0), id="inorder_q0"),
]


def _scalar_reference_output(name: str):
    """Run *name* through the scalar interpreter; return its output."""
    run = get_workload(name).prepare(SCALE, SEED)
    payload = run.memory.to_payload()
    reference = {addr: value for addr, value in payload["words"]}
    for block in range(run.launch.grid_dim):
        run_scalar_block(run.program, block, run.launch.block_dim,
                         run.launch.grid_dim, reference)
    memory = GlobalMemory(size_words=payload["size_words"])
    for addr, value in reference.items():
        memory.store(addr, value)
    # the scalar execution must itself satisfy the host reference
    run.check(memory)
    return run.output_of(memory)


@pytest.fixture(scope="module")
def scalar_outputs():
    """Scalar-reference output per workload, computed once per module."""
    return {name: _scalar_reference_output(name) for name in all_workloads()}


@pytest.mark.parametrize("dmr", DMR_VARIANTS)
@pytest.mark.parametrize("name", list(all_workloads()))
def test_workload_matches_scalar_reference(name, dmr, scalar_outputs):
    run = get_workload(name).prepare(SCALE, SEED)
    gpu = GPU(experiment_config(num_sms=2),
              dmr=dmr or DMRConfig.disabled())
    gpu.launch(run.program, run.launch, memory=run.memory)
    assert list(run.output_of(run.memory)) == list(scalar_outputs[name]), (
        f"SIMT execution of {name} diverged from the scalar reference "
        f"under {dmr!r}"
    )


def test_barrier_interleaving_keeps_private_semantics():
    """The barrier-phased driver agrees with plain per-thread runs on a
    program with no shared-memory communication."""
    program = build_counting_kernel()
    reference: dict = {}
    run_scalar_block(program, 0, 32, 1, reference)
    assert reference == {gtid: 4 * gtid for gtid in range(32)}
