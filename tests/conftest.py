"""Shared fixtures and helpers for the test suite."""

from __future__ import annotations

import contextlib
from dataclasses import dataclass

import pytest

from repro.common.config import DMRConfig, GPUConfig, LaunchConfig
from repro.faults.campaign import CampaignSpec
from repro.isa.opcodes import CmpOp
from repro.kernel.builder import KernelBuilder
from repro.sim.gpu import GPU
from repro.sim.memory import GlobalMemory
from repro.sim.sm import SM
from repro.workloads.base import TransferSpec, WorkloadRun


@pytest.fixture
def tiny_config() -> GPUConfig:
    """One-SM chip for deterministic single-pipeline tests."""
    return GPUConfig.small(1)


@pytest.fixture
def small_config() -> GPUConfig:
    """Two-SM chip used by most integration tests."""
    return GPUConfig.small(2)


@pytest.fixture
def dmr_default() -> DMRConfig:
    return DMRConfig.paper_default()


def build_counting_kernel(iterations: int = 4) -> object:
    """A loop kernel: out[gtid] = gtid summed *iterations* times."""
    b = KernelBuilder("counting")
    i, acc, gid, addr = b.regs(4)
    p = b.pred()
    b.gtid(gid)
    b.mov(acc, 0)
    b.mov(i, 0)
    b.label("loop")
    b.iadd(acc, acc, gid)
    b.iadd(i, i, 1)
    b.setp(p, i, CmpOp.LT, iterations)
    b.bra("loop", pred=p)
    b.st_global(gid, acc)
    b.exit()
    return b.build()


@dataclass(frozen=True)
class CountingSpec(CampaignSpec):
    """A campaign over :func:`build_counting_kernel` on one block.

    ``prepare`` builds the hand-made kernel instead of a registry
    workload; build it with :func:`counting_spec`, which names the
    workload after its geometry so two geometries never share a
    fault-run key.
    """

    threads: int = 32
    iterations: int = 4

    def prepare(self) -> WorkloadRun:
        threads, iterations = self.threads, self.iterations

        def output_of(memory: GlobalMemory) -> list:
            return [memory.load(gid) for gid in range(threads)]

        def check(memory: GlobalMemory) -> None:
            assert output_of(memory) == [gid * iterations
                                         for gid in range(threads)]

        return WorkloadRun(
            program=build_counting_kernel(iterations),
            launch=LaunchConfig(1, threads),
            memory=GlobalMemory(),
            transfer=TransferSpec(input_bytes=0, output_bytes=4 * threads),
            check=check,
            output_of=output_of,
        )


def counting_spec(threads: int = 32, iterations: int = 4,
                  **fields) -> CountingSpec:
    """A :class:`CountingSpec` on one SM under the paper's DMR."""
    fields.setdefault("config", GPUConfig.small(1))
    fields.setdefault("dmr", DMRConfig.paper_default())
    return CountingSpec(workload=f"counting-{threads}t-{iterations}i",
                        threads=threads, iterations=iterations, **fields)


@contextlib.contextmanager
def fusion_disabled():
    """Run the ``fast`` engine per issue, with region fusion gated off.

    A test toggle only: the program offers no fusion option, so this
    patches :meth:`SM.fusion_allowed` for the duration.
    """
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(SM, "fusion_allowed", lambda self: False)
        yield


def build_divergent_kernel() -> object:
    """Threads with even gtid double, odd gtid triple their id."""
    b = KernelBuilder("divergent")
    gid, t, out = b.regs(3)
    p = b.pred()
    b.gtid(gid)
    b.irem(t, gid, 2)
    b.setp(p, t, CmpOp.EQ, 0)
    b.bra("even", pred=p)
    b.imul(out, gid, 3)
    b.jmp("store")
    b.label("even")
    b.imul(out, gid, 2)
    b.label("store")
    b.st_global(gid, out)
    b.exit()
    return b.build()


def run_program(program, config: GPUConfig, grid: int = 1, block: int = 32,
                dmr: DMRConfig | None = None, memory=None,
                fault_hook=None):
    """Launch helper returning (result, memory)."""
    memory = memory or GlobalMemory()
    gpu = GPU(config, dmr=dmr or DMRConfig.disabled(), fault_hook=fault_hook)
    result = gpu.launch(
        program, LaunchConfig(grid_dim=grid, block_dim=block), memory=memory
    )
    return result, memory
