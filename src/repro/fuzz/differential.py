"""Differential oracle: scalar reference vs every simulator engine.

Every fuzzed kernel is executed three ways before it may enter a
corpus:

1. the barrier-aware scalar reference interpreter
   (:mod:`repro.sim.scalar_ref`) over plain Python dict memories — the
   semantic ground truth, with no pipeline model at all;
2. the full simulator with the scalar execution engine;
3. the full simulator with the ``fast`` engine (per-issue
   vectorization, :mod:`repro.sim.vexec`, plus region fusion,
   :mod:`repro.sim.megakernel`).

All final global-memory images must be *bit-identical* (equal
canonical digests, exact float bit patterns included).  Any mismatch is
a simulator bug by definition, and the kernel payload reproduces it.

DMR is off for admission runs — validation checks functional
semantics, which detection must never alter; the DMR-mode sweeps live
in the test suite and the schedule explorer.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Dict, List, Optional

from repro.common.config import ENGINE_NAMES, DMRConfig, GPUConfig
from repro.fuzz.serialize import FuzzKernel, Number, memory_digest
from repro.sim.gpu import GPU, KernelResult
from repro.sim.memory import GlobalMemory
from repro.sim.scalar_ref import run_scalar_block


def fuzz_gpu_config(num_sms: int = 2,
                    schedule_seed: Optional[int] = None) -> GPUConfig:
    """Small config the fuzzer validates and sweeps on."""
    return replace(GPUConfig.small(num_sms=num_sms),
                   schedule_seed=schedule_seed)


def build_memory(kernel: FuzzKernel) -> GlobalMemory:
    """Materialize the kernel's initial image as simulator memory."""
    memory = GlobalMemory()
    for addr, value in kernel.memory_init:
        memory.store(addr, value)
    return memory


def reference_memory(kernel: FuzzKernel) -> Dict[int, Number]:
    """Run the scalar reference over every block; return final memory."""
    memory = kernel.initial_memory()
    for block_id in range(kernel.grid_dim):
        run_scalar_block(kernel.program, block_id, kernel.block_dim,
                         kernel.grid_dim, memory)
    return memory


def run_kernel(kernel: FuzzKernel, *,
               config: Optional[GPUConfig] = None,
               dmr: Optional[DMRConfig] = None,
               schedule_seed: Optional[int] = None,
               obs: object = False,
               max_cycles: Optional[int] = None) -> KernelResult:
    """Simulate one fuzz kernel from its own initial memory image."""
    config = config if config is not None else fuzz_gpu_config()
    if schedule_seed is not None:
        config = config.with_schedule_seed(schedule_seed)
    gpu = GPU(config=config,
              dmr=dmr if dmr is not None else DMRConfig.disabled(),
              max_cycles=max_cycles or kernel.cycle_budget, obs=obs)
    return gpu.launch(kernel.program, kernel.launch,
                      memory=build_memory(kernel))


def result_digest(result: KernelResult) -> str:
    """Canonical digest of a simulated run's final memory image."""
    return memory_digest(result.memory.to_payload()["words"])


@dataclass
class Validation:
    """Outcome of one kernel's differential admission check."""

    kernel_digest: str
    reference_digest: str
    engine_digests: Dict[str, str] = field(default_factory=dict)
    errors: List[str] = field(default_factory=list)
    cycles: int = 0

    @property
    def ok(self) -> bool:
        return not self.errors and all(
            digest == self.reference_digest
            for digest in self.engine_digests.values())


def validate_kernel(kernel: FuzzKernel,
                    config: Optional[GPUConfig] = None) -> Validation:
    """Check bit-identity of reference, scalar and fast."""
    outcome = Validation(kernel_digest=kernel.digest(),
                         reference_digest="")
    try:
        outcome.reference_digest = memory_digest(reference_memory(kernel))
    except Exception as exc:  # noqa: BLE001 - report, don't crash the run
        outcome.errors.append(f"reference: {type(exc).__name__}: {exc}")
        return outcome
    config = config if config is not None else fuzz_gpu_config()
    for engine in ENGINE_NAMES:
        try:
            result = run_kernel(kernel, config=replace(config, engine=engine))
        except Exception as exc:  # noqa: BLE001
            outcome.errors.append(f"{engine}: {type(exc).__name__}: {exc}")
            continue
        outcome.engine_digests[engine] = result_digest(result)
        outcome.cycles = max(outcome.cycles, result.cycles)
    for engine, digest in outcome.engine_digests.items():
        if digest != outcome.reference_digest:
            outcome.errors.append(
                f"{engine}: memory digest {digest[:12]} != reference "
                f"{outcome.reference_digest[:12]}")
    return outcome
