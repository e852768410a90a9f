"""Warped-DMR reproduction: light-weight error detection for GPGPU.

Reproduces Jeon & Annavaram, "Warped-DMR: Light-weight Error Detection
for GPGPU", MICRO 2012, on a from-scratch cycle-level SIMT simulator.

Quickstart::

    from repro import GPU, GPUConfig, DMRConfig, LaunchConfig
    from repro.workloads import get_workload

    workload = get_workload("matrixmul")
    gpu = GPU(GPUConfig.paper_baseline(), dmr=DMRConfig.paper_default())
    run = workload.prepare()
    result = gpu.launch(run.program, run.launch, memory=run.memory)
    print(result.cycles, result.coverage)
"""

from repro.common.config import (
    DMRConfig,
    GPUConfig,
    LaunchConfig,
    MappingPolicy,
    SchedulerPolicy,
    TransferConfig,
)
from repro.common.errors import (
    ConfigError,
    KernelError,
    ReproError,
    SimulationError,
)
from repro.core.coverage import CoverageReport
from repro.kernel import KernelBuilder, Program
from repro.sim import GPU, GlobalMemory, KernelResult

__version__ = "1.7.0"

__all__ = [
    "ConfigError",
    "CoverageReport",
    "DMRConfig",
    "GPU",
    "GPUConfig",
    "GlobalMemory",
    "KernelBuilder",
    "KernelError",
    "KernelResult",
    "LaunchConfig",
    "MappingPolicy",
    "Program",
    "ReproError",
    "SchedulerPolicy",
    "SimulationError",
    "TransferConfig",
    "__version__",
]
