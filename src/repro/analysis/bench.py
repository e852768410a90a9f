"""Execution-engine benchmarks (``python -m repro bench``).

Measures the ``fast`` execution engine (per-issue vectorization)
against the ``scalar`` per-lane interpreter on three levels:

* **instruction throughput** — synthetic full-warp kernels that stream
  int-ALU, float-ALU and SFU instructions with no divergence, isolating
  raw issue-execution cost (thread-instructions per second, from the
  fastest of :data:`THROUGHPUT_REPEATS` interleaved launches per
  engine);
* **workload wall-clock** — every Table 4 workload end to end;
* **cold figure regeneration** — Figure 9(b) (11 workloads x 5 DMR
  configurations) with the result cache disabled, the heaviest everyday
  analysis run.  As in a fresh process, the fast engine executes each
  workload's first cell and replays its recorded control flow in the
  others (:mod:`repro.sim.replay`); the two levels above time
  executing launches only.

Results are emitted as machine-readable JSON (``BENCH_exec.json``) so
CI can gate on the fast/scalar ratio and archive the numbers.
"""

from __future__ import annotations

import json
import platform
import time
from typing import Callable, Dict, List, Optional, Tuple

from repro.common.config import DMRConfig, GPUConfig, LaunchConfig
from repro.isa.opcodes import CmpOp
from repro.kernel.builder import KernelBuilder
from repro.kernel.program import Program
from repro.sim import replay
from repro.sim.gpu import GPU
from repro.workloads import all_workloads

#: engines every benchmark runs side by side, in one process, over the
#: same programs: the scalar oracle first, then the fast engine
ENGINES: Tuple[str, str] = ("scalar", "fast")

#: static unrolled ALU ops per loop iteration in the synthetic kernels
_UNROLL = 8

#: timed launches per engine and microbenchmark: the fastest counts,
#: and the engines' launches alternate so host drift hits both alike
#: (the obs-overhead gate times its configurations the same way)
THROUGHPUT_REPEATS = 7


def _int_alu_kernel(iters: int) -> Program:
    """Full-warp integer ALU stream: IMAD/XOR/SHL/IADD dependency mesh."""
    b = KernelBuilder("bench_int_alu")
    i, a, c, s = b.regs(4)
    b.mov(i, 0)
    b.gtid(a)
    b.iadd(c, a, 12345)
    b.mov(s, 0)
    b.label("loop")
    for _ in range(_UNROLL // 4):
        b.imad(a, a, 1103515245, c)
        b.xor(a, a, c)
        b.shl(c, a, 3)
        b.iadd(s, s, a)
    b.iadd(i, i, 1)
    p = b.pred()
    b.setp(p, i, CmpOp.LT, iters)
    b.bra("loop", p)
    r = b.reg()
    b.gtid(r)
    b.st_global(r, s)
    b.exit()
    return b.build()


def _float_alu_kernel(iters: int) -> Program:
    """Full-warp float stream: FFMA/FADD/FMUL chains (MatrixMul-like)."""
    b = KernelBuilder("bench_float_alu")
    i, t = b.reg(), b.reg()
    x, y, acc = b.regs(3)
    b.mov(i, 0)
    b.gtid(t)
    b.i2f(x, t)
    b.fadd(y, x, 0.5)
    b.mov(acc, 0.0)
    b.label("loop")
    for _ in range(_UNROLL // 4):
        b.ffma(acc, x, y, acc)
        b.fmul(x, x, 1.0000001)
        b.fadd(y, y, 0.25)
        b.fmax(acc, acc, y)
    b.iadd(i, i, 1)
    p = b.pred()
    b.setp(p, i, CmpOp.LT, iters)
    b.bra("loop", p)
    r = b.reg()
    b.gtid(r)
    b.st_global(r, acc)
    b.exit()
    return b.build()


def _sfu_kernel(iters: int) -> Program:
    """Full-warp SFU stream (libor-like transcendental bursts)."""
    b = KernelBuilder("bench_sfu")
    i, t, x, s = b.regs(4)
    b.mov(i, 0)
    b.gtid(t)
    b.i2f(x, t)
    b.mov(s, 0.0)
    b.label("loop")
    b.sin(s, x)
    b.sqrt(s, s)
    b.exp(x, s)
    b.log(x, x)
    b.iadd(i, i, 1)
    p = b.pred()
    b.setp(p, i, CmpOp.LT, iters)
    b.bra("loop", p)
    r = b.reg()
    b.gtid(r)
    b.st_global(r, s)
    b.exit()
    return b.build()


_MICROBENCHES: Dict[str, Callable[[int], Program]] = {
    "int_alu": _int_alu_kernel,
    "float_alu": _float_alu_kernel,
    "sfu": _sfu_kernel,
}


def _time_launch(program: Program, launch: LaunchConfig, engine: str,
                 dmr: Optional[DMRConfig] = None) -> Tuple[float, int]:
    """One timed launch; returns (seconds, thread_instructions).

    The program's replay record is dropped first, so the launch
    executes rather than replaying an earlier one.
    """
    gpu = GPU(GPUConfig(engine=engine), dmr=dmr)
    replay.forget(program)
    start = time.perf_counter()
    result = gpu.launch(program, launch)
    elapsed = time.perf_counter() - start
    return elapsed, result.stats.value("thread_instructions")


def _speedups(entry: Dict[str, dict]) -> None:
    """Attach ``speedup``, scalar time over fast time, to *entry*."""
    entry["speedup"] = entry["scalar"]["seconds"] / entry["fast"]["seconds"]


def bench_throughput(iters: int = 200, blocks: int = 2,
                     block_dim: int = 128) -> Dict[str, dict]:
    """Instruction-throughput microbenchmarks, both engines.

    Each engine's time is the minimum of :data:`THROUGHPUT_REPEATS`
    launches, the two engines' launches interleaved.  Returns
    per-kernel ``{engine: {seconds, thread_instructions,
    minst_per_s}}`` plus the ratio of :func:`_speedups` (>1 means the
    fast engine wins).
    """
    launch = LaunchConfig(grid_dim=blocks, block_dim=block_dim)
    report: Dict[str, dict] = {}
    for name, build in _MICROBENCHES.items():
        program = build(iters)
        best = {engine: float("inf") for engine in ENGINES}
        insts = {}
        for _ in range(THROUGHPUT_REPEATS):
            for engine in ENGINES:
                seconds, insts[engine] = _time_launch(program, launch,
                                                      engine)
                best[engine] = min(best[engine], seconds)
        entry: Dict[str, object] = {
            engine: {
                "seconds": best[engine],
                "thread_instructions": insts[engine],
                "minst_per_s": insts[engine] / best[engine] / 1e6,
            }
            for engine in ENGINES
        }
        _speedups(entry)
        report[name] = entry
    return report


def bench_workloads(scale: float = 0.5, seed: int = 0) -> Dict[str, dict]:
    """End-to-end workload wall-clock, both engines."""
    report: Dict[str, dict] = {}
    for name, workload in all_workloads().items():
        entry: Dict[str, object] = {}
        for engine in ENGINES:
            run = workload.prepare(scale=scale, seed=seed)
            gpu = GPU(GPUConfig(engine=engine))
            replay.forget(run.program)  # time an executing launch
            start = time.perf_counter()
            gpu.launch(run.program, run.launch, memory=run.memory)
            entry[engine] = {"seconds": time.perf_counter() - start}
        _speedups(entry)
        report[name] = entry
    return report


def bench_fig9b(scale: float = 0.25, seed: int = 0) -> Dict[str, dict]:
    """Cold (cache-disabled) Figure 9(b) regeneration, both engines."""
    from repro.analysis.overhead_sweep import run_figure9b
    from repro.analysis.runner import SuiteRunner, experiment_config

    entry: Dict[str, object] = {}
    for engine in ENGINES:
        runner = SuiteRunner(experiment_config(num_sms=2, engine=engine),
                             scale=scale, seed=seed, cache=None)
        # as in a fresh process: each workload's first fast cell
        # executes and records, the rest replay (repro.sim.replay)
        for workload in all_workloads().values():
            replay.forget(workload.prepare(scale=scale, seed=seed).program)
        start = time.perf_counter()
        run_figure9b(runner)
        entry[engine] = {"seconds": time.perf_counter() - start}
    _speedups(entry)
    return {"fig9b_cold": entry}


def bench_campaign(workload: str = "scan", samples: int = 200,
                   scale: float = 0.5, seed: int = 0,
                   parallel: int = 4, windows: int = 4) -> dict:
    """Fault-campaign throughput: serial vs parallel, cold vs warm.

    Runs the same stratified fault sample three ways — serial with an
    empty cache, parallel with an empty cache, and parallel again over
    the parallel run's populated cache — and reports faults/second plus
    the simulations each mode actually performed (the warm mode must
    report zero).  Caches live in a temporary directory so the numbers
    never alias a developer's real result cache.
    """
    import os
    import tempfile

    from repro.analysis.runner import experiment_config
    from repro.common.config import DMRConfig
    from repro.faults.campaign import CampaignEngine, CampaignSpec
    from repro.faults.sampler import FaultSampler

    config = experiment_config(num_sms=1)
    spec = CampaignSpec(workload=workload, config=config,
                        dmr=DMRConfig.paper_default(), scale=scale,
                        seed=seed)
    horizon = CampaignEngine(spec).golden_result().cycles
    faults = FaultSampler(config, windows=windows).sample(
        samples, horizon, seed=seed)

    payload: Dict[str, object] = {
        "benchmark": "fault-campaign",
        "python": platform.python_version(),
        "machine": platform.machine(),
        "cpus": os.cpu_count() or 1,
        "workload": workload,
        "samples": len(faults),
        "scale": scale,
        "seed": seed,
        "workers": parallel,
    }
    modes: Dict[str, dict] = {}
    with tempfile.TemporaryDirectory() as tmp:
        parallel_dir = os.path.join(tmp, "parallel")
        plan = (
            ("serial_cold", 1, os.path.join(tmp, "serial")),
            ("parallel_cold", parallel, parallel_dir),
            ("parallel_warm", parallel, parallel_dir),
        )
        for mode, jobs, cache_dir in plan:
            engine = CampaignEngine(spec, cache=cache_dir, jobs=jobs)
            engine.golden_output()  # baseline outside the timed region
            start = time.perf_counter()
            result = engine.run(faults)
            seconds = time.perf_counter() - start
            modes[mode] = {
                "seconds": seconds,
                "faults_per_s": len(faults) / seconds,
                "simulations": engine.simulations,
                "outcomes": result.summary(),
            }
    payload["modes"] = modes
    payload["parallel_speedup"] = (modes["serial_cold"]["seconds"]
                                   / modes["parallel_cold"]["seconds"])
    return payload


def run_bench(scale: float = 0.5, seed: int = 0, iters: int = 200,
              quick: bool = False) -> dict:
    """Full benchmark sweep; returns the ``BENCH_exec.json`` payload."""
    payload = {
        "benchmark": "exec-engine",
        "python": platform.python_version(),
        "machine": platform.machine(),
        "scale": scale,
        "seed": seed,
        "engines": list(ENGINES),
        "schedule_seed": GPUConfig().schedule_seed,
        "throughput_repeats": THROUGHPUT_REPEATS,
        "throughput": bench_throughput(iters=iters),
    }
    if not quick:
        payload["workloads"] = bench_workloads(scale=scale, seed=seed)
        # figures regenerate at the requested scale too: the vectorized
        # fraction (and thus the speedup) grows with kernel size, so
        # capping the scale would understate the everyday-analysis win
        payload["figures"] = bench_fig9b(scale=scale, seed=seed)
    return payload


def format_bench(payload: dict) -> str:
    """Human-readable rendering of a benchmark payload."""
    from repro.analysis.report import format_table

    sections: List[str] = []
    rows = [
        [name,
         f"{entry['scalar']['minst_per_s']:.2f}",
         f"{entry['fast']['minst_per_s']:.2f}",
         f"{entry['speedup']:.2f}x"]
        for name, entry in payload["throughput"].items()
    ]
    sections.append(format_table(
        ["kernel", "scalar Minst/s", "fast Minst/s", "fast/scalar"], rows,
        title="Instruction throughput (full warps, no divergence)",
    ))
    for key, title in (("workloads", "Workload wall-clock"),
                       ("figures", "Figure regeneration (cold cache)")):
        if key not in payload:
            continue
        rows = [
            [name,
             f"{entry['scalar']['seconds'] * 1000:.1f}",
             f"{entry['fast']['seconds'] * 1000:.1f}",
             f"{entry['speedup']:.2f}x"]
            for name, entry in payload[key].items()
        ]
        sections.append(format_table(
            ["name", "scalar ms", "fast ms", "fast/scalar"],
            rows, title=title,
        ))
    return "\n\n".join(sections)


def write_bench_json(payload: dict, path: str = "BENCH_exec.json") -> str:
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)
        handle.write("\n")
    return path
