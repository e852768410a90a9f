"""Shared experiment runner: caching, fan-out, and per-run bookkeeping.

Every paper figure consumes the same 11-workload suite under a handful
of DMR configurations, and each (workload, GPUConfig, DMRConfig, scale,
seed) run is an independent pure computation.  :class:`SuiteRunner`
exploits both facts through one
:class:`~repro.analysis.result_cache.CachedFanout`:

* results are cached twice — in memory (object-identity preserved
  within a runner) and optionally in a persistent on-disk
  :class:`~repro.analysis.result_cache.ResultCache` shared across
  processes and invocations;
* distinct cache misses fan out across worker processes
  (:meth:`run_many` / ``run_suite(parallel=N)``) while the single-run
  :meth:`run` API is unchanged.

Workers return :meth:`KernelResult.to_payload` plain data, so the same
serialization path feeds the fan-out and the disk cache, and the
determinism tests can compare results byte-for-byte.
"""

from __future__ import annotations

import os
from typing import Dict, Iterable, List, Optional, Sequence, Tuple, Union

from repro.analysis.result_cache import CachedFanout, ResultCache, result_key
from repro.common.config import DMRConfig, GPUConfig
from repro.obs import MetricSnapshot, aggregate_payloads
from repro.sim.gpu import GPU, KernelResult
from repro.workloads import all_workloads, get_workload

#: One requested simulation: (workload name, DMRConfig, GPUConfig).
RunSpec = Tuple[str, DMRConfig, GPUConfig]


def experiment_config(num_sms: int = 2, **overrides) -> GPUConfig:
    """The standard experiment chip.

    The paper simulates 30 SMs with evaluation-sized inputs; this
    reproduction scales both chip and inputs down together so each SM
    still holds several thread blocks (8-16 warps).  Every measured
    quantity — active-thread histograms, instruction-type streams,
    ReplayQ pressure, coverage — is a per-SM property, so shrinking the
    chip with held occupancy preserves the experiments while keeping a
    pure-Python cycle-level simulation tractable.
    """
    from dataclasses import replace

    return replace(GPUConfig.paper_baseline(), num_sms=num_sms, **overrides)


def default_jobs() -> int:
    """Worker count when parallelism is requested without a number.

    ``$REPRO_JOBS`` wins; otherwise the CPU count capped at 4 — the
    suite has 11 workloads, so more workers mostly pay fork overhead.
    """
    env = os.environ.get("REPRO_JOBS")
    if env:
        return max(1, int(env))
    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:  # platforms without affinity masks
        cpus = os.cpu_count() or 1
    return max(1, min(4, cpus))


def _simulate_payload(args: Tuple[str, DMRConfig, GPUConfig, float, int,
                                  bool, bool]) -> dict:
    """Worker entry point: simulate one spec, return the result payload.

    Module-level so it pickles under any multiprocessing start method;
    returns plain data (not a KernelResult) so the transfer does not
    depend on simulator classes unpickling identically in the parent.
    The obs flag (last element) turns on the metrics registry; the
    snapshot travels back inside the payload's ``obs`` key, which is how
    parallel workers ship metrics to the parent for aggregation.
    """
    name, dmr, config, scale, seed, check_outputs, obs = args
    workload = get_workload(name)
    run = workload.prepare(scale, seed)
    gpu = GPU(config, dmr=dmr, obs=("metrics" if obs else False))
    result = gpu.launch(run.program, run.launch, memory=run.memory)
    if check_outputs:
        run.check(run.memory)
    return result.to_payload()


def _simulate_cell(context: Tuple[float, int, bool, bool],
                   spec: RunSpec) -> dict:
    """Fan-out entry point: one ``(name, dmr, config)`` spec under the
    runner's shared ``(scale, seed, check_outputs, obs)``."""
    return _simulate_payload(spec + context)


def aggregate_metrics(results: Iterable[KernelResult]) -> MetricSnapshot:
    """Merge the obs snapshots of *results* into one fleet-wide snapshot.

    Results without a snapshot (obs-off runs) contribute nothing.  The
    fold iterates in the order given, but merge commutativity makes the
    outcome order-independent — serial and parallel suites aggregate to
    byte-identical snapshots (asserted by the determinism tests).
    """
    return aggregate_payloads(result.obs for result in results)


class SuiteRunner:
    """Runs workloads under varying DMR configurations, caching results.

    Experiments share baseline runs heavily (every figure normalizes to
    the no-DMR run); the cache keys on workload name plus the full run
    configuration — GPU/DMR config fingerprints, ``scale``, ``seed``
    and ``check_outputs`` — so each distinct run simulates once.

    ``cache`` selects the persistent layer (``None``/``False``, ``True``,
    a path, or a ready :class:`ResultCache`, as
    :class:`~repro.analysis.result_cache.CachedFanout` resolves it).
    ``jobs`` sets the default fan-out for :meth:`run_many` /
    :meth:`run_suite` (1 = serial in-process).  The execution engine
    is the run's ``GPUConfig.engine``, so it keys like any config field.
    What a parallel fan-out absorbed (retries, timeouts, worker deaths)
    lands in the runner's harness registry (:meth:`harness_snapshot`);
    ``fanout`` is the runner's :class:`CachedFanout`.
    """

    def __init__(self, config: Optional[GPUConfig] = None,
                 scale: float = 1.0, seed: int = 0,
                 check_outputs: bool = True,
                 cache: Union[None, bool, str, os.PathLike,
                              ResultCache] = None,
                 jobs: int = 1, obs: bool = False) -> None:
        self.config = config or experiment_config()
        self.scale = scale
        self.seed = seed
        self.check_outputs = check_outputs
        self.obs = bool(obs)
        self.jobs = max(1, jobs)
        self.fanout = CachedFanout(_simulate_cell, KernelResult.from_payload,
                                   cache)
        self.harness = self.fanout.harness
        self.persistent_cache = self.fanout.cache

    @property
    def simulations(self) -> int:
        """Runs actually executed (here or in fan-out workers)."""
        return self.fanout.simulations

    # ------------------------------------------------------------------
    def _key(self, name: str, dmr: DMRConfig, config: GPUConfig) -> str:
        """Content address of one run.

        Must cover every input of the simulation — in particular
        ``scale``, ``seed`` and ``check_outputs``: omitting them would
        alias two runners' entries once the cache persists across
        processes.
        """
        return result_key(name, dmr, config, self.scale, self.seed,
                          self.check_outputs, self.obs)

    def _spec(self, name: str, dmr: Optional[DMRConfig],
              config: Optional[GPUConfig]) -> RunSpec:
        return (name, dmr or DMRConfig.disabled(), config or self.config)

    def _context(self) -> Tuple[float, int, bool, bool]:
        return (self.scale, self.seed, self.check_outputs, self.obs)

    # ------------------------------------------------------------------
    def run(self, name: str, dmr: Optional[DMRConfig] = None,
            config: Optional[GPUConfig] = None) -> KernelResult:
        """Run (or fetch the cached run of) one workload."""
        spec = self._spec(name, dmr, config)
        key = self._key(*spec)
        result = self.fanout.memory.get(key)
        if result is None:
            result = self.fanout.run([key], [spec], self._context)[0]
        return result

    def baseline(self, name: str) -> KernelResult:
        """The zero-error-detection run used for normalization."""
        return self.run(name, DMRConfig.disabled())

    # ------------------------------------------------------------------
    def run_many(self, specs: Sequence[Tuple], *,
                 parallel: Optional[int] = None) -> List[KernelResult]:
        """Run every ``(name, dmr, config)`` spec, fanning misses out.

        Specs may abbreviate to ``(name,)`` or ``(name, dmr)``; ``None``
        entries mean the runner defaults, as in :meth:`run`.  Duplicate
        keys simulate once.  Results come back in spec order.  With
        ``parallel`` (or ``self.jobs``) > 1 and more than one miss, the
        misses fan out across worker processes.
        """
        resolved = [self._spec(spec[0], spec[1] if len(spec) > 1 else None,
                               spec[2] if len(spec) > 2 else None)
                    for spec in specs]
        return self.fanout.run(
            [self._key(*spec) for spec in resolved], resolved,
            self._context, self.jobs if parallel is None else parallel)

    def prefetch(self, specs: Iterable[Tuple], *,
                 parallel: Optional[int] = None) -> None:
        """Warm the cache for *specs* (parallel when configured).

        The figure drivers call this up front with every run they are
        about to request, then keep their readable serial loops — which
        become pure cache hits.
        """
        self.run_many(list(specs), parallel=parallel)

    def run_suite(self, dmr: Optional[DMRConfig] = None,
                  config: Optional[GPUConfig] = None, *,
                  parallel: Optional[int] = None) -> Dict[str, KernelResult]:
        """All 11 workloads under one configuration, in paper order."""
        names = list(all_workloads())
        results = self.run_many(
            [(name, dmr, config) for name in names], parallel=parallel
        )
        return dict(zip(names, results))

    # ------------------------------------------------------------------
    def harness_snapshot(self) -> MetricSnapshot:
        """Harness counters accumulated by this runner."""
        return self.fanout.harness_snapshot()

    def cache_summary(self) -> str:
        """One-line accounting, printed to stderr by the CLI."""
        return self.fanout.cache_summary()
