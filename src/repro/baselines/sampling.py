"""Sampling-DMR (related work [15], Nomura et al., ISCA 2011).

The paper contrasts Warped-DMR with *sampling* DMR: redundant execution
runs only for a short window within each epoch, which eventually
catches permanent faults but can miss transients entirely.  This
implementation wraps the real Warped-DMR controller and gates it on a
cycle window, giving the coverage-vs-overhead tradeoff curve the
related-work argument implies:

* within the sampled window, behaviour is exactly Warped-DMR;
* outside it, instructions issue unverified (and the ReplayQ drains),
  though the SM still counts their eligible lanes.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from repro.common.config import DMRConfig, GPUConfig
from repro.common.errors import ConfigError
from repro.obs.metrics import MetricsRegistry
from repro.core.dmr_controller import DMRController
from repro.sim.events import IssueEvent
from repro.sim.executor import Executor


class SamplingDMRController:
    """Warped-DMR active only ``sample_cycles`` out of every
    ``epoch_cycles`` (paper related-work Section 6, [15])."""

    def __init__(
        self,
        gpu_config: GPUConfig,
        dmr_config: DMRConfig,
        stats: MetricsRegistry,
        epoch_cycles: int = 1000,
        sample_cycles: int = 100,
    ) -> None:
        if epoch_cycles <= 0 or not 0 < sample_cycles <= epoch_cycles:
            raise ConfigError(
                "need 0 < sample_cycles <= epoch_cycles, got "
                f"{sample_cycles}/{epoch_cycles}"
            )
        self.epoch_cycles = epoch_cycles
        self.sample_cycles = sample_cycles
        self.stats = stats
        self._inner = DMRController(
            gpu_config=gpu_config,
            dmr_config=dmr_config,
            stats=stats,
        )

    # ------------------------------------------------------------------
    def _sampling(self, cycle: int) -> bool:
        return (cycle % self.epoch_cycles) < self.sample_cycles

    def check_raw(self, warp_id: int, srcs: Tuple[int, ...]) -> int:
        # buffered entries still satisfy the RAW rule even between
        # windows: an unverified result must not be consumed silently
        return self._inner.check_raw(warp_id, srcs)

    def on_issue(self, event: IssueEvent, executor: Executor) -> int:
        if self._sampling(event.cycle):
            self.stats.inc("sampling_window_issues")
            return self._inner.on_issue(event, executor)
        # outside the window: unprotected issue; give the checker the
        # cycle as an idle slot so leftover ReplayQ entries drain
        self.stats.inc("sampling_skipped_issues")
        self._inner.on_idle(event.cycle)
        return 0

    def on_idle(self, cycle: int) -> None:
        self._inner.on_idle(cycle)

    def quiescent(self) -> bool:
        return self._inner.quiescent()

    def on_kernel_end(self, cycle: int) -> int:
        return self._inner.on_kernel_end(cycle)

    @property
    def detections(self) -> List:
        return self._inner.detections


def sampling_factory(gpu_config: GPUConfig,
                     dmr_config: Optional[DMRConfig] = None,
                     epoch_cycles: int = 1000,
                     sample_cycles: int = 100):
    """A ``controller_factory`` for :meth:`repro.sim.gpu.GPU.launch`."""
    dmr_config = dmr_config or DMRConfig.paper_default()

    def factory(stats: MetricsRegistry) -> SamplingDMRController:
        return SamplingDMRController(
            gpu_config=gpu_config,
            dmr_config=dmr_config,
            stats=stats,
            epoch_cycles=epoch_cycles,
            sample_cycles=sample_cycles,
        )

    return factory
