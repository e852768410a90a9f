"""Pipeline probes: the hooks the simulator calls when observability is on.

One :class:`PipelineProbe` per SM, created by
:meth:`repro.obs.ObsSession.probe`.  The probe is the *only* obs object
the hot loops ever see, and they see it behind a single ``is not None``
check — when observability is off there is no probe, no registry call,
no branch beyond that one comparison.  (No null-object registry
stands in for it: a no-op method call per cycle is still a call.)

Events are duck-typed: the probe reads ``cycle`` / ``sm_id`` /
``warp_id`` / ``pc`` and the instruction's opcode/unit off whatever
issue-event object the SM passes, so :mod:`repro.obs` depends only on
the standard library and never imports the simulator (the layering test
in ``tests/test_public_api.py`` holds ``repro.sim`` free of ``repro.core``
imports; ``repro.obs`` sits below both).
"""

from __future__ import annotations

from typing import Callable, Optional

from repro.obs.metrics import MetricsRegistry
from repro.obs.tracer import Tracer

#: fixed buckets for resident-warp occupancy (paper SM: up to 48 warps)
OCCUPANCY_BOUNDS = (0, 1, 2, 4, 6, 8, 12, 16, 24, 32, 48)

#: fixed buckets for ReplayQ depth (paper sweep tops out at 10 entries)
DEPTH_BOUNDS = (0, 1, 2, 3, 4, 5, 6, 8, 10, 16)

#: fixed buckets for scheduler scan depth (warps inspected per pick)
SCAN_BOUNDS = (0, 1, 2, 3, 4, 6, 8, 12, 16, 24, 32, 48)


class PipelineProbe:
    """Per-SM recorder of pipeline behavior into a shared registry."""

    __slots__ = ("registry", "sm_id", "tracer", "_queue_depth",
                 "_last_depth")

    def __init__(self, registry: MetricsRegistry, sm_id: int,
                 tracer: Optional[Tracer] = None) -> None:
        self.registry = registry
        self.sm_id = sm_id
        self.tracer = tracer
        self._queue_depth: Optional[Callable[[], int]] = None
        self._last_depth: Optional[int] = None
        if tracer is not None:
            tracer.process_name(sm_id, f"SM {sm_id}")

    # -- wiring --------------------------------------------------------
    def bind_queue_depth(self, fn: Callable[[], int]) -> None:
        """Attach the ReplayQ occupancy getter (per-cycle sampling)."""
        self._queue_depth = fn

    # -- per-cycle hooks (SM issue loop) -------------------------------
    def on_cycle(self, cycle: int, resident_warps: int,
                 count: int = 1) -> None:
        """Start-of-tick sample: warp occupancy and ReplayQ depth.

        *count* > 1 replays the sample for a span of ticks the SM
        burned in bulk (stall runs, event-driven cycle skipping) over
        which the sampled levels are provably constant; the resulting
        summaries are identical to *count* individual calls.
        """
        registry = self.registry
        registry.set_gauge("warp_occupancy", resident_warps, count)
        registry.sample("warp_occupancy", OCCUPANCY_BOUNDS, resident_warps,
                        count)
        if self._queue_depth is not None:
            depth = self._queue_depth()
            registry.set_gauge("replayq_depth", depth, count)
            registry.sample("replayq_depth", DEPTH_BOUNDS, depth, count)
            if self.tracer is not None and depth != self._last_depth:
                self.tracer.counter(self.sm_id, "ReplayQ depth", cycle,
                                    {"entries": depth})
                self._last_depth = depth

    def on_issue(self, event) -> None:
        """One warp-instruction issued (also the SM's issue listener)."""
        if self.tracer is None:
            return
        inst = event.instruction
        self.tracer.thread_name(self.sm_id, event.warp_id,
                                f"warp {event.warp_id}")
        self.tracer.duration(
            self.sm_id, event.warp_id, inst.opcode.value,
            ts=event.cycle, dur=1,
            args={"pc": event.pc, "unit": inst.unit.value,
                  "active": event.active_count},
        )

    def on_stall(self, cause: str, cycles: int, cycle: int) -> None:
        """The pipeline charged *cycles* of stall attributed to *cause*."""
        self.registry.inc(f"stall_{cause}", cycles)
        if self.tracer is not None:
            self.tracer.instant(self.sm_id, 0, f"stall:{cause}", cycle,
                                args={"cycles": cycles}, cat="stall")

    # -- scheduler hooks -----------------------------------------------
    def on_schedule(self, scanned: int, found: bool,
                    count: int = 1) -> None:
        """A scheduler pick finished after inspecting *scanned* warps.

        *count* > 1 replays identical no-pick outcomes for a skipped
        idle span (every policy scans all warps on a miss and its
        no-pick state is idempotent, so the calls are interchangeable).
        """
        registry = self.registry
        registry.sample("sched_scan_depth", SCAN_BOUNDS, scanned, count)
        if not found:
            registry.inc("sched_no_ready", count)

    # -- DMR hooks -----------------------------------------------------
    def on_intra_pairing(self, event, verified_lanes: int,
                         redundant_executions: int) -> None:
        """Intra-warp RFU pairing verified *verified_lanes* this issue."""
        registry = self.registry
        registry.inc("dmr_pair_intra")
        registry.inc("dmr_pair_intra_lanes", verified_lanes)
        # every RFU pair runs the copy on a *different* lane by design
        registry.inc("dmr_shuffled_pairs", redundant_executions)
        if self.tracer is not None:
            self.tracer.instant(
                self.sm_id, event.warp_id, "intra-DMR", event.cycle,
                args={"verified_lanes": verified_lanes,
                      "redundant": redundant_executions},
            )

    def on_inter_verify(self, event, how: str, cycle: int,
                        shuffled: bool) -> None:
        """The Replay Checker verified one instruction via path *how*."""
        registry = self.registry
        registry.inc("dmr_pair_inter")
        registry.inc(f"dmr_inter_{how}")
        registry.inc("dmr_pair_inter_lanes", event.active_count)
        if shuffled:
            registry.inc("dmr_shuffled_pairs", event.active_count)
        if self.tracer is not None:
            self.tracer.instant(
                self.sm_id, event.warp_id, f"inter-DMR:{how}", cycle,
                args={"pc": event.pc, "lanes": event.active_count,
                      "shuffled": shuffled},
            )

    def on_enqueue(self, event, depth: int) -> None:
        """An unverified instruction entered the ReplayQ (now *depth*)."""
        self.registry.inc("dmr_enqueues")
        if self.tracer is not None:
            self.tracer.instant(
                self.sm_id, event.warp_id, "ReplayQ enqueue", event.cycle,
                args={"pc": event.pc, "depth": depth},
            )

    def __repr__(self) -> str:
        return (f"PipelineProbe(sm={self.sm_id}, "
                f"tracing={self.tracer is not None})")
