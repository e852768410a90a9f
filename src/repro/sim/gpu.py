"""GPU top level: block dispatch across SMs and result collection.

SMs in this model do not interact (no shared L2/interconnect model, and
the workloads use no inter-block synchronization), so thread blocks are
statically dealt to SMs round-robin and each SM is simulated to
completion independently; kernel latency is the slowest SM's cycle
count.  This matches the paper's abstraction level — its evaluation
only consumes per-SM issue streams and total kernel cycles.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional

from repro.common.config import DMRConfig, GPUConfig, LaunchConfig, MappingPolicy
from repro.common.errors import SimulationError
from repro.obs import ObsSession, resolve_obs
from repro.obs.metrics import MetricsRegistry
from repro.sim import replay
from repro.sim.events import IssueEvent
from repro.sim.executor import FaultHook
from repro.sim.memory import GlobalMemory
from repro.sim.sm import DEFAULT_MAX_CYCLES, SM

#: the executor counters :attr:`KernelResult.engine_issues` sums
ENGINE_COUNTERS = ("vector", "scalar", "replayed")


@dataclass
class KernelResult:
    """Outcome of one kernel launch."""

    program_name: str
    cycles: int
    per_sm_cycles: List[int]
    stats: MetricsRegistry
    memory: GlobalMemory
    detections: List = field(default_factory=list)
    clock_period_ns: float = 1.25
    #: observability snapshot payload (plain data; None when obs was off).
    #: Rides the cache/IPC payload so warm hits replay metrics without
    #: re-simulating.
    obs: Optional[dict] = None
    #: issues per engine (:data:`ENGINE_COUNTERS`), summed over the SMs:
    #: a diagnostic of how the launch ran, never part of the payload
    #: (empty on a result rebuilt from one)
    engine_issues: Dict[str, int] = field(default_factory=dict)

    @property
    def coverage(self):
        """Measured :class:`repro.core.coverage.CoverageReport`."""
        from repro.core.coverage import CoverageReport  # sim must not
        # import core at module scope (core builds on sim)
        return CoverageReport.from_stats(self.stats)

    @property
    def kernel_time_s(self) -> float:
        """Wall-clock kernel time at the modeled clock."""
        return self.cycles * self.clock_period_ns * 1e-9

    @property
    def instructions_issued(self) -> int:
        return self.stats.value("instructions_issued")

    def to_payload(self) -> dict:
        """Canonical plain-data form for caching and IPC.

        Deterministic: two equal results (same simulation) produce
        byte-identical pickles of this payload, which the determinism
        tests rely on.  Everything inside is built-in Python data, so a
        payload round-trips through pickle across worker processes and
        cache files without importing simulator classes.
        """
        return {
            "program_name": self.program_name,
            "cycles": self.cycles,
            "per_sm_cycles": list(self.per_sm_cycles),
            "stats": self.stats.to_payload(),
            "memory": self.memory.to_payload(),
            "detections": [event.to_payload() for event in self.detections],
            "clock_period_ns": self.clock_period_ns,
            "obs": self.obs,
        }

    @classmethod
    def from_payload(cls, payload: dict) -> "KernelResult":
        from repro.core.comparator import DetectionEvent  # sim must not
        # import core at module scope (core builds on sim)
        return cls(
            program_name=payload["program_name"],
            cycles=payload["cycles"],
            per_sm_cycles=list(payload["per_sm_cycles"]),
            stats=MetricsRegistry.from_payload(payload["stats"]),
            memory=GlobalMemory.from_payload(payload["memory"]),
            detections=[DetectionEvent.from_payload(entry)
                        for entry in payload["detections"]],
            clock_period_ns=payload["clock_period_ns"],
            obs=payload.get("obs"),
        )

    def __repr__(self) -> str:
        return (
            f"KernelResult({self.program_name!r}, cycles={self.cycles}, "
            f"insts={self.instructions_issued}, "
            f"detections={len(self.detections)})"
        )


class GPU:
    """A simulated GPGPU chip with optional Warped-DMR."""

    def __init__(
        self,
        config: Optional[GPUConfig] = None,
        dmr: Optional[DMRConfig] = None,
        fault_hook: Optional[FaultHook] = None,
        max_cycles: int = DEFAULT_MAX_CYCLES,
        obs: object = False,
    ) -> None:
        self.config = config or GPUConfig.paper_baseline()
        self.dmr = dmr or DMRConfig.disabled()
        self.fault_hook = fault_hook
        self.max_cycles = max_cycles
        # observability: an ObsSession, a mode string ("metrics"/
        # "trace"), True, or None to defer to $REPRO_OBS.  False (the
        # default) disables it outright: no probes are created and the
        # issue loop's only cost is one `is not None` check per tick.
        self.obs: Optional[ObsSession] = resolve_obs(obs)

    def launch(
        self,
        program,
        launch: LaunchConfig,
        memory: Optional[GlobalMemory] = None,
        issue_listener: Optional[Callable[[IssueEvent], None]] = None,
        block_ids: Optional[List[int]] = None,
        controller_factory: Optional[Callable] = None,
    ) -> KernelResult:
        """Run *program* over the launch grid and return merged results.

        ``block_ids`` overrides the dispatched block list (default
        ``range(grid_dim)``); repeating an id launches a redundant copy
        of that block — the R-Thread baseline uses this.
        ``controller_factory(stats) -> controller`` overrides the
        per-SM DMR controller (the DMTR baseline uses this); when given
        it is attached regardless of the DMRConfig.

        A timing-only launch on the ``fast`` engine records its control
        flow the first time its key is seen and replays it afterwards
        (:mod:`repro.sim.replay`); ``KernelResult.engine_issues`` says
        how each issue ran.
        """
        # Late imports: the sim substrate must stay importable without
        # the core (Warped-DMR) layer, which itself builds on sim.
        from repro.core.dmr_controller import DMRController
        from repro.core.mapping import lane_permutation

        cfg = self.config
        memory = memory or GlobalMemory()

        mapping = self.dmr.mapping if self.dmr.enabled else MappingPolicy.IN_ORDER
        lane_of_slot = lane_permutation(
            mapping, cfg.warp_size, cfg.cluster_size
        )

        # Static round-robin block dispatch: the block at dispatch
        # position p runs on SM p mod num_sms.
        dispatch = list(block_ids) if block_ids is not None else list(
            range(launch.grid_dim)
        )
        positions_of_sm: List[List[int]] = [[] for _ in range(cfg.num_sms)]
        for position in range(len(dispatch)):
            positions_of_sm[position % cfg.num_sms].append(position)

        merged = MetricsRegistry()
        per_sm_cycles: List[int] = []
        detections: List = []
        engine_issues = dict.fromkeys(ENGINE_COUNTERS, 0)
        functional_verify = self.fault_hook is not None
        session = self.obs

        # Control-flow replay (repro.sim.replay), decided once per
        # launch: a fast launch with no fault hook, issue listener,
        # tracing or custom controller records its first run of a key
        # and replays the later ones.  The mode picks the SMs'
        # executor, so it is decided from the launch's inputs before any
        # SM is built; SM.lane_values_unread() stays the rule, checked
        # on every SM once attached and before any SM runs.
        flow = None
        if (cfg.engine == "fast" and self.fault_hook is None
                and issue_listener is None and controller_factory is None
                and not (session is not None and session.tracing)):
            flow = replay.plan(program, launch, memory, dispatch, cfg,
                               lane_of_slot)
        sms: List[SM] = []
        for sm_id, positions in enumerate(positions_of_sm):
            if not positions:
                continue
            probe = session.probe(sm_id) if session is not None else None
            sm = SM(
                sm_id=sm_id,
                config=cfg,
                program=program,
                launch=launch,
                block_ids=[dispatch[position] for position in positions],
                global_memory=memory,
                lane_of_slot=lane_of_slot,
                fault_hook=self.fault_hook,
                max_cycles=self.max_cycles,
                probe=probe,
                flow=None if flow is None else flow.share(positions),
            )
            if controller_factory is not None:
                sm.dmr = controller_factory(sm.stats)
            elif self.dmr.enabled:
                sm.dmr = DMRController(
                    gpu_config=cfg,
                    dmr_config=self.dmr,
                    stats=sm.stats,
                    functional_verify=functional_verify,
                    probe=probe,
                )
            if issue_listener is not None:
                sm.add_issue_listener(issue_listener)
            if probe is not None and session.tracing:
                sm.add_issue_listener(probe.on_issue)
            sms.append(sm)
        if flow is not None:
            readers = [sm.sm_id for sm in sms if not sm.lane_values_unread()]
            if readers:
                raise SimulationError(
                    f"SMs {readers} read lane values in a launch that "
                    "records or replays control flow")

        for sm in sms:
            sm.run()
            per_sm_cycles.append(sm.cycle)
            merged.merge(sm.stats)
            if sm.dmr is not None:
                detections.extend(sm.dmr.detections)
            executor = sm.executor
            engine_issues["vector"] += executor.vector_issues
            engine_issues["scalar"] += executor.scalar_issues
            engine_issues["replayed"] += executor.replayed_issues
        if flow is not None:
            flow.finish(memory)

        return KernelResult(
            program_name=program.name,
            cycles=max(per_sm_cycles) if per_sm_cycles else 0,
            per_sm_cycles=per_sm_cycles,
            stats=merged,
            memory=memory,
            detections=detections,
            clock_period_ns=cfg.clock_period_ns,
            obs=(session.snapshot().to_payload()
                 if session is not None else None),
            engine_issues=engine_issues,
        )
