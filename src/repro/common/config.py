"""Configuration dataclasses for the simulated GPU and Warped-DMR.

:class:`GPUConfig` mirrors the paper's Table 3 simulation parameters;
:class:`DMRConfig` collects every knob the evaluation sweeps (SIMT
cluster size, thread-to-core mapping, ReplayQ capacity, lane shuffling).
Both are frozen dataclasses: a configuration is a value, never mutated
mid-simulation.
"""

from __future__ import annotations

import dataclasses
import enum
import json
import operator
import os
from dataclasses import dataclass, replace
from typing import Any, Callable, Dict, Optional

from repro.common.errors import ConfigError

#: field getters of the config classes whose canonical text is
#: memoized (filled in below the class definitions)
_CONFIG_FIELDS: Dict[type, Callable[[Any], tuple]] = {}

#: canonical JSON text of each config value this process fingerprinted
_CONFIG_TEXTS: Dict[tuple, "_Text"] = {}

#: memo entries kept before it starts over (a process meets tens of
#: distinct configs; the bound only caps a pathological sweep)
_CONFIG_TEXTS_MAX = 4096

#: types whose values are their own canonical form
_PLAIN_TYPES = frozenset((str, int, bool, type(None)))

_encode_str = json.encoder.encode_basestring_ascii


class _Text(str):
    """Canonical JSON text, spliced into a fingerprint verbatim."""


def _config_text(value: Any) -> _Text:
    """The canonical JSON text of a :class:`GPUConfig` or
    :class:`DMRConfig`, built once per distinct value per process.

    The memo is keyed by the class and by each field's type and
    ``repr``, never by the config itself: configs that compare equal
    can still fingerprint apart (``1 == 1.0 == True`` and
    ``0.0 == -0.0``), and a key that conflated them would serve one's
    fingerprint for the other.
    """
    values = _CONFIG_FIELDS[type(value)](value)
    key = (type(value), tuple(map(type, values)), tuple(map(repr, values)))
    text = _CONFIG_TEXTS.get(key)
    if text is None:
        if len(_CONFIG_TEXTS) >= _CONFIG_TEXTS_MAX:
            _CONFIG_TEXTS.clear()
        text = _CONFIG_TEXTS[key] = _Text(
            _encode(_canonical_dataclass(value)))
    return text


def _canonical_dataclass(value: Any) -> Dict[str, Any]:
    out: Dict[str, Any] = {"__type__": type(value).__name__}
    for field in dataclasses.fields(value):
        out[field.name] = _canonicalize(getattr(value, field.name))
    return out


def _canonicalize(value: Any) -> Any:
    """Reduce *value* to a JSON-able form with a stable text rendering.

    Every distinct configuration value must map to a distinct canonical
    form: enums carry their class and member name, floats their exact
    bit pattern (``float.hex`` — ``repr`` rounding could conflate two
    near-equal latencies), and dataclasses their type name plus every
    field, so adding a field to a config automatically changes its
    fingerprint.  A :class:`GPUConfig` or :class:`DMRConfig` reduces
    to its memoized text (:func:`_config_text`).
    """
    if type(value) in _PLAIN_TYPES:
        return value
    if type(value) in _CONFIG_FIELDS:
        return _config_text(value)
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        return _canonical_dataclass(value)
    if isinstance(value, enum.Enum):
        return f"{type(value).__name__}.{value.name}"
    if isinstance(value, bool) or value is None or isinstance(value, (int, str)):
        return value
    if isinstance(value, float):
        return value.hex()
    if isinstance(value, (list, tuple)):
        return [_canonicalize(item) for item in value]
    if isinstance(value, dict):
        return {str(key): _canonicalize(val) for key, val in value.items()}
    raise ConfigError(f"cannot fingerprint value of type {type(value).__name__}")


def _encode(canonical: Any) -> str:
    """``json.dumps(canonical, sort_keys=True, separators=(",", ":"))``
    for a canonical form (which holds no floats), splicing
    :class:`_Text` verbatim."""
    if type(canonical) is _Text:
        return canonical
    if isinstance(canonical, str):
        return _encode_str(canonical)
    if canonical is None:
        return "null"
    if canonical is True:
        return "true"
    if canonical is False:
        return "false"
    if isinstance(canonical, int):
        return int.__repr__(canonical)
    if isinstance(canonical, list):
        return "[" + ",".join(map(_encode, canonical)) + "]"
    return "{" + ",".join(_encode_str(key) + ":" + _encode(canonical[key])
                          for key in sorted(canonical)) + "}"


def config_fingerprint(value: Any) -> str:
    """Canonical string form of a configuration value.

    Two configurations produce the same fingerprint iff they are equal;
    the persistent result cache builds its keys from these strings (see
    :mod:`repro.analysis.result_cache`).  The text is the compact,
    key-sorted JSON of :func:`_canonicalize`'s form.
    """
    return str(_encode(_canonicalize(value)))


class MappingPolicy(enum.Enum):
    """Thread-to-core mapping policy (paper Section 4.2).

    ``IN_ORDER``
        The believed-default mapping: thread ``i`` of a warp runs on SIMT
        lane ``i``, so consecutive threads share a SIMT cluster.
    ``CROSS``
        The paper's enhanced mapping: threads are dealt to SIMT clusters
        round-robin (thread 0 → cluster 0, thread 1 → cluster 1, ...),
        spreading consecutive active threads across clusters and raising
        intra-warp DMR opportunity.
    """

    IN_ORDER = "in_order"
    CROSS = "cross"


class SchedulerPolicy(enum.Enum):
    """Warp scheduler policy for the single per-SM scheduler."""

    ROUND_ROBIN = "rr"
    GREEDY_THEN_OLDEST = "gto"


#: how the host executes a simulation.  ``fast`` vectorizes each issue
#: (:mod:`repro.sim.vexec`) and replays the recorded control flow of
#: certified race-free launches in timing-only runs
#: (:mod:`repro.sim.replay`); ``scalar`` is the per-lane interpreter,
#: the differential oracle.  A speed choice only: both produce
#: byte-identical results.
ENGINE_NAMES = ("fast", "scalar")


def _default_engine() -> str:
    """``$REPRO_EXEC``, else ``fast``: the engine of a config built
    without one."""
    return os.environ.get("REPRO_EXEC") or "fast"


@dataclass(frozen=True)
class GPUConfig:
    """Static parameters of the simulated GPU (paper Table 3 + Section 2).

    The defaults model the paper's baseline: a Fermi-style chip with 30
    SMs, 32-wide SIMT, warps of 32 threads, 32 register banks per SM and
    4-lane SIMT clusters.
    """

    num_sms: int = 30
    warp_size: int = 32
    simt_width: int = 32
    max_threads_per_sm: int = 1024
    num_register_banks: int = 32
    register_file_bytes: int = 64 * 1024
    shared_memory_bytes: int = 64 * 1024
    cluster_size: int = 4

    # Pipeline latencies (paper Figure 7): FETCH 1, DEC/SCHED 1-2, RF 3,
    # EXE >= 3 super-pipelined cycles.
    fetch_latency: int = 1
    decode_latency: int = 1
    rf_latency: int = 3
    sp_latency: int = 4
    sfu_latency: int = 8
    ldst_shared_latency: int = 4
    ldst_global_latency: int = 40

    clock_period_ns: float = 1.25  # 800 MHz, 40 nm (paper Section 4.1)
    scheduler: SchedulerPolicy = SchedulerPolicy.ROUND_ROBIN

    # Stateless schedule exploration (GPUMC-style).  When set, every
    # scheduler decision picks uniformly among all issuable warps using
    # a counter-indexed hash of this seed, so a seed names exactly one
    # member of the space of legal interleavings and the whole schedule
    # is reproducible from (config, seed) alone.  None keeps the
    # deterministic policy-driven schedule above.
    schedule_seed: Optional[int] = None

    # Schedulers per SM (paper Section 2.2): the baseline evaluates 1;
    # Fermi-class SMs have 2, each owning its SP group but sharing the
    # LD/ST units and SFUs — so two instructions co-issue per cycle
    # unless both need the same shared unit.  Warps are assigned to
    # schedulers by warp-id parity, as on real hardware.
    num_schedulers: int = 1

    # Charge issue cycles for register-bank conflicts (Section 2.1).
    # Off by default: the paper's baseline assumes operand buffering
    # hides the multi-cycle fetch; enabling this gives the pessimistic
    # bound (one cycle per serialized bank access).
    model_bank_conflicts: bool = False

    # Execution engine (see ENGINE_NAMES), read from $REPRO_EXEC once
    # when the config is built.  The only engine selector: every cache
    # key and durable job spec fingerprints the config, so each names
    # the engine that ran.
    engine: str = dataclasses.field(default_factory=_default_engine)

    # Event-driven cycle skipping: when every resident warp is stalled
    # (latency, ReplayQ drain, barrier), the SM jumps its cycle counter
    # to the next wakeup instead of ticking idle cycles one by one.
    # Bit-identical by construction — skipped spans charge the same
    # stall/idle counters and probe samples the burned cycles would have
    # (asserted by the cycle-skip invariance tests) — so this is a pure
    # speed knob; it is auto-disabled under Chrome tracing, which records
    # per-cycle instants.
    cycle_skip: bool = True

    # Cycles between successive warps' first issue.  Real SMs never have
    # their warps aligned (fetch/decode contention and memory-latency
    # jitter stagger them); without this, a lock-step round-robin
    # scheduler runs every warp through the same program phase
    # simultaneously, producing same-unit-type issue runs hundreds long
    # where hardware measures <= 20 (paper Figure 8(a)).  The default
    # spreads adjacent warps about one loop body apart.
    warp_start_stagger: int = 37

    def __post_init__(self) -> None:
        if self.warp_size <= 0:
            raise ConfigError(f"warp_size must be positive, got {self.warp_size}")
        if self.simt_width != self.warp_size:
            raise ConfigError(
                "this model issues a whole warp per cycle; simt_width "
                f"({self.simt_width}) must equal warp_size ({self.warp_size})"
            )
        if self.cluster_size <= 0 or self.warp_size % self.cluster_size:
            raise ConfigError(
                f"cluster_size {self.cluster_size} must evenly divide "
                f"warp_size {self.warp_size}"
            )
        if self.num_sms <= 0:
            raise ConfigError(f"num_sms must be positive, got {self.num_sms}")
        if self.max_threads_per_sm % self.warp_size:
            raise ConfigError(
                f"max_threads_per_sm ({self.max_threads_per_sm}) must be a "
                f"multiple of warp_size ({self.warp_size})"
            )
        for name in ("fetch_latency", "decode_latency", "rf_latency",
                     "sp_latency", "sfu_latency", "ldst_shared_latency",
                     "ldst_global_latency"):
            if getattr(self, name) <= 0:
                raise ConfigError(f"{name} must be positive")
        if self.warp_start_stagger < 0:
            raise ConfigError("warp_start_stagger must be >= 0")
        if self.num_schedulers not in (1, 2):
            raise ConfigError(
                f"num_schedulers must be 1 or 2, got {self.num_schedulers}"
            )
        if self.schedule_seed is not None and self.schedule_seed < 0:
            raise ConfigError(
                f"schedule_seed must be >= 0 or None, got {self.schedule_seed}"
            )
        if self.engine not in ENGINE_NAMES:
            raise ConfigError(
                f"unknown execution engine {self.engine!r}; expected one "
                f"of {ENGINE_NAMES}"
            )
        if not isinstance(self.cycle_skip, bool):
            raise ConfigError(
                f"cycle_skip must be a bool, got {self.cycle_skip!r}"
            )

    @property
    def clusters_per_warp(self) -> int:
        """Number of SIMT clusters spanned by one warp (paper: 8)."""
        return self.warp_size // self.cluster_size

    @property
    def max_warps_per_sm(self) -> int:
        """Maximum resident warps per SM (paper: 1024/32 = 32)."""
        return self.max_threads_per_sm // self.warp_size

    @classmethod
    def paper_baseline(cls) -> "GPUConfig":
        """The exact Table 3 configuration."""
        return cls()

    @classmethod
    def small(cls, num_sms: int = 2) -> "GPUConfig":
        """A reduced configuration for fast unit tests."""
        return cls(num_sms=num_sms)

    def with_cluster_size(self, cluster_size: int) -> "GPUConfig":
        """Return a copy with a different SIMT cluster size (Fig 9a sweep)."""
        return replace(self, cluster_size=cluster_size)

    def with_schedule_seed(self, seed: Optional[int]) -> "GPUConfig":
        """Return a copy exploring the interleaving named by *seed*."""
        return replace(self, schedule_seed=seed)

    def to_dict(self) -> Dict[str, Any]:
        """Flat dict form, convenient for experiment logs."""
        out: Dict[str, Any] = {}
        for name in self.__dataclass_fields__:
            value = getattr(self, name)
            out[name] = value.value if isinstance(value, enum.Enum) else value
        return out

    def fingerprint(self) -> str:
        """Canonical cache-key form covering every field."""
        return config_fingerprint(self)


@dataclass(frozen=True)
class DMRConfig:
    """Warped-DMR configuration knobs (paper Sections 3-4).

    ``enabled``
        Master switch; disabled gives the zero-error-detection baseline.
    ``replayq_entries``
        ReplayQ capacity (Fig 9(b) sweeps 0, 1, 5, 10).
    ``mapping``
        Thread-to-core mapping policy (Fig 9(a) "cross mapping").
    ``lane_shuffle``
        Whether inter-warp replays run on a shuffled lane within the SIMT
        cluster (Section 3.2); disabling it reintroduces hidden errors.
    ``eager_reexecution``
        On a full ReplayQ, re-execute one cycle later using operands still
        in the pipeline (paper behaviour, 1 stall cycle).  When disabled,
        the pipeline instead stalls until a ReplayQ slot frees (ablation).
    ``protected_pcs`` / ``protected_mask``
        Partial thread protection (Yang et al., arXiv 2103.02825; see
        :mod:`repro.baselines.partial`).  ``protected_pcs`` restricts
        DMR verification to instructions at the listed PCs — anything
        else skips the checker entirely, shrinking ReplayQ pressure
        with the budget.  ``protected_mask`` restricts verification to
        the listed hardware lanes.  ``None`` (the default) protects
        everything, bit-identically to the pre-knob behaviour; both
        fields are dataclass members, so every selection lands in the
        config fingerprint and therefore in every result-cache key.
    """

    enabled: bool = True
    replayq_entries: int = 10
    mapping: MappingPolicy = MappingPolicy.CROSS
    lane_shuffle: bool = True
    eager_reexecution: bool = True
    protected_pcs: Optional[tuple] = None
    protected_mask: Optional[int] = None

    def __post_init__(self) -> None:
        if self.replayq_entries < 0:
            raise ConfigError(
                f"replayq_entries must be >= 0, got {self.replayq_entries}"
            )
        if self.protected_pcs is not None:
            for pc in self.protected_pcs:
                if not isinstance(pc, int) or isinstance(pc, bool) or pc < 0:
                    raise ConfigError(
                        f"protected_pcs entries must be ints >= 0, got {pc!r}"
                    )
            # canonicalize: sorted, deduplicated — two selections of the
            # same PCs must fingerprint (and cache) identically
            object.__setattr__(self, "protected_pcs",
                               tuple(sorted(set(self.protected_pcs))))
        if self.protected_mask is not None:
            if (not isinstance(self.protected_mask, int)
                    or isinstance(self.protected_mask, bool)
                    or self.protected_mask < 0):
                raise ConfigError(
                    f"protected_mask must be an int >= 0 or None, got "
                    f"{self.protected_mask!r}"
                )

    @classmethod
    def disabled(cls) -> "DMRConfig":
        """Baseline with no error detection."""
        return cls(enabled=False)

    @classmethod
    def paper_default(cls) -> "DMRConfig":
        """The configuration behind the headline 96.43% / 16% numbers."""
        return cls()

    def with_replayq(self, entries: int) -> "DMRConfig":
        return replace(self, replayq_entries=entries)

    def with_mapping(self, mapping: MappingPolicy) -> "DMRConfig":
        return replace(self, mapping=mapping)

    def with_protected_pcs(self, pcs) -> "DMRConfig":
        """Return a copy protecting only instructions at *pcs* (or all,
        when ``None``)."""
        return replace(self, protected_pcs=None if pcs is None
                       else tuple(pcs))

    def with_protected_mask(self, mask: Optional[int]) -> "DMRConfig":
        """Return a copy protecting only the hardware lanes in *mask*."""
        return replace(self, protected_mask=mask)

    def to_dict(self) -> Dict[str, Any]:
        """Flat dict form, convenient for experiment logs."""
        out: Dict[str, Any] = {}
        for name in self.__dataclass_fields__:
            value = getattr(self, name)
            out[name] = value.value if isinstance(value, enum.Enum) else value
        return out

    def fingerprint(self) -> str:
        """Canonical cache-key form covering every field."""
        return config_fingerprint(self)


_CONFIG_FIELDS.update(
    (cls, operator.attrgetter(*(field.name
                                for field in dataclasses.fields(cls))))
    for cls in (GPUConfig, DMRConfig))


@dataclass(frozen=True)
class LaunchConfig:
    """Kernel launch geometry (CUDA gridDim/blockDim flattened to 1-D).

    The paper's Table 4 gives 2-D launch parameters for some workloads;
    the simulator flattens them since only the thread count and block
    partitioning affect warp formation.
    """

    grid_dim: int
    block_dim: int

    def __post_init__(self) -> None:
        if self.grid_dim <= 0 or self.block_dim <= 0:
            raise ConfigError(
                f"grid_dim and block_dim must be positive, got "
                f"{self.grid_dim}x{self.block_dim}"
            )

    @property
    def total_threads(self) -> int:
        return self.grid_dim * self.block_dim

    def warps_per_block(self, warp_size: int) -> int:
        """Number of warps a block occupies (last may be partial)."""
        return -(-self.block_dim // warp_size)


@dataclass(frozen=True)
class TransferConfig:
    """Host<->device transfer model parameters (Fig 10 substitution).

    Models PCIe 2.0 x16: ~6.2 GB/s effective bandwidth and a fixed
    per-transfer latency, enough to preserve Fig 10's relative transfer
    costs.
    """

    bandwidth_bytes_per_s: float = 6.2e9
    latency_s: float = 10e-6

    def transfer_time_s(self, num_bytes: int) -> float:
        """Seconds to move *num_bytes* across the link once."""
        if num_bytes < 0:
            raise ConfigError(f"num_bytes must be >= 0, got {num_bytes}")
        if num_bytes == 0:
            return 0.0
        return self.latency_s + num_bytes / self.bandwidth_bytes_per_s
