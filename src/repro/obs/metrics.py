"""Metric primitives and the registry every simulator component uses.

Four metric kinds, one registry:

* :class:`Counter` — a named monotonically increasing count.
* :class:`Gauge` — a sampled level (warp occupancy, queue depth).  The
  in-process ``value`` is the last sample; what serializes and merges
  is the summary (count, total, min, max), which is associative and
  commutative — the only gauge semantics that aggregate correctly
  across processes.
* :class:`Histogram` — sparse, over arbitrary hashable keys (the
  simulator's historical shape: active-thread counts, unit names).
* :class:`FixedHistogram` — fixed bucket boundaries declared up front,
  O(log buckets) insert, mergeable only against identical boundaries.
  This is the per-cycle shape: ReplayQ depth and warp occupancy sample
  every cycle, so the bucket count must not grow with the data.

:class:`MetricsRegistry` is the single write API.  Counters move only
through :meth:`MetricsRegistry.inc`, histograms through
:meth:`MetricsRegistry.observe` — the earlier ``StatSet`` grew two
spellings for the same increment (``bump(...)`` next to
``counter(...).add(...)``), and the drift between them is exactly how
double-attribution bugs hide.  The object accessors (:meth:`counter`,
:meth:`histogram`, ...) remain for reads and merges.

:class:`MetricSnapshot` is the plain-data transfer form: worker
processes serialize one per run, the parent merges them.  ``merge`` is
associative and commutative with :meth:`MetricSnapshot.empty` as the
identity (property-tested in ``tests/obs``), and
:meth:`canonical_json` is deterministic byte-for-byte, so a parallel
fan-out aggregates to exactly the bytes the serial run produces.
"""

from __future__ import annotations

from bisect import bisect_left
from collections import defaultdict
from dataclasses import dataclass
from typing import (
    Any, Dict, Hashable, Iterable, Iterator, List, Mapping, Optional,
    Sequence, Tuple,
)


@dataclass
class Counter:
    """A named monotonically increasing counter."""

    name: str
    value: int = 0

    def add(self, amount: int = 1) -> None:
        if amount < 0:
            raise ValueError(f"counter {self.name!r} cannot decrease")
        self.value += amount

    def set(self, value: int) -> None:
        """Set an end-of-run absolute (must not decrease the counter)."""
        if value < self.value:
            raise ValueError(
                f"counter {self.name!r} cannot decrease "
                f"({self.value} -> {value})"
            )
        self.value = value

    def merge(self, other: "Counter") -> None:
        if other.name != self.name:
            raise ValueError(
                f"cannot merge counter {other.name!r} into {self.name!r}"
            )
        self.value += other.value

    def to_payload(self) -> List[Any]:
        return [self.name, self.value]

    @classmethod
    def from_payload(cls, payload: List[Any]) -> "Counter":
        return cls(name=payload[0], value=payload[1])


class Gauge:
    """A sampled level with a mergeable summary.

    ``set`` records one sample: the last value stays readable in
    process (``value``), while the aggregate summary — sample count,
    running total, min, max — is what snapshots carry.  "Last value"
    has no cross-process meaning (which process was last?), so merge
    combines only the summary, keeping aggregation order-independent.
    """

    __slots__ = ("name", "value", "count", "total", "min", "max")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value: Optional[int] = None
        self.count = 0
        self.total = 0
        self.min: Optional[int] = None
        self.max: Optional[int] = None

    def set(self, value: int, count: int = 1) -> None:
        """Record *count* samples of the gauged level (bulk-identical:
        the summary equals *count* single-sample calls)."""
        self.value = value
        self.count += count
        self.total += value * count
        if self.min is None or value < self.min:
            self.min = value
        if self.max is None or value > self.max:
            self.max = value

    @property
    def mean(self) -> float:
        """Mean sampled level (0.0 with no samples)."""
        return self.total / self.count if self.count else 0.0

    def merge(self, other: "Gauge") -> None:
        if other.name != self.name:
            raise ValueError(
                f"cannot merge gauge {other.name!r} into {self.name!r}"
            )
        self.count += other.count
        self.total += other.total
        for attr in ("min", "max"):
            mine, theirs = getattr(self, attr), getattr(other, attr)
            if theirs is None:
                continue
            pick = min if attr == "min" else max
            setattr(self, attr, theirs if mine is None else pick(mine, theirs))

    def to_payload(self) -> List[Any]:
        return [self.name, self.count, self.total, self.min, self.max]

    @classmethod
    def from_payload(cls, payload: List[Any]) -> "Gauge":
        gauge = cls(payload[0])
        gauge.count, gauge.total, gauge.min, gauge.max = payload[1:5]
        return gauge

    def __repr__(self) -> str:
        return (f"Gauge({self.name!r}, count={self.count}, "
                f"mean={self.mean:.2f}, min={self.min}, max={self.max})")


class Histogram:
    """A sparse histogram over hashable keys (bin -> count)."""

    def __init__(self, name: str) -> None:
        self.name = name
        self._bins: Dict[Hashable, int] = defaultdict(int)

    def add(self, key: Hashable, amount: int = 1) -> None:
        if amount < 0:
            raise ValueError(f"histogram {self.name!r} cannot decrease")
        self._bins[key] += amount

    def count(self, key: Hashable) -> int:
        return self._bins.get(key, 0)

    @property
    def total(self) -> int:
        return sum(self._bins.values())

    def items(self) -> Iterator[Tuple[Hashable, int]]:
        return iter(sorted(self._bins.items(), key=lambda kv: repr(kv[0])))

    def as_dict(self) -> Dict[Hashable, int]:
        return dict(self._bins)

    def fractions(self) -> Dict[Hashable, float]:
        """Each bin's share of the total (empty histogram -> empty dict)."""
        total = self.total
        if total == 0:
            return {}
        return {key: count / total for key, count in self._bins.items()}

    def merge(self, other: "Histogram") -> None:
        if other.name != self.name:
            raise ValueError(
                f"cannot merge histogram {other.name!r} into {self.name!r}"
            )
        for key, count in other._bins.items():
            self._bins[key] += count

    def mean_key(self) -> float:
        """Weighted mean of numeric bin keys (raises on non-numeric keys)."""
        total = self.total
        if total == 0:
            return 0.0
        return sum(key * count for key, count in self._bins.items()) / total

    def to_payload(self) -> Dict[str, Any]:
        """Plain-data form with deterministically ordered bins."""
        bins = sorted(self._bins.items(), key=lambda kv: repr(kv[0]))
        return {"name": self.name, "bins": [[key, count] for key, count in bins]}

    @classmethod
    def from_payload(cls, payload: Dict[str, Any]) -> "Histogram":
        hist = cls(payload["name"])
        for key, count in payload["bins"]:
            hist._bins[key] = count
        return hist

    def __len__(self) -> int:
        return len(self._bins)

    def __repr__(self) -> str:
        return f"Histogram({self.name!r}, bins={len(self._bins)}, total={self.total})"


class FixedHistogram:
    """A histogram with fixed inclusive upper-bound buckets.

    ``bounds`` are strictly ascending inclusive upper edges; values
    above the last bound land in a dedicated overflow bucket, so the
    total count is always preserved (and preserved under merge, which
    requires identical bounds).
    """

    __slots__ = ("name", "bounds", "counts", "total")

    def __init__(self, name: str, bounds: Sequence[int]) -> None:
        bounds = tuple(bounds)
        if not bounds:
            raise ValueError(f"fixed histogram {name!r} needs >= 1 bound")
        if any(b >= a for b, a in zip(bounds, bounds[1:])):
            raise ValueError(
                f"fixed histogram {name!r} bounds must strictly ascend: "
                f"{bounds}"
            )
        self.name = name
        self.bounds = bounds
        self.counts = [0] * (len(bounds) + 1)  # [-1] is overflow
        self.total = 0

    def add(self, value: int, amount: int = 1) -> None:
        if amount < 0:
            raise ValueError(f"fixed histogram {self.name!r} cannot decrease")
        self.counts[bisect_left(self.bounds, value)] += amount
        self.total += amount

    def bucket_label(self, index: int) -> str:
        """Human-readable label of bucket *index* (for tables)."""
        if index == len(self.bounds):
            return f">{self.bounds[-1]}"
        low = 0 if index == 0 else self.bounds[index - 1] + 1
        high = self.bounds[index]
        return str(high) if low == high else f"{low}-{high}"

    def items(self) -> Iterator[Tuple[str, int]]:
        for index, count in enumerate(self.counts):
            yield self.bucket_label(index), count

    def mean(self) -> float:
        """Mean of bucket upper edges weighted by count (overflow uses
        the last edge; an approximation good enough for summaries)."""
        if not self.total:
            return 0.0
        edges = list(self.bounds) + [self.bounds[-1]]
        return sum(e * c for e, c in zip(edges, self.counts)) / self.total

    def merge(self, other: "FixedHistogram") -> None:
        if other.name != self.name:
            raise ValueError(
                f"cannot merge fixed histogram {other.name!r} "
                f"into {self.name!r}"
            )
        if other.bounds != self.bounds:
            raise ValueError(
                f"fixed histogram {self.name!r} bounds differ: "
                f"{self.bounds} vs {other.bounds}"
            )
        for index, count in enumerate(other.counts):
            self.counts[index] += count
        self.total += other.total

    def to_payload(self) -> Dict[str, Any]:
        return {"name": self.name, "bounds": list(self.bounds),
                "counts": list(self.counts)}

    @classmethod
    def from_payload(cls, payload: Dict[str, Any]) -> "FixedHistogram":
        hist = cls(payload["name"], payload["bounds"])
        hist.counts = list(payload["counts"])
        hist.total = sum(hist.counts)
        return hist

    def __repr__(self) -> str:
        return (f"FixedHistogram({self.name!r}, buckets={len(self.counts)}, "
                f"total={self.total})")


class MetricsRegistry:
    """A bag of counters, gauges and histograms addressed by name.

    Components create metrics lazily.  All counter increments go
    through :meth:`inc` and all sparse-histogram inserts through
    :meth:`observe` — the object accessors exist for reads, merges and
    payloads.  The analysis layer merges registries from all SMs of a
    run with :meth:`merge` and ships them across processes as payloads
    or :class:`MetricSnapshot` objects.
    """

    def __init__(self) -> None:
        self._counters: Dict[str, Counter] = {}
        self._gauges: Dict[str, Gauge] = {}
        self._histograms: Dict[str, Histogram] = {}
        self._fixed: Dict[str, FixedHistogram] = {}

    # -- write API -----------------------------------------------------
    def inc(self, name: str, amount: int = 1) -> None:
        """Increment counter *name* (the only counter write path)."""
        counter = self._counters.get(name)
        if counter is None:
            counter = self._counters[name] = Counter(name)
        counter.add(amount)

    def observe(self, name: str, key: Hashable, amount: int = 1) -> None:
        """Add *amount* at *key* in sparse histogram *name*."""
        hist = self._histograms.get(name)
        if hist is None:
            hist = self._histograms[name] = Histogram(name)
        hist.add(key, amount)

    def set_gauge(self, name: str, value: int, count: int = 1) -> None:
        """Record *count* samples of gauge *name* at *value*."""
        gauge = self._gauges.get(name)
        if gauge is None:
            gauge = self._gauges[name] = Gauge(name)
        gauge.set(value, count)

    def sample(self, name: str, bounds: Sequence[int], value: int,
               amount: int = 1) -> None:
        """Add to fixed-bucket histogram *name* (created with *bounds*)."""
        hist = self._fixed.get(name)
        if hist is None:
            hist = self._fixed[name] = FixedHistogram(name, bounds)
        hist.add(value, amount)

    # -- accessors -----------------------------------------------------
    def counter(self, name: str) -> Counter:
        if name not in self._counters:
            self._counters[name] = Counter(name)
        return self._counters[name]

    def gauge(self, name: str) -> Gauge:
        if name not in self._gauges:
            self._gauges[name] = Gauge(name)
        return self._gauges[name]

    def histogram(self, name: str) -> Histogram:
        if name not in self._histograms:
            self._histograms[name] = Histogram(name)
        return self._histograms[name]

    def fixed_histogram(self, name: str,
                        bounds: Sequence[int]) -> FixedHistogram:
        if name not in self._fixed:
            self._fixed[name] = FixedHistogram(name, bounds)
        return self._fixed[name]

    def value(self, name: str) -> int:
        """Current value of counter *name* (0 if never touched)."""
        counter = self._counters.get(name)
        return counter.value if counter else 0

    def counters(self) -> Mapping[str, int]:
        return {name: c.value for name, c in sorted(self._counters.items())}

    def gauges(self) -> Iterable[Gauge]:
        return [self._gauges[name] for name in sorted(self._gauges)]

    def histograms(self) -> Iterable[Histogram]:
        return list(self._histograms.values())

    def fixed_histograms(self) -> Iterable[FixedHistogram]:
        return [self._fixed[name] for name in sorted(self._fixed)]

    # -- merge / transfer ----------------------------------------------
    def merge(self, other: "MetricsRegistry") -> None:
        for name, counter in other._counters.items():
            self.counter(name).merge(counter)
        for name, gauge in other._gauges.items():
            self.gauge(name).merge(gauge)
        for name, hist in other._histograms.items():
            self.histogram(name).merge(hist)
        for name, hist in other._fixed.items():
            if name in self._fixed:
                self._fixed[name].merge(hist)
            else:
                self._fixed[name] = FixedHistogram.from_payload(
                    hist.to_payload()
                )

    def to_payload(self) -> Dict[str, Any]:
        """Plain-data form with deterministically ordered members.

        The ``gauges``/``fixed_histograms`` keys appear only when
        non-empty, keeping classic counter/histogram payloads stable.
        """
        payload: Dict[str, Any] = {
            "counters": [self._counters[name].to_payload()
                         for name in sorted(self._counters)],
            "histograms": [self._histograms[name].to_payload()
                           for name in sorted(self._histograms)],
        }
        if self._gauges:
            payload["gauges"] = [self._gauges[name].to_payload()
                                 for name in sorted(self._gauges)]
        if self._fixed:
            payload["fixed_histograms"] = [
                self._fixed[name].to_payload()
                for name in sorted(self._fixed)
            ]
        return payload

    @classmethod
    def from_payload(cls, payload: Dict[str, Any]) -> "MetricsRegistry":
        registry = cls()
        for entry in payload["counters"]:
            counter = Counter.from_payload(entry)
            registry._counters[counter.name] = counter
        for entry in payload.get("gauges", []):
            gauge = Gauge.from_payload(entry)
            registry._gauges[gauge.name] = gauge
        for entry in payload["histograms"]:
            hist = Histogram.from_payload(entry)
            registry._histograms[hist.name] = hist
        for entry in payload.get("fixed_histograms", []):
            fixed = FixedHistogram.from_payload(entry)
            registry._fixed[fixed.name] = fixed
        return registry

    def snapshot(self) -> "MetricSnapshot":
        return MetricSnapshot.from_registry(self)

    def __repr__(self) -> str:
        return (
            f"MetricsRegistry(counters={len(self._counters)}, "
            f"gauges={len(self._gauges)}, "
            f"histograms={len(self._histograms)}, "
            f"fixed={len(self._fixed)})"
        )


class MetricSnapshot:
    """Frozen plain-data form of a registry, built to merge.

    Internally a canonical payload dict (sorted names, list-of-pairs
    bins).  ``merge`` returns a *new* snapshot and is associative and
    commutative with :meth:`empty` as identity; equality and
    :meth:`canonical_json` are byte-deterministic, which is what lets
    the acceptance tests compare a parallel fan-out's aggregate against
    the serial run's bit for bit.
    """

    __slots__ = ("_payload",)

    def __init__(self, payload: Optional[Dict[str, Any]] = None) -> None:
        self._payload = payload or {"counters": [], "histograms": []}

    @classmethod
    def empty(cls) -> "MetricSnapshot":
        return cls()

    @classmethod
    def from_registry(cls, registry: MetricsRegistry) -> "MetricSnapshot":
        return cls(registry.to_payload())

    @classmethod
    def from_payload(cls, payload: Dict[str, Any]) -> "MetricSnapshot":
        return cls(payload)

    def to_registry(self) -> MetricsRegistry:
        return MetricsRegistry.from_payload(self._payload)

    def to_payload(self) -> Dict[str, Any]:
        return self._payload

    @property
    def is_empty(self) -> bool:
        return not any(self._payload.get(kind) for kind in
                       ("counters", "gauges", "histograms",
                        "fixed_histograms"))

    def value(self, name: str) -> int:
        """Counter *name*'s value (0 if absent) without re-hydrating."""
        for entry in self._payload["counters"]:
            if entry[0] == name:
                return entry[1]
        return 0

    def merge(self, other: "MetricSnapshot") -> "MetricSnapshot":
        """A new snapshot combining both (associative, commutative)."""
        registry = self.to_registry()
        registry.merge(other.to_registry())
        return MetricSnapshot.from_registry(registry)

    def canonical_json(self) -> str:
        """Deterministic serialization (the byte-identity currency)."""
        import json
        return json.dumps(self._payload, sort_keys=True,
                          separators=(",", ":"), default=repr)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, MetricSnapshot):
            return NotImplemented
        return self.canonical_json() == other.canonical_json()

    def __hash__(self) -> int:
        return hash(self.canonical_json())

    def __repr__(self) -> str:
        payload = self._payload
        return (
            f"MetricSnapshot(counters={len(payload.get('counters', []))}, "
            f"gauges={len(payload.get('gauges', []))}, "
            f"histograms={len(payload.get('histograms', []))}, "
            f"fixed={len(payload.get('fixed_histograms', []))})"
        )


def merge_snapshots(snapshots: Iterable[MetricSnapshot]) -> MetricSnapshot:
    """Fold snapshots into one (empty identity when the iterable is).

    Implemented as one registry accumulating every input, so an
    N-way aggregation hydrates each snapshot once instead of building
    N intermediate snapshots.
    """
    registry = MetricsRegistry()
    for snapshot in snapshots:
        registry.merge(snapshot.to_registry())
    return MetricSnapshot.from_registry(registry)
