"""Unit tests for the metric primitives and the registry."""

import pytest

from repro.obs.metrics import (
    Counter,
    FixedHistogram,
    Gauge,
    Histogram,
    MetricSnapshot,
    MetricsRegistry,
    merge_snapshots,
)


class TestCounter:
    def test_starts_at_zero(self):
        assert Counter("x").value == 0

    def test_add(self):
        c = Counter("x")
        c.add()
        c.add(4)
        assert c.value == 5

    def test_cannot_decrease(self):
        with pytest.raises(ValueError):
            Counter("x").add(-1)

    def test_set_absolute(self):
        c = Counter("x", 3)
        c.set(10)
        assert c.value == 10

    def test_set_cannot_decrease(self):
        with pytest.raises(ValueError):
            Counter("x", 5).set(4)

    def test_merge(self):
        a, b = Counter("x", 3), Counter("x", 4)
        a.merge(b)
        assert a.value == 7

    def test_merge_name_mismatch(self):
        with pytest.raises(ValueError):
            Counter("x").merge(Counter("y"))


class TestGauge:
    def test_empty(self):
        g = Gauge("g")
        assert g.count == 0 and g.mean == 0.0
        assert g.min is None and g.max is None and g.value is None

    def test_samples(self):
        g = Gauge("g")
        for v in (3, 7, 5):
            g.set(v)
        assert g.value == 5          # last in-process sample
        assert g.count == 3
        assert g.total == 15
        assert (g.min, g.max) == (3, 7)
        assert g.mean == 5.0

    def test_merge_combines_aggregates(self):
        a, b = Gauge("g"), Gauge("g")
        a.set(1)
        a.set(9)
        b.set(4)
        a.merge(b)
        assert a.count == 3 and a.total == 14
        assert (a.min, a.max) == (1, 9)

    def test_merge_with_empty_is_identity(self):
        a, empty = Gauge("g"), Gauge("g")
        a.set(2)
        a.merge(empty)
        assert (a.count, a.total, a.min, a.max) == (1, 2, 2, 2)

    def test_merge_name_mismatch(self):
        with pytest.raises(ValueError):
            Gauge("a").merge(Gauge("b"))

    def test_payload_roundtrip(self):
        g = Gauge("g")
        g.set(3)
        g.set(8)
        restored = Gauge.from_payload(g.to_payload())
        assert restored.to_payload() == g.to_payload()


class TestHistogram:
    def test_empty(self):
        h = Histogram("h")
        assert h.total == 0
        assert h.fractions() == {}
        assert len(h) == 0

    def test_add_and_count(self):
        h = Histogram("h")
        h.add(3)
        h.add(3, 2)
        h.add(5)
        assert h.count(3) == 3
        assert h.count(5) == 1
        assert h.count(99) == 0
        assert h.total == 4

    def test_fractions_sum_to_one(self):
        h = Histogram("h")
        for key in (1, 2, 2, 3, 3, 3):
            h.add(key)
        fracs = h.fractions()
        assert abs(sum(fracs.values()) - 1.0) < 1e-12
        assert fracs[3] == 0.5

    def test_mean_key(self):
        h = Histogram("h")
        h.add(2, 3)
        h.add(6, 1)
        assert h.mean_key() == 3.0

    def test_merge(self):
        a, b = Histogram("h"), Histogram("h")
        a.add("x", 2)
        b.add("x", 1)
        b.add("y", 5)
        a.merge(b)
        assert a.count("x") == 3
        assert a.count("y") == 5

    def test_merge_name_mismatch(self):
        with pytest.raises(ValueError):
            Histogram("a").merge(Histogram("b"))

    def test_negative_add_rejected(self):
        with pytest.raises(ValueError):
            Histogram("h").add(1, -1)


class TestFixedHistogram:
    def test_bucketing_inclusive_upper_bounds(self):
        h = FixedHistogram("f", (2, 5, 9))
        for v in (0, 2, 3, 5, 6, 9, 10, 99):
            h.add(v)
        # buckets: <=2, 3-5, 6-9, overflow
        assert h.counts == [2, 2, 2, 2]
        assert h.total == 8

    def test_labels(self):
        h = FixedHistogram("f", (0, 2, 5))
        assert [label for label, _ in h.items()] == ["0", "1-2", "3-5", ">5"]

    def test_bounds_must_ascend(self):
        with pytest.raises(ValueError):
            FixedHistogram("f", (3, 3))
        with pytest.raises(ValueError):
            FixedHistogram("f", ())

    def test_merge_requires_identical_bounds(self):
        a = FixedHistogram("f", (1, 2))
        b = FixedHistogram("f", (1, 3))
        with pytest.raises(ValueError):
            a.merge(b)

    def test_merge_preserves_total(self):
        a = FixedHistogram("f", (1, 2))
        b = FixedHistogram("f", (1, 2))
        a.add(0)
        b.add(2, 3)
        b.add(7)
        a.merge(b)
        assert a.total == 5 == sum(a.counts)

    def test_payload_roundtrip(self):
        h = FixedHistogram("f", (1, 4))
        h.add(3, 2)
        h.add(9)
        restored = FixedHistogram.from_payload(h.to_payload())
        assert restored.to_payload() == h.to_payload()
        assert restored.total == h.total


class TestMetricsRegistry:
    def test_lazy_creation(self):
        r = MetricsRegistry()
        assert r.value("nothing") == 0
        r.inc("nothing")
        assert r.value("nothing") == 1

    def test_counter_identity(self):
        r = MetricsRegistry()
        assert r.counter("a") is r.counter("a")

    def test_histogram_identity(self):
        r = MetricsRegistry()
        assert r.histogram("a") is r.histogram("a")

    def test_no_legacy_bump(self):
        # satellite: the two-spellings era (bump vs counter().add) is over
        assert not hasattr(MetricsRegistry, "bump")

    def test_observe_shorthand(self):
        r = MetricsRegistry()
        r.observe("h", 5)
        r.observe("h", 5, 2)
        assert r.histogram("h").count(5) == 3

    def test_gauge_and_sample(self):
        r = MetricsRegistry()
        r.set_gauge("g", 4)
        r.sample("f", (1, 2), 2)
        assert r.gauge("g").count == 1
        assert r.fixed_histogram("f", (1, 2)).total == 1

    def test_merge_combines_everything(self):
        a, b = MetricsRegistry(), MetricsRegistry()
        a.inc("c", 1)
        b.inc("c", 2)
        b.inc("only_b", 9)
        b.histogram("h").add(5)
        b.set_gauge("g", 3)
        b.sample("f", (1, 2), 0)
        a.merge(b)
        assert a.value("c") == 3
        assert a.value("only_b") == 9
        assert a.histogram("h").count(5) == 1
        assert a.gauge("g").count == 1
        assert a.fixed_histogram("f", (1, 2)).total == 1

    def test_counters_snapshot_sorted(self):
        r = MetricsRegistry()
        r.inc("zeta")
        r.inc("alpha", 2)
        assert list(r.counters()) == ["alpha", "zeta"]

    def test_payload_roundtrip(self):
        r = MetricsRegistry()
        r.inc("c", 2)
        r.observe("h", "key", 3)
        r.set_gauge("g", 7)
        r.sample("f", (1, 5), 4)
        restored = MetricsRegistry.from_payload(r.to_payload())
        assert restored.to_payload() == r.to_payload()

    def test_classic_payload_without_new_kinds_loads(self):
        # counters+histograms-only payloads (the pre-obs shape) load
        r = MetricsRegistry.from_payload(
            {"counters": [["c", 1]], "histograms": []}
        )
        assert r.value("c") == 1


class TestMetricSnapshot:
    def _registry(self):
        r = MetricsRegistry()
        r.inc("c", 2)
        r.observe("h", 4)
        r.set_gauge("g", 9)
        r.sample("f", (1, 2), 1)
        return r

    def test_roundtrip_through_registry(self):
        snap = self._registry().snapshot()
        assert snap.to_registry().to_payload() == snap.to_payload()

    def test_value_accessor(self):
        snap = self._registry().snapshot()
        assert snap.value("c") == 2
        assert snap.value("missing") == 0

    def test_equality_is_canonical(self):
        assert self._registry().snapshot() == self._registry().snapshot()
        assert MetricSnapshot.empty() != self._registry().snapshot()

    def test_merge_adds(self):
        snap = self._registry().snapshot()
        merged = snap.merge(snap)
        assert merged.value("c") == 4

    def test_merge_snapshots_empty_iterable(self):
        assert merge_snapshots([]).is_empty

    def test_canonical_json_deterministic(self):
        a = self._registry().snapshot().canonical_json()
        b = self._registry().snapshot().canonical_json()
        assert a == b
