"""Property tests for cache-key fingerprints and result serialization.

The persistent result cache is only sound if (a) two different
configurations can never share a key, and (b) a result survives the
serialize→deserialize round trip bit-exactly.  Hypothesis searches for
counterexamples to both.
"""

from __future__ import annotations

import dataclasses
import enum
import json
import pickle

from hypothesis import given, settings, strategies as st

from repro.analysis.result_cache import result_key
from repro.common import config as config_module
from repro.common.config import (
    DMRConfig,
    GPUConfig,
    MappingPolicy,
    SchedulerPolicy,
    config_fingerprint,
)
from repro.faults.campaign import CampaignSpec, fault_run_key
from repro.faults.models import fault_from_payload
from repro.obs.metrics import Histogram, MetricsRegistry
from repro.sim.gpu import KernelResult
from repro.sim.memory import GlobalMemory

from tests.conftest import build_counting_kernel, run_program

dmr_configs = st.builds(
    DMRConfig,
    enabled=st.booleans(),
    replayq_entries=st.integers(0, 20),
    mapping=st.sampled_from(list(MappingPolicy)),
    lane_shuffle=st.booleans(),
    eager_reexecution=st.booleans(),
)

gpu_configs = st.builds(
    GPUConfig,
    num_sms=st.integers(1, 4),
    cluster_size=st.sampled_from([2, 4, 8, 16, 32]),
    sp_latency=st.integers(1, 8),
    ldst_global_latency=st.integers(1, 80),
    clock_period_ns=st.sampled_from([1.0, 1.25, 2.0]),
    scheduler=st.sampled_from(list(SchedulerPolicy)),
    num_schedulers=st.sampled_from([1, 2]),
    model_bank_conflicts=st.booleans(),
    warp_start_stagger=st.integers(0, 50),
)


class TestConfigFingerprints:
    @given(a=dmr_configs, b=dmr_configs)
    def test_dmr_fingerprint_injective(self, a, b):
        assert (a.fingerprint() == b.fingerprint()) == (a == b)

    @given(a=gpu_configs, b=gpu_configs)
    @settings(max_examples=60)
    def test_gpu_fingerprint_injective(self, a, b):
        assert (a.fingerprint() == b.fingerprint()) == (a == b)

    @given(config=dmr_configs)
    def test_replace_changes_dmr_fingerprint(self, config):
        """Flipping any single field must change the key."""
        variants = {
            "enabled": not config.enabled,
            "replayq_entries": config.replayq_entries + 1,
            "mapping": (MappingPolicy.CROSS
                        if config.mapping is MappingPolicy.IN_ORDER
                        else MappingPolicy.IN_ORDER),
            "lane_shuffle": not config.lane_shuffle,
            "eager_reexecution": not config.eager_reexecution,
        }
        for field, value in variants.items():
            modified = dataclasses.replace(config, **{field: value})
            assert modified.fingerprint() != config.fingerprint(), field

    @given(config=gpu_configs)
    @settings(max_examples=30)
    def test_replace_changes_gpu_fingerprint(self, config):
        variants = {
            "num_sms": config.num_sms + 1,
            "sp_latency": config.sp_latency + 1,
            "ldst_global_latency": config.ldst_global_latency + 1,
            "warp_start_stagger": config.warp_start_stagger + 1,
            "model_bank_conflicts": not config.model_bank_conflicts,
        }
        for field, value in variants.items():
            modified = dataclasses.replace(config, **{field: value})
            assert modified.fingerprint() != config.fingerprint(), field

    def test_float_fields_keep_full_precision(self):
        a = dataclasses.replace(GPUConfig(), clock_period_ns=1.25)
        b = dataclasses.replace(GPUConfig(), clock_period_ns=1.25 + 1e-12)
        assert a.fingerprint() != b.fingerprint()

    def test_fingerprint_covers_type_name(self):
        """Two value-identical dataclasses of different types differ."""
        assert config_fingerprint(DMRConfig()) != config_fingerprint(
            {"__type__": "SomethingElse"}
        )


class TestResultKey:
    @given(dmr=dmr_configs,
           scale=st.sampled_from([0.25, 0.5, 1.0]),
           seed=st.integers(0, 5),
           check=st.booleans())
    @settings(max_examples=40)
    def test_key_covers_every_run_input(self, dmr, scale, seed, check):
        config = GPUConfig.small(2)
        base = result_key("scan", dmr, config, scale, seed, check)
        assert base != result_key("bfs", dmr, config, scale, seed, check)
        assert base != result_key("scan", dmr, config, scale / 2, seed, check)
        assert base != result_key("scan", dmr, config, scale, seed + 1, check)
        assert base != result_key("scan", dmr, config, scale, seed, not check)
        assert base != result_key(
            "scan", dmr, dataclasses.replace(config, num_sms=config.num_sms + 1),
            scale, seed, check,
        )
        assert base != result_key(
            "scan", dataclasses.replace(dmr, enabled=not dmr.enabled),
            config, scale, seed, check,
        )
        # and it is a stable function, not salted per call
        assert base == result_key("scan", dmr, config, scale, seed, check)


def reference_fingerprint(value) -> str:
    """The fingerprint as computed before canonical forms were
    memoized: every value canonicalized afresh, then ``json.dumps``."""
    def canonical(item):
        if dataclasses.is_dataclass(item) and not isinstance(item, type):
            out = {"__type__": type(item).__name__}
            for field in dataclasses.fields(item):
                out[field.name] = canonical(getattr(item, field.name))
            return out
        if isinstance(item, enum.Enum):
            return f"{type(item).__name__}.{item.name}"
        if isinstance(item, bool) or item is None or \
                isinstance(item, (int, str)):
            return item
        if isinstance(item, float):
            return item.hex()
        if isinstance(item, (list, tuple)):
            return [canonical(element) for element in item]
        if isinstance(item, dict):
            return {str(key): canonical(val) for key, val in item.items()}
        raise TypeError(type(item).__name__)
    return json.dumps(canonical(value), sort_keys=True,
                      separators=(",", ":"))


#: GPU config of the pinned keys (the engine named, so the keys do not
#: depend on ``$REPRO_EXEC``)
PINNED_GPU = GPUConfig(num_sms=2, engine="fast")

#: a fault the pinned fault-run keys classify
PINNED_FAULT = {"sm_id": 0, "hw_lane": 0, "unit": "SP", "kind": "transient",
                "bit": 24, "cycle": 861}


class TestPinnedKeys:
    """Keys recorded before config canonical forms were memoized: every
    cache entry and job id stays addressable only if they never move."""

    def test_result_keys(self):
        assert result_key("scan", DMRConfig(), PINNED_GPU, 0.25, 0,
                          True) == (
            "34e39faaaf6589b1c99a318dc3e3052c7e29971c4cd9653cf68efe6f287dcfb8")
        assert result_key("bfs", DMRConfig(enabled=False), PINNED_GPU, 0.5,
                          3, False, True) == (
            "64397c2fdcf5bca9e279ca22eaaa004637fb6d80abe8d40a7884abb93696aebb")

    def test_fault_run_keys(self):
        fault = fault_from_payload(PINNED_FAULT)
        gpu = GPUConfig(num_sms=1, engine="fast")
        dmr_spec = CampaignSpec(workload="scan", config=gpu, dmr=DMRConfig(),
                                scale=0.25, seed=0)
        secded_spec = CampaignSpec(workload="scan", config=gpu,
                                   dmr=DMRConfig(enabled=False), scale=0.25,
                                   seed=0, scheme="secded", obs=True)
        assert fault_run_key(dmr_spec, fault) == (
            "ca9710517957dc72e15f5231389378d1d4cc5c1bef2f10b0e7d8b1a1e7440a80")
        assert fault_run_key(secded_spec, fault) == (
            "6127a1c7e785888c5140849e1e61cdaf83a78b3ad379f94ac5d234b41a3dba82")

    #: equal configs whose fingerprints differ, each with its key
    CLOCKS = [
        (1,
         "3debc769dc5d0ee4ba6b4610c114f1b74ea3ce6078de1b105ee37175766893a3"),
        (1.0,
         "5446bf98c6e19bf3175872beaf7a196e00b01a0e850d628d8c7749f046852f51"),
        (True,
         "837cf6390b5b008380a3e47cd95fe12201b6656a55a7df162794239a09d3fbb2"),
        (0.0,
         "25798daae3ffa0ae4e8038dba487089a38aeed5755f2b6e1f2c88f1d8c69c416"),
        (-0.0,
         "2919127a5f921fe89d38fee8aee42768d958d03901ca09e923e8a6f97f9c842f"),
    ]
    REPLAYQS = [
        (1,
         "fbfb06dbc02e8a60fde7db833a6ed0d91946edf3e534949dc8ede34f3e0109fb"),
        (True,
         "4b86b57e3ab24d42f0961b80e3b9964a1869c424f24fed946fcd0a08135ae4f2"),
    ]

    @staticmethod
    def _keys(clocks, replayqs):
        keys = {}
        for clock, _ in clocks:
            gpu = dataclasses.replace(PINNED_GPU, clock_period_ns=clock)
            keys[("clock", repr(clock))] = result_key(
                "scan", DMRConfig(), gpu, 0.25, 0, True)
        for entries, _ in replayqs:
            keys[("replayq", repr(entries))] = result_key(
                "scan", DMRConfig(replayq_entries=entries), PINNED_GPU, 0.25,
                0, True)
        return keys

    def test_memo_keeps_equal_configs_apart(self):
        """1 == 1.0 == True and 0.0 == -0.0, yet each fingerprints (and
        keys) apart, in whichever order the memo meets them."""
        assert dataclasses.replace(PINNED_GPU, clock_period_ns=1) == \
            dataclasses.replace(PINNED_GPU, clock_period_ns=1.0)
        assert DMRConfig(replayq_entries=True) == DMRConfig(replayq_entries=1)
        expected = {("clock", repr(clock)): key for clock, key in self.CLOCKS}
        expected.update({("replayq", repr(entries)): key
                         for entries, key in self.REPLAYQS})
        for step in (1, -1):
            config_module._CONFIG_TEXTS.clear()
            clocks, replayqs = self.CLOCKS[::step], self.REPLAYQS[::step]
            assert self._keys(clocks, replayqs) == expected, step
            assert self._keys(clocks, replayqs) == expected  # memo hits


class TestFingerprintMemo:
    plain = st.recursive(
        st.none() | st.booleans() | st.integers(-2**40, 2**40)
        | st.floats(allow_nan=False) | st.text(max_size=6),
        lambda children: (st.lists(children, max_size=3)
                          | st.dictionaries(st.text(max_size=4), children,
                                            max_size=3)),
        max_leaves=8,
    )

    @given(gpu=gpu_configs, dmr=dmr_configs, extra=plain,
           clock=st.sampled_from([1, 1.0, True, 0.0, -0.0, 1.25]))
    @settings(max_examples=60)
    def test_memoized_fingerprint_equals_reference(self, gpu, dmr, extra,
                                                   clock):
        gpu = dataclasses.replace(gpu, clock_period_ns=clock)
        material = {"gpu": gpu, "dmr": dmr, "extra": extra,
                    "nested": [gpu, {"dmr": dmr}]}
        for _ in range(2):  # a miss, then a hit
            assert config_fingerprint(material) == \
                reference_fingerprint(material)
            assert gpu.fingerprint() == reference_fingerprint(gpu)
            assert dmr.fingerprint() == reference_fingerprint(dmr)

    def test_memo_is_bounded(self, monkeypatch):
        monkeypatch.setattr(config_module, "_CONFIG_TEXTS_MAX", 4)
        config_module._CONFIG_TEXTS.clear()
        for entries in range(10):
            config_fingerprint(DMRConfig(replayq_entries=entries))
        assert len(config_module._CONFIG_TEXTS) <= 4
        assert config_fingerprint(DMRConfig(replayq_entries=3)) == \
            reference_fingerprint(DMRConfig(replayq_entries=3))


hist_keys = st.one_of(st.integers(-100, 100), st.text(max_size=8))


class TestSerializationRoundTrip:
    @given(bins=st.dictionaries(hist_keys, st.integers(0, 1 << 40),
                                max_size=12))
    def test_histogram_round_trip(self, bins):
        hist = Histogram("h")
        for key, count in bins.items():
            hist._bins[key] = count
        restored = Histogram.from_payload(hist.to_payload())
        assert restored.as_dict() == hist.as_dict()
        assert restored.name == hist.name

    @given(counters=st.dictionaries(st.text(min_size=1, max_size=12),
                                    st.integers(0, 1 << 40), max_size=8))
    def test_statset_round_trip(self, counters):
        stats = MetricsRegistry()
        for name, value in counters.items():
            stats.counter(name).value = value
        restored = MetricsRegistry.from_payload(stats.to_payload())
        assert restored.counters() == stats.counters()

    @given(words=st.dictionaries(st.integers(0, 1 << 20),
                                 st.one_of(st.integers(-(1 << 31), 1 << 31),
                                           st.floats(allow_nan=False)),
                                 max_size=16))
    def test_memory_round_trip(self, words):
        memory = GlobalMemory()
        for addr, value in words.items():
            memory.store(addr, value)
        restored = GlobalMemory.from_payload(memory.to_payload())
        assert restored.to_payload() == memory.to_payload()
        assert restored.size_words == memory.size_words

    def test_kernel_result_round_trip(self):
        result, _ = run_program(build_counting_kernel(), GPUConfig.small(2),
                                dmr=DMRConfig.paper_default())
        payload = result.to_payload()
        restored = KernelResult.from_payload(payload)
        assert restored.to_payload() == payload
        assert restored.cycles == result.cycles
        assert restored.stats.counters() == result.stats.counters()
        assert restored.coverage.coverage_percent == \
            result.coverage.coverage_percent
        # canonical payloads pickle to identical bytes (determinism
        # tests and the disk cache rely on this)
        assert pickle.dumps(restored.to_payload()) == pickle.dumps(payload)
