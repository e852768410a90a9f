"""CampaignEngine tests: caching, resumption, fan-out, CI bracketing.

The scaled-campaign acceptance criteria, asserted:

* a warm-cache rerun (or an interrupted campaign resumed) performs
  **zero** new simulations and returns byte-identical payloads;
* parallel fan-out classifies identically to the serial loop;
* the sampled coverage interval brackets the exhaustively measured
  coverage on a small kernel.
"""

from __future__ import annotations

import random
from dataclasses import replace

import pytest

from repro.analysis.result_cache import ResultCache
from repro.analysis.runner import SuiteRunner
from repro.common.config import DMRConfig, GPUConfig
from repro.faults.campaign import (CampaignEngine, CampaignSpec, Outcome,
                                   fault_run_key)
from repro.faults.models import TransientFault, fault_from_payload
from repro.faults.sampler import FaultSampler
from repro.isa.opcodes import UnitType
from repro.service import codec
from repro.service.jobs import submit_campaign_job
from repro.service.store import JobStore
from repro.service.worker import ServiceWorker
from repro.sim.gpu import GPU

from tests.conftest import CountingSpec, counting_spec


@pytest.fixture
def spec() -> CampaignSpec:
    return CampaignSpec(workload="scan", config=GPUConfig.small(1),
                        dmr=DMRConfig.paper_default(), scale=0.25)


def sampled_faults(spec: CampaignSpec, n: int, seed: int = 3) -> list:
    horizon = CampaignEngine(spec).golden_result().cycles
    return FaultSampler(spec.config, windows=2).sample(n, horizon, seed=seed)


class TestResumableCache:
    def test_warm_rerun_performs_zero_simulations(self, spec, tmp_path):
        faults = sampled_faults(spec, 8)
        cold = CampaignEngine(spec, cache=tmp_path)
        cold_result = cold.run(faults)
        assert cold.simulations == len(faults)

        warm = CampaignEngine(spec, cache=tmp_path)  # fresh process stand-in
        warm_result = warm.run(faults)
        assert warm.simulations == 0
        assert ([r.to_payload() for r in warm_result.runs]
                == [r.to_payload() for r in cold_result.runs])

    def test_interrupted_campaign_resumes_incrementally(self, spec, tmp_path):
        faults = sampled_faults(spec, 8)
        first = CampaignEngine(spec, cache=tmp_path)
        first.run(faults[:5])  # "interrupted" after 5 classifications

        resumed = CampaignEngine(spec, cache=tmp_path)
        result = resumed.run(faults)
        assert resumed.simulations == len(faults) - 5
        assert result.total == len(faults)

    def test_golden_run_computed_once_ever(self, spec, tmp_path):
        first = CampaignEngine(spec, cache=tmp_path)
        golden = first.golden_result()

        second = CampaignEngine(spec, cache=tmp_path)
        assert second.persistent_cache.hits == 0
        again = second.golden_result()
        assert second.persistent_cache.hits == 1
        assert again.to_payload() == golden.to_payload()

    def test_golden_run_shares_the_suite_baseline(self, spec, tmp_path,
                                                  monkeypatch):
        """A figure's baseline and a campaign's golden run are one
        simulation: the campaign cache-hits the suite runner's entry."""
        launches = []
        launch = GPU.launch

        def counting_launch(gpu, *args, **kwargs):
            launches.append(args)
            return launch(gpu, *args, **kwargs)

        monkeypatch.setattr(GPU, "launch", counting_launch)
        runner = SuiteRunner(spec.config, scale=spec.scale, seed=spec.seed,
                             cache=tmp_path)
        baseline = runner.baseline(spec.workload)
        engine = CampaignEngine(spec, cache=runner.persistent_cache)
        golden = engine.golden_result()
        assert len(launches) == 1
        assert golden.to_payload() == baseline.to_payload()

    def test_golden_run_checks_its_output(self, tmp_path):
        """Every classification compares against the golden output, so
        a golden run that fails its workload check is never cached."""
        def reject(memory):
            raise AssertionError("golden output rejected")

        class Rejected(CountingSpec):
            def prepare(self):
                run = super().prepare()
                run.check = reject
                return run

        spec = Rejected(workload="counting-rejected",
                        config=GPUConfig.small(1),
                        dmr=DMRConfig.paper_default())
        engine = CampaignEngine(spec, cache=tmp_path)
        with pytest.raises(AssertionError, match="golden output rejected"):
            engine.golden_result()
        assert len(engine.persistent_cache) == 0

    def test_golden_output_extracted_once(self, spec, monkeypatch):
        """Each faulty run prepares its own workload; the golden output
        it is compared against is prepared once per engine."""
        faults = sampled_faults(spec, 3)
        engine = CampaignEngine(spec)
        engine.golden_result()
        prepares = []
        prepare = CampaignSpec.prepare

        def counting_prepare(self):
            prepares.append(self)
            return prepare(self)

        monkeypatch.setattr(CampaignSpec, "prepare", counting_prepare)
        for fault in faults:
            engine.run_fault(fault)
        assert len(prepares) == len(faults) + 1

    def test_duplicate_faults_simulate_once(self, spec):
        fault = sampled_faults(spec, 1)[0]
        engine = CampaignEngine(spec)
        result = engine.run([fault, fault, fault])
        assert engine.simulations == 1
        assert result.total == 3
        assert len({r.outcome for r in result.runs}) == 1

    def test_key_covers_fault_and_spec(self, spec):
        fault = sampled_faults(spec, 1)[0]
        other_fault = TransientFault(sm_id=fault.sm_id,
                                     hw_lane=fault.hw_lane,
                                     unit=fault.unit, bit=fault.bit,
                                     cycle=fault.cycle + 1)
        assert fault_run_key(spec, fault) != fault_run_key(spec, other_fault)
        assert (fault_run_key(replace(spec, seed=1), fault)
                != fault_run_key(spec, fault))
        # the config names the engine, so each engine's
        # classifications stay apart, as suite results do
        assert (fault_run_key(replace(spec, config=replace(
                    spec.config, engine="scalar")), fault)
                != fault_run_key(replace(spec, config=replace(
                    spec.config, engine="fast")), fault))


class TestEngineIsAConfigField:
    """``GPUConfig.engine`` is the one engine knob, and every key and
    durable job spec carries it."""

    def test_job_json_carries_the_submitters_engine(self, tmp_path,
                                                    monkeypatch):
        """A worker whose ``$REPRO_EXEC`` differs from the submitter's
        still runs the submitter's engine: it rides in ``job.json``."""
        monkeypatch.setenv("REPRO_EXEC", "scalar")
        spec = CampaignSpec(workload="scan", config=GPUConfig.small(1),
                            dmr=DMRConfig.paper_default(), scale=0.25)
        assert spec.config.engine == "scalar"
        store = JobStore(tmp_path / "store")
        job_id, _ = submit_campaign_job(store, spec, samples=2, windows=1)

        monkeypatch.setenv("REPRO_EXEC", "fast")
        job = store.load_job(job_id)
        assert codec.campaign_spec_from_payload(job["spec"]) == spec
        worker = ServiceWorker(store, owner="fast-env")
        while worker.run_once() is not None:
            pass
        cache = ResultCache(store.cache_dir)
        fast_spec = replace(spec, config=replace(spec.config,
                                                 engine="fast"))
        for run in store.read_merged(job_id)["runs"]:
            fault = fault_from_payload(run["fault"])
            assert cache.get_payload(fault_run_key(spec, fault)) == run
            assert cache.get_payload(fault_run_key(fast_spec, fault)) is None


class TestParallelFanOut:
    def test_parallel_matches_serial(self, spec):
        faults = sampled_faults(spec, 10)
        serial = CampaignEngine(spec).run(faults)
        parallel = CampaignEngine(spec, jobs=2).run(faults)
        assert ([r.to_payload() for r in parallel.runs]
                == [r.to_payload() for r in serial.runs])

    def test_parallel_workers_populate_shared_cache(self, spec, tmp_path):
        faults = sampled_faults(spec, 6)
        cold = CampaignEngine(spec, cache=tmp_path, jobs=2)
        cold.run(faults)
        assert cold.simulations == len(faults)

        warm = CampaignEngine(spec, cache=tmp_path)
        warm.run(faults)
        assert warm.simulations == 0


class TestSampledCoverageBracketsExhaustive:
    """The statistical-validity acceptance criterion.

    Enumerate a small transient-fault universe on the counting kernel,
    measure its coverage exhaustively, then estimate it from a uniform
    sample: the sample's 95% interval must bracket the exhaustive rate.
    """

    #: a 20-thread block leaves the last SIMT cluster partially idle, so
    #: intra-warp DMR engages with real gaps and the exhaustive coverage
    #: lands strictly inside (0, 1) — bracketing an interior rate is a
    #: much stronger check than bracketing a saturated 0% or 100%
    THREADS = 20

    @pytest.fixture(scope="class")
    def campaign(self):
        return CampaignEngine(counting_spec(self.THREADS, iterations=6))

    @pytest.fixture(scope="class")
    def universe(self, campaign):
        horizon = campaign.golden_result().cycles
        cycles = [horizon // 5 * step for step in range(1, 5)]
        return [
            TransientFault(sm_id=0, hw_lane=lane, unit=UnitType.SP,
                           bit=bit, cycle=cycle)
            for lane in range(0, self.THREADS, 2)
            for bit in (0, 7, 31)
            for cycle in cycles
        ]

    @pytest.fixture(scope="class")
    def exhaustive(self, campaign, universe):
        return {id(f): campaign.run_fault(f) for f in universe}

    def test_interval_brackets_exhaustive_rate(self, campaign, universe,
                                               exhaustive):
        from repro.faults.campaign import CampaignResult

        full = CampaignResult(runs=list(exhaustive.values()))
        assert full.harmful_runs > 0, "universe too tame to measure"
        true_rate = full.detection_rate
        assert 0.0 < true_rate < 1.0, "universe rate degenerated"

        rng = random.Random(5)
        sample = CampaignResult(
            runs=[exhaustive[id(f)] for f in rng.sample(universe, 36)]
        )
        low, high = sample.coverage_interval(0.95)
        assert low <= true_rate <= high

    def test_exhaustive_interval_tightens_around_rate(self, exhaustive):
        from repro.faults.campaign import CampaignResult

        full = CampaignResult(runs=list(exhaustive.values()))
        low, high = full.coverage_interval(0.95)
        assert low <= full.detection_rate <= high

    def test_outcomes_partition_the_universe(self, exhaustive):
        from repro.faults.campaign import CampaignResult

        full = CampaignResult(runs=list(exhaustive.values()))
        assert sum(full.summary().values()) == full.total
        assert full.detected_runs == (full.count(Outcome.DETECTED)
                                      + full.count(Outcome.DETECTED_AND_CORRUPT))


class TestCampaignResultAccounting:
    def test_workload_campaign_end_to_end(self, spec):
        engine = CampaignEngine(spec)
        result = engine.run(sampled_faults(spec, 12))
        assert result.total == 12
        assert 0.0 <= result.detection_rate <= 1.0
        low, high = result.coverage_interval()
        assert 0.0 <= low <= high <= 1.0
        assert result.harmful_runs <= result.total

    def test_cache_summary_format(self, spec, tmp_path):
        engine = CampaignEngine(spec, cache=tmp_path)
        engine.run(sampled_faults(spec, 2))
        summary = engine.cache_summary()
        assert "simulations=2" in summary
        assert "disk-stores=" in summary

    def test_golden_output_matches_workload_check(self, spec):
        engine = CampaignEngine(spec)
        run = spec.prepare()
        run.memory = engine.golden_result().memory
        run.check(run.memory)  # golden run must be a correct execution
