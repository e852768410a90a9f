"""Job planning, unit execution and deterministic merging.

A *job* is a campaign, a figure regeneration or a fan-out, sharded
into content-addressed work units:

* a **campaign job** samples its fault population exactly the way
  ``python -m repro campaign`` does (golden run → horizon → stratified
  sample), then shards the fault list into units of ~``unit_size``
  faults.  Each unit executes through the existing
  :class:`~repro.faults.campaign.CampaignEngine` path against the
  store's shared classification cache, so a fault classified by *any*
  worker is never simulated again by another.
* a **figure job** shards a figure's suite cells — the same
  ``(workload, dmr, gpu)`` specs its driver prefetches — into units
  executed through :class:`~repro.analysis.runner.SuiteRunner` against
  the same shared cache; the merge step replays the driver over a
  fully warm cache (zero simulations) to produce the figure data,
  through the same runner as the units this process executed, so the
  cells they decoded are not read back.
* a **fan-out job** is the parallel branch of
  :class:`~repro.analysis.result_cache.CachedFanout`, submitted into a
  private, temporary store: its task table ``(simulate, context,
  items, keys)`` is one checksummed entry in the job directory, its
  units are :func:`~repro.service.sharding.pool_chunks` slices of item
  indices, and each unit stores its payloads in the store's cache and
  publishes only their keys (payloads never pass through canonical
  JSON, which rejects NaN).

The merge is deterministic by construction: units partition the item
list contiguously and are folded back in index order, so the merged
runs equal the serial in-process run's, the merged snapshot equals
``CampaignResult.metrics()`` of the serial run (snapshot merge is
associative/commutative), and the merged JSON bytes are identical
whether produced cold, warm, by one worker or by twenty —
:func:`serial_merged_payload` computes the reference bytes for the
acceptance tests and the CI smoke.
"""

from __future__ import annotations

import hashlib
import time
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.common.errors import ConfigError, HarnessError
from repro.service import codec
from repro.service.sharding import (DEFAULT_UNIT_SIZE, pool_chunks,
                                    unit_chunks)
from repro.service.store import JobStore, job_id_for, unit_id_for

#: coverage-interval confidence baked into merged campaign outputs
MERGED_CONFIDENCE = 0.95

#: cache key of a fan-out job's task table (``<job dir>/table.pkl``)
FANOUT_TABLE = "table"

#: the task table this process loaded last, by job directory (a
#: fan-out worker works one job, so one entry is kept)
_FANOUT_TABLES: Dict[str, Tuple] = {}

#: the figure job's runner this process built last, by job directory
#: and cache: the job's units and its merge share it, so the merge's
#: driver replay hits the cells the units already decoded (one entry
#: is kept, as for :data:`_FANOUT_TABLES`)
_FIGURE_RUNNERS: Dict[Tuple[str, str], object] = {}


def _result_cache(store: JobStore):
    from repro.analysis.result_cache import ResultCache
    return ResultCache(store.cache_dir)


# ----------------------------------------------------------------------
# Figure registry: (specs, run, format) per service-schedulable figure
# ----------------------------------------------------------------------
def figure_registry() -> Dict[str, Tuple]:
    """Figures the service can shard: name -> (specs_fn, run_fn, format_fn).

    Only cache-backed figures qualify (``fig10`` launches redundant
    variants outside the cache and ``fig-pareto``/``fig9a-sampled``
    are campaigns — submit those as campaign jobs instead).  Every
    ``specs_fn(runner)`` returns exactly the cells the driver
    prefetches, so a finished job's merge replays the driver as pure
    cache hits.
    """
    from repro.analysis import (active_threads, coverage_sweep, inst_mix,
                                overhead_sweep, power_energy, raw_distance,
                                switching)
    return {
        "fig1": (active_threads.figure1_specs, active_threads.run_figure1,
                 active_threads.format_figure1),
        "fig5": (inst_mix.figure5_specs, inst_mix.run_figure5,
                 inst_mix.format_figure5),
        "fig8a": (switching.figure8a_specs, switching.run_figure8a,
                  switching.format_figure8a),
        "fig8b": (raw_distance.figure8b_specs, raw_distance.run_figure8b,
                  raw_distance.format_figure8b),
        "fig9a": (coverage_sweep.figure9a_specs, coverage_sweep.run_figure9a,
                  coverage_sweep.format_figure9a),
        "fig9b": (overhead_sweep.figure9b_specs, overhead_sweep.run_figure9b,
                  overhead_sweep.format_figure9b),
        "fig9b-stalls": (overhead_sweep.figure9b_stalls_specs,
                         overhead_sweep.run_figure9b_stalls,
                         overhead_sweep.format_figure9b_stalls),
        "fig11": (power_energy.figure11_specs, power_energy.run_figure11,
                  power_energy.format_figure11),
    }


# ----------------------------------------------------------------------
# Planning
# ----------------------------------------------------------------------
def submit_campaign_job(store: JobStore, spec, samples: int,
                        windows: int = 4,
                        unit_size: int = DEFAULT_UNIT_SIZE,
                        epoch: int = 0) -> Tuple[str, bool]:
    """Plan a campaign job into the store; returns ``(job_id, created)``.

    Planning performs (or cache-hits) the golden run — the horizon the
    fault sampler stratifies over — through the store's shared cache,
    exactly like the serial CLI path, then shards the deterministic
    fault list into units.  The job id covers spec, sampling, sharding,
    epoch and the code-version salt, so an identical resubmission
    dedups onto the existing job (``created=False``); bump ``epoch``
    to force a fresh job over the same (warm) classification cache.
    """
    from repro.analysis.result_cache import code_version_salt
    from repro.faults.campaign import CampaignEngine
    from repro.faults.models import fault_to_payload
    from repro.faults.sampler import FaultSampler

    spec_payload = codec.campaign_spec_to_payload(spec)
    material = {
        "kind": "campaign",
        "spec": spec_payload,
        "samples": int(samples),
        "windows": int(windows),
        "unit_size": int(unit_size),
        "epoch": int(epoch),
        "salt": code_version_salt(),
    }
    if not (store.job_dir(job_id_for(material)) / "job.json").exists():
        # refuse a degraded store *before* the golden run, not after —
        # a refused submit costs nothing and writes nothing
        store.check_admission()
    engine = CampaignEngine(spec, cache=_result_cache(store))
    horizon = engine.golden_result().cycles
    sampler = FaultSampler(spec.config, windows=windows)
    faults = sampler.sample(samples, horizon, seed=spec.seed)
    items = [fault_to_payload(fault) for fault in faults]
    payload = {
        "kind": "campaign",
        "material": material,
        "spec": spec_payload,
        "samples": int(samples),
        "windows": int(windows),
        "epoch": int(epoch),
        "horizon": horizon,
        "submitted_unix": time.time(),
    }
    return store.create_job(payload,
                            _units(material, unit_chunks(items, unit_size)))


def submit_figure_job(store: JobStore, figure: str, scale: float = 0.5,
                      sms: int = 2, seed: int = 0,
                      unit_size: int = DEFAULT_UNIT_SIZE,
                      epoch: int = 0) -> Tuple[str, bool]:
    """Plan a figure job: one unit per ~``unit_size`` suite cells."""
    from repro.analysis.result_cache import code_version_salt
    from repro.analysis.runner import SuiteRunner, experiment_config

    registry = figure_registry()
    if figure not in registry:
        raise ConfigError(
            f"figure {figure!r} is not service-schedulable; choose from "
            f"{sorted(registry)}"
        )
    specs_fn = registry[figure][0]
    config = experiment_config(num_sms=sms)
    # a throwaway runner carries the defaults spec enumeration needs;
    # nothing is simulated here
    runner = SuiteRunner(config, scale=scale, seed=seed)
    items = codec.resolve_run_specs(specs_fn(runner), None, config)
    material = {
        "kind": "figure",
        "figure": figure,
        "config": codec.gpu_config_to_payload(config),
        "scale": scale,
        "seed": int(seed),
        "unit_size": int(unit_size),
        "epoch": int(epoch),
        "salt": code_version_salt(),
    }
    payload = {
        "kind": "figure",
        "material": material,
        "figure": figure,
        "config": material["config"],
        "scale": scale,
        "seed": int(seed),
        "epoch": int(epoch),
        "submitted_unix": time.time(),
    }
    return store.create_job(payload,
                            _units(material, unit_chunks(items, unit_size)))


def submit_fanout_job(store: JobStore, simulate: Callable, context,
                      items: Sequence, keys: Sequence[str],
                      workers: int) -> str:
    """Plan a fan-out job: ``simulate(context, items[i])`` for every
    item, its payload stored under ``keys[i]``; returns the job id.

    The task table is pickled into ``<job dir>/table.pkl`` before the
    manifest lands, and the units are the
    :func:`~repro.service.sharding.pool_chunks` slices of the item
    indices for *workers* workers.
    """
    from repro.analysis.result_cache import ResultCache

    material = {
        "kind": "fanout",
        "items": len(items),
        "workers": int(workers),
        "keys": hashlib.sha256("".join(keys).encode("ascii")).hexdigest(),
    }
    job_id = job_id_for(material)
    ResultCache(store.job_dir(job_id)).put_payload(
        FANOUT_TABLE, (simulate, context, list(items), list(keys)))
    job_id, _ = store.create_job({"kind": "fanout", "material": material},
                                 _fanout_units(material))
    return job_id


def _fanout_units(material: dict) -> List[dict]:
    return _units(material, pool_chunks(range(material["items"]),
                                        material["workers"]))


def _units(material: dict, chunks: List[List]) -> List[dict]:
    job_id = job_id_for(material)
    units = []
    for index, chunk in enumerate(chunks):
        units.append({
            "unit": unit_id_for(job_id, index, chunk),
            "index": index,
            "kind": material["kind"],
            "items": chunk,
        })
    return units


def replan_unit_payloads(job: dict) -> List[dict]:
    """Rebuild a job's planned unit payloads from its manifest alone.

    Unit payloads are pure functions of the durable job material — a
    campaign's fault list re-samples from the *stored* horizon (so no
    golden run, no simulation), a figure's suite cells re-resolve from
    the registry — and unit ids are content addresses over the result,
    so the rebuilt payloads are byte-identical to the planner's.  This
    is what lets :mod:`repro.service.health` regenerate a lost or
    corrupt unit file instead of declaring the job dead.
    """
    material = job["material"]
    if job["kind"] == "campaign":
        from repro.faults.campaign import CampaignEngine  # noqa: F401
        from repro.faults.models import fault_to_payload
        from repro.faults.sampler import FaultSampler

        spec = codec.campaign_spec_from_payload(job["spec"])
        sampler = FaultSampler(spec.config, windows=job["windows"])
        faults = sampler.sample(job["samples"], job["horizon"],
                                seed=spec.seed)
        items = [fault_to_payload(fault) for fault in faults]
    elif job["kind"] == "figure":
        from repro.analysis.runner import SuiteRunner

        registry = figure_registry()
        specs_fn = registry[job["figure"]][0]
        config = codec.gpu_config_from_payload(job["config"])
        runner = SuiteRunner(config, scale=job["scale"], seed=job["seed"])
        items = codec.resolve_run_specs(specs_fn(runner), None, config)
    elif job["kind"] == "fanout":
        return _fanout_units(material)
    else:
        raise ConfigError(f"unknown job kind {job['kind']!r}")
    return _units(material, unit_chunks(items, material["unit_size"]))


# ----------------------------------------------------------------------
# Execution
# ----------------------------------------------------------------------
def execute_unit(store: JobStore, job: dict, unit: dict,
                 owner: str) -> Tuple[dict, dict]:
    """Run one claimed unit; returns ``(result, telemetry)`` payloads.

    The result payload is deterministic (byte-idempotent across
    duplicate executions); telemetry carries the execution-specific
    numbers (owner, seconds, simulations actually run).
    """
    started = time.perf_counter()
    if job["kind"] == "campaign":
        result, simulations = _execute_campaign_unit(store, job, unit)
    elif job["kind"] == "figure":
        result, simulations = _execute_figure_unit(store, job, unit)
    elif job["kind"] == "fanout":
        result, simulations = _execute_fanout_unit(store, job, unit)
    else:
        raise ConfigError(f"unknown job kind {job['kind']!r}")
    telemetry = {
        "unit": unit["unit"],
        "owner": owner,
        "items": len(unit["items"]),
        "simulations": simulations,
        "seconds": time.perf_counter() - started,
    }
    return result, telemetry


def _execute_campaign_unit(store: JobStore, job: dict,
                           unit: dict) -> Tuple[dict, int]:
    from repro.faults.campaign import CampaignEngine
    from repro.faults.models import fault_from_payload

    spec = codec.campaign_spec_from_payload(job["spec"])
    faults = [fault_from_payload(item) for item in unit["items"]]
    engine = CampaignEngine(spec, cache=_result_cache(store))
    result = engine.run(faults)
    return (
        {"unit": unit["unit"],
         "runs": [run.to_payload() for run in result.runs]},
        engine.simulations,
    )


def _execute_figure_unit(store: JobStore, job: dict,
                         unit: dict) -> Tuple[dict, int]:
    runner = _figure_runner(store, job)
    specs = [codec.run_spec_from_payload(item) for item in unit["items"]]
    before = runner.simulations
    runner.run_many(specs)
    return ({"unit": unit["unit"], "cells": len(specs)},
            runner.simulations - before)


def _execute_fanout_unit(store: JobStore, job: dict,
                         unit: dict) -> Tuple[dict, int]:
    from repro.analysis.result_cache import ResultCache

    path = str(store.job_dir(job["job_id"]))
    if path not in _FANOUT_TABLES:
        table = ResultCache(path).get_payload(FANOUT_TABLE)
        if table is None:
            raise HarnessError(f"fan-out job {job['job_id']} has no "
                               f"readable task table")
        _FANOUT_TABLES.clear()
        _FANOUT_TABLES[path] = table
    simulate, context, items, keys = _FANOUT_TABLES[path]
    cache = _result_cache(store)
    for index in unit["items"]:
        cache.put_payload(keys[index], simulate(context, items[index]))
    return ({"unit": unit["unit"],
             "keys": [keys[index] for index in unit["items"]]},
            len(unit["items"]))


def _figure_runner(store: JobStore, job: dict):
    """The figure job's :class:`~repro.analysis.runner.SuiteRunner`,
    shared by its units and its merge in this process."""
    from repro.analysis.runner import SuiteRunner

    key = (str(store.job_dir(job["job_id"])), str(store.cache_dir))
    runner = _FIGURE_RUNNERS.get(key)
    if runner is None:
        runner = SuiteRunner(
            codec.gpu_config_from_payload(job["config"]),
            scale=job["scale"], seed=job["seed"],
            cache=_result_cache(store),
        )
        _FIGURE_RUNNERS.clear()
        _FIGURE_RUNNERS[key] = runner
    return runner


# ----------------------------------------------------------------------
# Merging
# ----------------------------------------------------------------------
def campaign_merged_payload(workload: str, scheme: str, scale: float,
                            seed: int, runs: List[dict]) -> dict:
    """The deterministic merged form of a campaign's classified runs.

    Shared by the service merge and :func:`serial_merged_payload`, so
    "service output == serial output" is a byte comparison, not a
    field-by-field one.  Deliberately excludes anything
    execution-dependent (simulations, timings, worker identities).
    """
    from repro.faults.campaign import CampaignResult, FaultRun

    result = CampaignResult(runs=[FaultRun.from_payload(p) for p in runs])
    low, high = result.coverage_interval(MERGED_CONFIDENCE)
    return {
        "kind": "campaign",
        "workload": workload,
        "scheme": scheme,
        "scale": scale,
        "seed": seed,
        "samples": result.total,
        "runs": runs,
        "outcomes": result.summary(),
        "coverage": {
            "rate": result.detection_rate,
            "detected": result.detected_runs,
            "harmful": result.harmful_runs,
            "confidence": MERGED_CONFIDENCE,
            "low": low,
            "high": high,
        },
        "snapshot": result.metrics().to_payload(),
    }


def merge_job(store: JobStore, job_id: str) -> Optional[dict]:
    """Fold a fully classified job's unit results into merged output.

    Returns ``None`` while any unit result is still missing or
    unreadable (the read quarantines it, which leaves that unit lost
    until the next sweep restores it).  Units are folded in index
    order (their ids sort by index), which reproduces the serial item
    order exactly.
    """
    job = store.load_job(job_id)
    if job is None:
        return None
    results = []
    for entry in job["units"]:
        payload = store.unit_result(job_id, entry["unit"])
        if payload is None:
            return None
        if not result_shape_ok(job["kind"], payload, entry["count"]):
            # parses and carries the right unit id, but does not cover
            # its whole item slice (a truncated writer that still left
            # valid JSON) — quarantine rather than merge a short read;
            # the unit is then lost, and the next sweep restores and
            # re-executes it (cache replay, not re-simulation)
            store.quarantine_result(job_id, entry["unit"])
            return None
        results.append(payload)
    if job["kind"] == "campaign":
        runs: List[dict] = []
        for payload in results:
            runs.extend(payload["runs"])
        spec = job["spec"]
        return campaign_merged_payload(
            spec["workload"], spec["scheme"], spec["scale"], spec["seed"],
            runs,
        )
    if job["kind"] == "figure":
        registry = figure_registry()
        _, run_fn, format_fn = registry[job["figure"]]
        runner = _figure_runner(store, job)
        data = run_fn(runner)
        return {
            "kind": "figure",
            "figure": job["figure"],
            "scale": job["scale"],
            "seed": job["seed"],
            "data": data,
            "table": format_fn(data),
        }
    if job["kind"] == "fanout":
        return {"kind": "fanout",
                "keys": [key for payload in results
                         for key in payload["keys"]]}
    raise ConfigError(f"unknown job kind {job['kind']!r}")


def result_shape_ok(kind: str, payload: dict, count: int) -> bool:
    """A unit result must cover exactly its manifest item count (the
    merge and ``serve fsck`` both judge published results by this)."""
    if kind == "campaign":
        runs = payload.get("runs")
        return isinstance(runs, list) and len(runs) == count
    if kind == "figure":
        return payload.get("cells") == count
    if kind == "fanout":
        keys = payload.get("keys")
        return isinstance(keys, list) and len(keys) == count
    return True


def finalize_job(store: JobStore, job_id: str) -> bool:
    """Merge *job_id* if every unit is done and no merge exists yet.

    Any client may call this (workers do when idle, the server every
    poll, ``status``/``fetch`` on demand): the merge is deterministic,
    so concurrent finalizers write identical bytes.
    """
    if store.merged_path(job_id).exists():
        return False
    counts = store.counts(job_id)
    if not counts["total"] or counts["done"] < counts["total"]:
        return False
    merged = merge_job(store, job_id)
    if merged is None:
        return False
    store.write_merged(job_id, merged)
    return True


def serial_merged_payload(job: dict) -> dict:
    """The serial in-process reference output for a campaign *job*.

    Re-runs the whole campaign in this process with no persistent
    cache — the byte-identity oracle for the acceptance tests and the
    ``serve-smoke`` CI job.
    """
    from repro.faults.campaign import CampaignEngine
    from repro.faults.sampler import FaultSampler

    if job["kind"] != "campaign":
        raise ConfigError("serial reference is defined for campaign jobs")
    spec = codec.campaign_spec_from_payload(job["spec"])
    sampler = FaultSampler(spec.config, windows=job["windows"])
    faults = sampler.sample(job["samples"], job["horizon"], seed=spec.seed)
    engine = CampaignEngine(spec)
    result = engine.run(faults)
    return campaign_merged_payload(
        job["spec"]["workload"], job["spec"]["scheme"],
        job["spec"]["scale"], job["spec"]["seed"],
        [run.to_payload() for run in result.runs],
    )
