"""``repro.service``: the distributed campaign fabric.

One scheduling core turns the suite runner, the campaign engine and
the CLI into thin clients:

* :mod:`repro.service.sharding` — the shared chunk-sizing/fan-out
  heuristics every fan-out in the repo routes through (the local
  fan-outs of :class:`~repro.analysis.result_cache.CachedFanout` and
  the job planner's work units alike).
* :mod:`repro.service.codec` — JSON codecs that make configs and
  specs durable (job files must survive process death and be
  readable by any worker on any host sharing the store).
* :mod:`repro.service.store` — the on-disk job store: durable job
  specs, sharded content-addressed work units, and the
  claim-by-atomic-rename protocol (exactly one claimant wins a unit;
  expired claims are requeued; orphaned results are completed).
* :mod:`repro.service.jobs` — job planning (campaign, figure and
  fan-out jobs shard into units), unit execution through the existing
  ``CampaignEngine``/``SuiteRunner`` paths, and the deterministic merge
  whose output is byte-identical to a serial in-process run.
* :mod:`repro.service.worker` — the work-stealing worker loop behind
  ``python -m repro serve --worker``, and :func:`run_fleet`, which
  works one job with forked workers (every parallel ``CachedFanout``).
* :mod:`repro.service.server` — job status/progress/finalization
  behind ``python -m repro serve`` (submit, status, watch, fetch,
  start).
* :mod:`repro.service.health` — the self-healing layer: the
  ``serve fsck [--repair]`` store auditor, crash-loop poison
  diagnosis, and worker heartbeat health.

This ``__init__`` resolves its exports lazily: the sharding helpers
are imported by low-level modules (``repro.faults.campaign``,
``repro.analysis.runner``) that the heavier service modules themselves
depend on, so eagerly importing everything here would be circular.
"""

from __future__ import annotations

_EXPORTS = {
    "balanced_chunks": "repro.service.sharding",
    "fanout_workers": "repro.service.sharding",
    "pool_chunks": "repro.service.sharding",
    "unit_chunks": "repro.service.sharding",
    "CHUNKS_PER_WORKER": "repro.service.sharding",
    "DEFAULT_UNIT_SIZE": "repro.service.sharding",
    "JobStore": "repro.service.store",
    "default_owner": "repro.service.store",
    "default_store_root": "repro.service.store",
    "canonical_json": "repro.service.store",
    "figure_registry": "repro.service.jobs",
    "submit_campaign_job": "repro.service.jobs",
    "submit_figure_job": "repro.service.jobs",
    "submit_fanout_job": "repro.service.jobs",
    "execute_unit": "repro.service.jobs",
    "merge_job": "repro.service.jobs",
    "finalize_job": "repro.service.jobs",
    "serial_merged_payload": "repro.service.jobs",
    "replan_unit_payloads": "repro.service.jobs",
    "ServiceWorker": "repro.service.worker",
    "run_fleet": "repro.service.worker",
    "ServiceServer": "repro.service.server",
    "job_status": "repro.service.server",
    "store_status": "repro.service.server",
    "watch_job": "repro.service.server",
    "FsckReport": "repro.service.health",
    "fsck_store": "repro.service.health",
    "format_fsck": "repro.service.health",
    "diagnose_poison": "repro.service.health",
    "update_poison_verdicts": "repro.service.health",
    "regenerate_lost_units": "repro.service.health",
    "worker_health": "repro.service.health",
}

__all__ = sorted(_EXPORTS)


def __getattr__(name: str):
    module_name = _EXPORTS.get(name)
    if module_name is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    import importlib
    return getattr(importlib.import_module(module_name), name)


def __dir__():
    return sorted(set(globals()) | set(_EXPORTS))
