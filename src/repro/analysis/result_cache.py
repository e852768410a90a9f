"""Content-addressed on-disk cache for simulation results.

Every suite run is fully determined by (workload name, GPUConfig,
DMRConfig, scale, seed, check_outputs): the simulator is pure and the
workloads generate inputs from the seed.  The cache therefore keys each
:class:`~repro.sim.gpu.KernelResult` by a SHA-256 over the canonical
fingerprint of that tuple plus a code-version salt, and stores the
result's plain-data payload as a pickle file.  Repeated figure
regenerations, pytest runs and CLI invocations hit the cache instead of
re-simulating.

Invalidation is by construction: any config field change alters the
fingerprint (see :func:`repro.common.config.config_fingerprint`), and
bumping :data:`CACHE_SCHEMA_VERSION` or the package version salts every
key, orphaning stale entries rather than ever serving them.

Integrity (schema 2): every entry is written as a 36-byte header —
magic ``RPC2`` plus the SHA-256 of the pickled payload — followed by
the payload itself, atomically (temp file + ``os.replace``).  A read
whose bytes fail the checksum (truncated write, bit rot, a foreign
file) is *quarantined* — moved into a ``quarantine/`` subdirectory,
counted on the cache object and in the harness metrics registry — and
reported as a miss so the caller transparently recomputes.  Corruption
is therefore detected, bounded, and visible, never silently re-served
or silently discarded.

:class:`CachedFanout` is the one loop every cached caller runs on top
of the store — :class:`~repro.analysis.runner.SuiteRunner`,
:class:`~repro.faults.campaign.CampaignEngine` and the fig-sched sweep
each hold one: memory, then disk, then one simulation per distinct
miss, serial or as a job of a private :class:`~repro.service.store.JobStore`
worked by forked service workers.
"""

from __future__ import annotations

import hashlib
import os
import pathlib
import pickle
import shutil
import tempfile
from typing import Callable, Dict, List, Optional, Sequence, Union

from repro.common.config import DMRConfig, GPUConfig, config_fingerprint
from repro.common.errors import ConfigError, HarnessError
from repro.obs.metrics import MetricSnapshot, MetricsRegistry
from repro.resilience import declare_harness_metrics
from repro.service.sharding import fanout_workers, pool_chunks
from repro.sim.gpu import KernelResult

#: Bump when the cached payload layout or simulator semantics change in
#: a way not captured by any configuration field.  2 = checksummed
#: entry format (magic + SHA-256 header).
CACHE_SCHEMA_VERSION = 2

#: Entry-format magic; the 2 matches :data:`CACHE_SCHEMA_VERSION`.
ENTRY_MAGIC = b"RPC2"

#: Header layout: 4-byte magic + 32-byte SHA-256 over the payload bytes.
_HEADER_SIZE = len(ENTRY_MAGIC) + hashlib.sha256().digest_size

#: Environment variable overriding the default cache location.
CACHE_DIR_ENV = "REPRO_CACHE_DIR"


def code_version_salt() -> str:
    """Salt folded into every key so stale code never serves results."""
    from repro import __version__
    return f"repro-{__version__}-schema{CACHE_SCHEMA_VERSION}"


def default_cache_dir() -> pathlib.Path:
    """``$REPRO_CACHE_DIR``, else ``$XDG_CACHE_HOME/repro``, else ``~/.cache/repro``."""
    env = os.environ.get(CACHE_DIR_ENV)
    if env:
        return pathlib.Path(env)
    xdg = os.environ.get("XDG_CACHE_HOME")
    base = pathlib.Path(xdg) if xdg else pathlib.Path.home() / ".cache"
    return base / "repro"


def result_key(name: str, dmr: DMRConfig, config: GPUConfig,
               scale: float, seed: int, check_outputs: bool,
               obs: bool = False) -> str:
    """Stable content address of one simulation.

    Covers *every* run input — the fingerprints expand all config
    fields, and scale/seed/check_outputs ride alongside — so two runs
    share a key iff they are the same simulation.  ``obs`` keys whether
    the run carried a metrics snapshot: an obs-on result embeds the
    snapshot payload, so it must not be served to (or shadowed by) an
    obs-off request.  The execution engine is a ``config`` field:
    although the engines are bit-identical by contract, a cache hit
    must never mask an engine divergence (the differential suite that
    enforces the contract would otherwise compare one engine's cached
    result against itself), so each engine keeps its own entries.
    """
    material = config_fingerprint({
        "workload": name,
        "dmr": dmr,
        "gpu": config,
        "scale": scale,
        "seed": seed,
        "check_outputs": check_outputs,
        "obs": obs,
        "salt": code_version_salt(),
    })
    return hashlib.sha256(material.encode("utf-8")).hexdigest()


class ResultCache:
    """Persistent plain-data payload store, one pickle file per key.

    The classic use stores :class:`KernelResult` payloads (:meth:`get` /
    :meth:`put`); fault campaigns store per-fault-run payloads through
    the generic :meth:`get_payload` / :meth:`put_payload` layer — both
    kinds share one directory because the SHA-256 keys are already
    domain-salted by their material.

    Reads verify the per-entry checksum: corrupt or truncated files are
    quarantined (moved aside, counted, reported as misses) and writes
    are atomic (temp file + ``os.replace``), so concurrent runners and
    parallel workers can share one directory safely.  ``registry``
    receives the ``cache_corrupt_entries`` / ``cache_quarantined``
    counters; a :class:`CachedFanout` passes its harness registry here
    so ``python -m repro metrics`` surfaces cache integrity events.
    """

    def __init__(self, cache_dir: Optional[os.PathLike] = None,
                 registry: Optional[MetricsRegistry] = None) -> None:
        self.cache_dir = pathlib.Path(cache_dir) if cache_dir \
            else default_cache_dir()
        self.registry = registry if registry is not None \
            else MetricsRegistry()
        self.hits = 0
        self.misses = 0
        self.stores = 0
        self.corrupt = 0
        self.quarantined = 0

    # ------------------------------------------------------------------
    def _path(self, key: str) -> pathlib.Path:
        return self.cache_dir / f"{key}.pkl"

    @property
    def quarantine_dir(self) -> pathlib.Path:
        """Where corrupt entries are moved for post-mortem inspection."""
        return self.cache_dir / "quarantine"

    def _quarantine(self, path: pathlib.Path) -> None:
        """Move a corrupt entry aside so it can never be re-served.

        Best-effort: a concurrent reader may quarantine the same file
        first, and a read-only cache directory degrades to miss-only
        behavior — either way the caller recomputes.
        """
        self.corrupt += 1
        self.registry.inc("cache_corrupt_entries")
        try:
            self.quarantine_dir.mkdir(parents=True, exist_ok=True)
            os.replace(path, self.quarantine_dir / path.name)
        except OSError:
            return
        self.quarantined += 1
        self.registry.inc("cache_quarantined")

    def get_payload(self, key: str) -> Optional[object]:
        """The cached plain-data payload for *key*, or ``None`` on miss.

        A present-but-corrupt entry (bad magic, failed checksum,
        unpicklable bytes) is quarantined and counts as a miss.
        """
        path = self._path(key)
        try:
            with open(path, "rb") as handle:
                raw = handle.read()
        except OSError:
            self.misses += 1
            return None
        digest = raw[len(ENTRY_MAGIC):_HEADER_SIZE]
        blob = raw[_HEADER_SIZE:]
        if (len(raw) < _HEADER_SIZE or raw[:len(ENTRY_MAGIC)] != ENTRY_MAGIC
                or hashlib.sha256(blob).digest() != digest):
            self._quarantine(path)
            self.misses += 1
            return None
        try:
            payload = pickle.loads(blob)
        except (pickle.UnpicklingError, EOFError, KeyError, TypeError,
                AttributeError, ValueError, MemoryError):
            # checksum-valid yet unpicklable means the *writer* stored
            # garbage; quarantine it all the same
            self._quarantine(path)
            self.misses += 1
            return None
        self.hits += 1
        return payload

    def put_payload(self, key: str, payload: object) -> None:
        """Store a plain-data *payload* under *key* atomically.

        The entry only becomes visible via ``os.replace`` once its
        checksummed bytes are fully written, so readers never observe a
        partial entry; an interrupted writer leaves (at worst) a temp
        file that is swept aside, never a truncated entry.
        """
        try:
            self.cache_dir.mkdir(parents=True, exist_ok=True)
        except (FileExistsError, NotADirectoryError) as error:
            raise ConfigError(
                f"result-cache path {self.cache_dir} is not a directory"
            ) from error
        path = self._path(key)
        blob = pickle.dumps(payload, protocol=pickle.HIGHEST_PROTOCOL)
        header = ENTRY_MAGIC + hashlib.sha256(blob).digest()
        fd, tmp_name = tempfile.mkstemp(dir=self.cache_dir,
                                        suffix=".tmp")
        try:
            with os.fdopen(fd, "wb") as handle:
                handle.write(header)
                handle.write(blob)
            os.replace(tmp_name, path)
        except (KeyboardInterrupt, SystemExit):
            # interrupts must propagate unswallowed — but still sweep
            # the temp file so an aborted run cannot litter the cache
            self._discard_tmp(tmp_name)
            raise
        except Exception:
            self._discard_tmp(tmp_name)
            raise
        self.stores += 1

    @staticmethod
    def _discard_tmp(tmp_name: str) -> None:
        try:
            os.unlink(tmp_name)
        except OSError:
            pass

    def get(self, key: str, decode: Callable[[object], object]
            = KernelResult.from_payload) -> Optional[object]:
        """The cached entry for *key* decoded (by default into a
        :class:`KernelResult`), or ``None``."""
        payload = self.get_payload(key)
        if payload is None:
            return None
        try:
            return decode(payload)
        except (KeyError, TypeError, AttributeError, ValueError):
            # a readable pickle that is not the caller's kind of payload
            # is a miss, not an error (e.g. a campaign payload under a
            # colliding-by-bug key); re-book the optimistic hit
            self.hits -= 1
            self.misses += 1
            return None

    def put(self, key: str, result: KernelResult) -> None:
        """Store *result* under *key* atomically."""
        self.put_payload(key, result.to_payload())

    def __contains__(self, key: str) -> bool:
        return self._path(key).exists()

    def __len__(self) -> int:
        if not self.cache_dir.is_dir():
            return 0
        return sum(1 for _ in self.cache_dir.glob("*.pkl"))

    def clear(self) -> int:
        """Delete every entry; returns the number removed."""
        removed = 0
        if self.cache_dir.is_dir():
            for path in self.cache_dir.glob("*.pkl"):
                try:
                    path.unlink()
                    removed += 1
                except OSError:
                    pass
        return removed

    def __repr__(self) -> str:
        return (f"ResultCache({str(self.cache_dir)!r}, hits={self.hits}, "
                f"misses={self.misses}, stores={self.stores}, "
                f"corrupt={self.corrupt})")


class CachedFanout:
    """Memory, then disk, then one simulation per distinct miss.

    ``simulate(context, item)`` is a module-level function returning a
    plain-data payload — the one form that crosses to worker processes
    and lands in the disk cache — and ``decode(payload)`` turns a
    payload into the value callers get back (a stored payload that does
    not decode counts as a miss).  ``cache`` selects the persistent
    layer: ``None``/``False`` in memory only, ``True`` the default
    directory, a path, or a ready :class:`ResultCache`; a cache built
    here reports corruption into the harness registry.

    Parallel misses run as one job of a private
    :class:`~repro.service.store.JobStore`
    (:func:`~repro.service.worker.run_fleet`): dead workers, overdue
    units and flaky exceptions retry under the store's attempt budget,
    all counted in the *harness registry* (:meth:`harness_snapshot`).
    Two seams stay settable: ``deadline`` bounds one unit's wall clock
    (seconds, or a callable of the largest unit's item count; ``None``
    is unbounded) and ``chaos_plan`` points the workers at a
    :class:`~repro.resilience.chaos.ChaosPlan` directory.  ``label``
    prefixes the :meth:`cache_summary` line.
    """

    def __init__(self, simulate: Callable, decode: Callable, cache=None,
                 *, label: str = "cache") -> None:
        self.simulate = simulate
        self.decode = decode
        self.label = label
        self.harness = declare_harness_metrics(MetricsRegistry())
        self.deadline: Union[None, float,
                             Callable[[int], Optional[float]]] = None
        self.chaos_plan: Optional[str] = None
        if isinstance(cache, ResultCache):
            self.cache: Optional[ResultCache] = cache
        elif cache:
            self.cache = ResultCache(None if cache is True else cache,
                                     registry=self.harness)
        else:
            self.cache = None
        self.memory: Dict[str, object] = {}
        self.simulations = 0  # runs actually executed (here or in workers)

    # ------------------------------------------------------------------
    def _lookup(self, key: str) -> Optional[object]:
        """The value under *key* from memory, else from disk (promoted
        into memory), else ``None``."""
        value = self.memory.get(key)
        if value is None and self.cache is not None:
            value = self.cache.get(key, self.decode)
            if value is not None:
                self.memory[key] = value
        return value

    def _land(self, key: str, payload: object) -> object:
        """Keep one fresh payload: memory, then disk straight away, so an
        interrupted run resumes from everything that landed."""
        value = self.memory[key] = self.decode(payload)
        self.simulations += 1
        if self.cache is not None:
            self.cache.put_payload(key, payload)
        return value

    def run(self, keys: Sequence[str], items: Sequence,
            context: Callable[[], object], workers: int = 1) -> List:
        """The values for *keys* (paired with *items*), in order.

        Duplicate keys simulate once.  ``context()`` supplies what every
        miss shares; it is called only when something misses (a campaign
        computes its golden run there).  With more than one worker and
        more than one miss, the misses run as a fan-out job of a
        private, temporary store (units of
        :func:`~repro.service.sharding.pool_chunks`) and their payloads
        land in key order, unit by unit as the units finish; otherwise
        they run here one by one, each persisted as it lands.
        """
        missing: Dict[str, object] = {}
        for key, item in zip(keys, items):
            if key not in missing and self._lookup(key) is None:
                missing[key] = item
        shared = context() if missing else None
        workers = fanout_workers(workers, len(missing))
        if workers <= 1:
            for key, item in missing.items():
                self._land(key, self.simulate(shared, item))
            return [self.memory[key] for key in keys]

        from repro.service.jobs import submit_fanout_job
        from repro.service.store import JobStore
        from repro.service.worker import run_fleet

        deadline = self.deadline
        if callable(deadline):
            deadline = deadline(len(pool_chunks(missing, workers)[0]))
        root = tempfile.mkdtemp(prefix="repro-fanout-")
        try:
            store = JobStore(root)
            fleet_cache = ResultCache(store.cache_dir)

            def land_unit(result: dict) -> None:
                for key in result["keys"]:
                    payload = fleet_cache.get_payload(key)
                    if payload is None:
                        raise HarnessError(f"fan-out unit {result['unit']} "
                                           f"left no readable payload for "
                                           f"{key}")
                    self._land(key, payload)

            job_id = submit_fanout_job(store, self.simulate, shared,
                                       list(missing.values()), list(missing),
                                       workers)
            run_fleet(store, job_id, workers, land_unit, deadline=deadline,
                      chaos_plan=self.chaos_plan, registry=self.harness)
        finally:
            shutil.rmtree(root, ignore_errors=True)
        return [self.memory[key] for key in keys]

    # ------------------------------------------------------------------
    def harness_snapshot(self) -> MetricSnapshot:
        """Harness counters (retries, timeouts, worker deaths, cache
        corruption/quarantines) accumulated so far."""
        return MetricSnapshot.from_registry(self.harness)

    def cache_summary(self) -> str:
        """One-line accounting, printed to stderr by the CLI."""
        parts = [f"simulations={self.simulations}",
                 f"memory-entries={len(self.memory)}"]
        if self.cache is not None:
            pc = self.cache
            parts.append(f"disk-hits={pc.hits}")
            parts.append(f"disk-stores={pc.stores}")
            if pc.corrupt:
                parts.append(f"corrupt={pc.corrupt}")
                parts.append(f"quarantined={pc.quarantined}")
            parts.append(f"dir={pc.cache_dir}")
        for counter, name in (("fanout_retries", "retries"),
                              ("fanout_timeouts", "timeouts"),
                              ("fanout_worker_deaths", "worker-deaths")):
            value = self.harness.value(counter)
            if value:
                parts.append(f"{name}={value}")
        return f"{self.label}: " + " ".join(parts)
