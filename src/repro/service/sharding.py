"""Shared chunk-sizing heuristics — the scheduling core's arithmetic.

Before the service fabric, two copies of the same heuristics lived in
:meth:`repro.analysis.runner.SuiteRunner.run_many` and
:meth:`repro.faults.campaign.CampaignEngine.run`: clamp the requested
worker count to the number of cache misses, and (for campaigns) split
the misses into ~4 contiguous balanced chunks per worker.  The job
planner needs the identical arithmetic a third time — a campaign
sharded into work units must reproduce the serial run's fault order
unit-by-unit — so the heuristics live here, dependency-free, and
everything that fans out imports them.

The regression tests pin the chunk boundaries this module produces:
they are part of the worker-IPC/job-store layout contract (a unit's
content address covers its item slice, so moving a boundary re-keys
every unit).
"""

from __future__ import annotations

from typing import List, Sequence

#: chunks each pool worker receives: big enough to amortize fork/IPC,
#: small enough that one slow (e.g. HUNG) chunk can't idle the pool tail
CHUNKS_PER_WORKER = 4

#: default faults (or suite cells) per service work unit — small enough
#: that N workers interleave on a 200-sample smoke job, big enough that
#: claim/publish round-trips stay negligible next to the simulations
DEFAULT_UNIT_SIZE = 25


def balanced_chunks(items: Sequence, chunks: int) -> List[List]:
    """Split *items* into at most *chunks* contiguous, balanced chunks.

    Sizes differ by at most one, larger chunks first; concatenating the
    chunks reproduces *items* exactly.  Empty input yields no chunks.
    """
    if not items:
        return []
    items = list(items)
    chunks = max(1, min(chunks, len(items)))
    size, extra = divmod(len(items), chunks)
    out, start = [], 0
    for index in range(chunks):
        end = start + size + (1 if index < extra else 0)
        out.append(items[start:end])
        start = end
    return out


def fanout_workers(requested: int, pending: int) -> int:
    """Effective worker count for *pending* outstanding tasks.

    The clamp every cached fan-out applies (``CachedFanout.run``): one
    worker at least when asked for any, never more workers than tasks,
    zero when there is nothing to do (the caller then skips the pool).
    """
    if pending <= 0:
        return 0
    return min(max(1, requested), pending)


def pool_chunks(items: Sequence, workers: int,
                per_worker: int = CHUNKS_PER_WORKER) -> List[List]:
    """Chunk *items* for a *workers*-wide process pool.

    ~``per_worker`` chunks per worker (see :data:`CHUNKS_PER_WORKER`);
    the boundaries are exactly what ``CampaignEngine.run`` produced
    inline before the fabric existed (pinned by regression test).
    """
    return balanced_chunks(items, max(1, workers) * per_worker)


def unit_chunks(items: Sequence,
                unit_size: int = DEFAULT_UNIT_SIZE) -> List[List]:
    """Chunk *items* into service work units of ~*unit_size* each.

    Balanced, contiguous and deterministic in (items, unit_size): a
    resubmitted job re-derives the identical unit boundaries, so its
    units content-address identically and dedup against the store.
    """
    if not items:
        return []
    unit_size = max(1, unit_size)
    count = (len(items) + unit_size - 1) // unit_size
    return balanced_chunks(items, count)
