"""Deadline calibration shared by the campaign watchdog and fan-outs.

Both watchdogs in this codebase answer the same question — "how long
can this run take before we call it hung?" — and both answer it the
same way: proportional to the measured fault-free runtime, plus a fixed
slack, capped by an absolute ceiling.  PR 3 introduced the *cycle*
flavor (the simulator raises once a faulty run exceeds its budget and
the campaign classifies it ``HUNG``); fan-outs add the *wall-clock*
flavor (the parent kills a worker whose unit exceeds its budget and
charges the unit a structured :class:`~repro.common.errors.TaskTimeout`).

This module is the single home of that calibration.  The campaign
module re-exports :func:`cycle_budget` and its defaults for backward
compatibility, but no longer carries its own copy.
"""

from __future__ import annotations

#: default cycle-watchdog parameters (both campaign harnesses)
DEFAULT_WATCHDOG_FACTOR = 8
DEFAULT_WATCHDOG_SLACK = 5_000
DEFAULT_MAX_FAULTY_CYCLES = 500_000

#: default wall-clock deadline parameters (fan-out units)
DEFAULT_WALL_FACTOR = 10.0
DEFAULT_WALL_SLACK = 5.0
DEFAULT_MAX_TASK_SECONDS = 600.0


def cycle_budget(golden_cycles: int,
                 factor: int = DEFAULT_WATCHDOG_FACTOR,
                 slack: int = DEFAULT_WATCHDOG_SLACK,
                 cap: int = DEFAULT_MAX_FAULTY_CYCLES) -> int:
    """Watchdog budget (in kernel cycles) for one faulty run.

    Proportional to the golden runtime (a fault can slow a kernel —
    extra divergence, longer convergence loops — but not by ~an order
    of magnitude without being livelocked), plus a fixed slack so tiny
    kernels aren't budgeted below scheduler-warmup noise.
    """
    return max(1, min(cap, factor * golden_cycles + slack))


def wall_budget(golden_seconds: float,
                factor: float = DEFAULT_WALL_FACTOR,
                slack: float = DEFAULT_WALL_SLACK,
                cap: float = DEFAULT_MAX_TASK_SECONDS) -> float:
    """Wall-clock deadline (in seconds) for one fan-out unit.

    The same calibration shape as :func:`cycle_budget`, applied to the
    parent's clock: ``factor`` times the measured fault-free runtime of
    the work the unit performs, plus ``slack`` seconds so fork/import
    overhead and scheduler jitter never trip the deadline on tiny
    units, capped at ``cap``.
    """
    return max(0.001, min(cap, factor * golden_seconds + slack))
