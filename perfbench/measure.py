"""Statistics, digests and host diagnostics shared by the benchmark.

Nothing here imports :mod:`repro`: these helpers are the benchmark's
own logic and are unit-tested on their own (``perfbench/tests``).
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import pathlib
import statistics
import subprocess
import time
from typing import Dict, List, Sequence

#: A timing percentile is reported only when at least this many samples
#: lie beyond it, so one outlier cannot set it.
MIN_TAIL = 10


def _rank(n: int, q: float) -> int:
    """1-based nearest rank of the *q*-th percentile of *n* samples."""
    return math.ceil(q * n / 100)  # q * n first: exact for integer q


def samples_beyond(n: int, q: float) -> int:
    """How many of *n* samples lie strictly beyond the nearest-rank
    *q*-th percentile."""
    return n - _rank(n, q)


def percentile(samples: Sequence[float], q: float) -> float:
    """Nearest-rank *q*-th percentile of *samples*.

    Raises ``ValueError`` unless at least :data:`MIN_TAIL` samples lie
    beyond it: a p90 needs 100 samples.
    """
    n = len(samples)
    if n == 0 or samples_beyond(n, q) < MIN_TAIL:
        raise ValueError(
            f"p{q:g} of {n} samples leaves {max(0, samples_beyond(n, q))} "
            f"beyond it; at least {MIN_TAIL} are required")
    return sorted(samples)[max(0, _rank(n, q) - 1)]


# ----------------------------------------------------------------------
# Output digests
# ----------------------------------------------------------------------
def _plain(value):
    """*value* as JSON-able data with an unambiguous, ordered form."""
    if isinstance(value, dict):
        out = {}
        for key, item in value.items():
            label = key if isinstance(key, str) else \
                f"{type(key).__name__}:{key!r}"
            if label in out:
                raise ValueError(f"ambiguous key {key!r} in digest input")
            out[label] = _plain(item)
        return out
    if isinstance(value, (list, tuple)):
        return [_plain(item) for item in value]
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    if isinstance(value, (bytes, bytearray)):
        return {"bytes": bytes(value).hex()}
    if hasattr(value, "item"):  # numpy scalar
        return _plain(value.item())
    raise TypeError(f"cannot digest a {type(value).__name__}")


def canonical(value) -> str:
    """Canonical JSON text of plain data: sorted keys, shortest floats."""
    return json.dumps(_plain(value), sort_keys=True, separators=(",", ":"))


def digest(value) -> str:
    """SHA-256 of :func:`canonical` — the per-op output fingerprint."""
    return hashlib.sha256(canonical(value).encode("utf-8")).hexdigest()


# ----------------------------------------------------------------------
# Host speed
# ----------------------------------------------------------------------
#: iterations of the calibration loop's arithmetic part (its object
#: part runs an eighth as many)
CALIBRATION_ITERATIONS = 5_000

#: seconds the calibration loop takes on the reference host; measured
#: times are scaled to that host (see README.md, "Host speed")
REFERENCE_CALIBRATION_S = 1e-3

#: ops on each side whose calibration samples set an op's host speed
CALIBRATION_WINDOW = 5

#: calibration samples whose median is the before/after diagnostic
CALIBRATION_REPEATS = 21


class _Node:
    __slots__ = ("value", "next")

    def __init__(self, value: int, next_node) -> None:
        self.value = value
        self.next = next_node


def _link(node: _Node, table: dict, i: int) -> _Node:
    key = i & 63
    table[key] = table.get(key, 0) + node.value
    return _Node(i, node)


def calibration_sample() -> float:
    """Seconds one run of the fixed pure-Python calibration loop takes.

    Integer arithmetic, then the calls, attribute reads, dict updates
    and small allocations that dominate the simulator and the service:
    contention on the host slows this blend about as much as it slows
    the program, which arithmetic alone does not.
    """
    start = time.perf_counter()
    total = 0
    for i in range(CALIBRATION_ITERATIONS):
        total += i * i % 7
    table, node, window = {}, _Node(0, None), []
    for i in range(CALIBRATION_ITERATIONS // 8):
        node = _link(node, table, i)
        window.append((i, node.value))
        if len(window) > 32:
            window.pop(0)
    return time.perf_counter() - start


def calibration_ms() -> float:
    """Median calibration time, recorded before and after the measured
    phase as a diagnostic of host drift."""
    return 1e3 * statistics.median(calibration_sample()
                                   for _ in range(CALIBRATION_REPEATS))


def speed_factors(samples: Sequence[float]) -> List[float]:
    """Per-op factors that scale host time to reference-host time.

    Sample *i* was taken just before op *i*; the factor of op *i* uses
    the median of the samples within :data:`CALIBRATION_WINDOW` ops of
    it.
    """
    window = CALIBRATION_WINDOW
    return [REFERENCE_CALIBRATION_S
            / statistics.median(samples[max(0, i - window):i + window + 1])
            for i in range(len(samples))]


# ----------------------------------------------------------------------
# Run diagnostics
# ----------------------------------------------------------------------
def tree_bytes(root: pathlib.Path) -> int:
    """Total size of the regular files under *root*."""
    total = 0
    for dirpath, _, filenames in os.walk(root):
        for name in filenames:
            try:
                total += os.stat(os.path.join(dirpath, name)).st_size
            except FileNotFoundError:
                continue
    return total


def tree_files(root: pathlib.Path) -> int:
    """Number of regular files under *root*."""
    return sum(len(filenames) for _, _, filenames in os.walk(root))


def code_version(root: pathlib.Path) -> str:
    """The commit checked out at *root*, or, where *root* is not a git
    repository, ``sources-sha256:`` and the SHA-256 over the program's
    ``.py`` sources (path and content)."""
    try:
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
            text=True, timeout=30,
            # a checkout inside another repository is not that commit
            env=dict(os.environ, GIT_CEILING_DIRECTORIES=str(root.parent)))
        if done.returncode == 0:
            return done.stdout.strip()
    except (OSError, subprocess.TimeoutExpired):
        pass
    hasher = hashlib.sha256()
    src = root / "src"
    for path in sorted(src.rglob("*.py")):
        hasher.update(str(path.relative_to(src)).encode("utf-8") + b"\0")
        hasher.update(path.read_bytes())
    return "sources-sha256:" + hasher.hexdigest()


def host_info() -> Dict[str, object]:
    """CPU count and load average at the time of the call."""
    try:
        load = list(os.getloadavg())
    except OSError:
        load = []
    return {"nproc": os.cpu_count(), "loadavg": load}
