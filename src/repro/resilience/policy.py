"""Retry policy: deterministic exponential backoff with bounded jitter.

A :class:`RetryPolicy` is plain frozen data, so it fingerprints, prints
and compares cleanly, and — crucially for reproducibility — its backoff
schedule is a pure function of ``(seed, task key, attempt)``.  No call
site draws from global ``random`` state: jitter comes from a
``random.Random`` seeded by SHA-256 over the policy seed and the task
key, so two runs of the same campaign back off identically and the
Hypothesis property suite can pin the schedule down exactly.

Schedule invariants (property-tested in ``tests/resilience``):

* monotone non-decreasing in the attempt number,
* bounded above by ``max_delay``,
* byte-deterministic given ``(seed, key)``.
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass
from typing import Hashable, List

from repro.common.errors import MAX_ATTEMPTS, ConfigError


@dataclass(frozen=True)
class RetryPolicy:
    """How the supervisor retries transient failures.

    ``max_attempts`` is the *total* number of attempts per task (1 =
    never retry).  The backoff before retry *n* (1-based) grows as
    ``base_delay * backoff_factor**(n-1)``, plus up to ``jitter``
    fraction of that delay (deterministic, see module docstring),
    clamped to ``max_delay`` and forced monotone by a running max.
    """

    max_attempts: int = MAX_ATTEMPTS
    base_delay: float = 0.05
    backoff_factor: float = 2.0
    max_delay: float = 2.0
    jitter: float = 0.1
    seed: int = 0

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ConfigError("retry policy needs max_attempts >= 1")
        if self.base_delay < 0 or self.max_delay < 0:
            raise ConfigError("retry delays cannot be negative")
        if self.backoff_factor < 1.0:
            raise ConfigError("backoff_factor must be >= 1")
        if not 0.0 <= self.jitter <= 1.0:
            raise ConfigError("jitter must be a fraction in [0, 1]")

    @classmethod
    def none(cls) -> "RetryPolicy":
        """Fail on the first failure (no retries, no sleeping)."""
        return cls(max_attempts=1, base_delay=0.0)

    # ------------------------------------------------------------------
    def rng(self, key: Hashable = 0) -> random.Random:
        """The injected jitter RNG for one task (stable across runs)."""
        material = f"{self.seed}:{key!r}".encode("utf-8")
        digest = hashlib.sha256(material).digest()
        return random.Random(int.from_bytes(digest[:8], "big"))

    def backoff_schedule(self, key: Hashable = 0,
                         count: int | None = None) -> List[float]:
        """The first *count* backoff delays for task *key*, in order.

        Defaults to ``max_attempts - 1`` delays — one per possible
        retry.  Monotone non-decreasing and capped at ``max_delay`` by
        construction.
        """
        if count is None:
            count = self.max_attempts - 1
        rng = self.rng(key)
        delays: List[float] = []
        prev = 0.0
        for n in range(max(0, count)):
            raw = min(self.max_delay, self.base_delay *
                      self.backoff_factor ** n)
            jittered = min(self.max_delay,
                           raw + raw * self.jitter * rng.random())
            prev = max(prev, jittered)
            delays.append(prev)
        return delays

    def delay(self, attempt: int, key: Hashable = 0) -> float:
        """Backoff before retry *attempt* (1-based) of task *key*."""
        if attempt < 1:
            raise ConfigError("retry attempts are 1-based")
        return self.backoff_schedule(key, attempt)[-1]
