"""Exception hierarchy for the Warped-DMR reproduction.

Every exception raised intentionally by this library derives from
:class:`ReproError`, so callers can catch library failures without
swallowing genuine programming errors.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the :mod:`repro` library."""


class ConfigError(ReproError):
    """An invalid or inconsistent configuration value was supplied."""


class KernelError(ReproError):
    """A kernel program is malformed (bad label, operand, or CFG)."""


class SimulationError(ReproError):
    """The simulator reached an inconsistent state at run time."""


class FaultInjectionError(ReproError):
    """A fault specification does not match the simulated hardware."""


class DMRViolation(ReproError):
    """An internal Warped-DMR invariant was broken (e.g. a verifier lane
    paired with an active lane outside its SIMT cluster)."""


class CodecError(ReproError):
    """A payload cannot round-trip through canonical JSON (for example a
    NaN or Infinity float, which standard JSON cannot represent — the
    Python encoder would emit non-standard tokens that break the
    byte-idempotence every store comparison relies on)."""


class HarnessError(ReproError):
    """The execution harness itself failed (not the simulated kernel).

    Fan-outs (:func:`repro.service.worker.run_fleet`) report failures
    as the subclasses below, mirroring how the simulator classifies
    injected faults: transient failures retry, a deterministic one
    ends as :class:`PermanentSimFailure`, and a unit that keeps failing
    is reported as poisoned instead of wedging the fleet.
    """


class TransientWorkerFailure(HarnessError):
    """A worker failed in a way that is expected to heal on retry: the
    process died (OOM kill, crash) holding a unit, or the unit raised a
    non-deterministic exception.  Retried at once, up to
    :data:`MAX_ATTEMPTS` attempts."""


class TaskTimeout(TransientWorkerFailure):
    """A unit exceeded its wall-clock deadline.

    Structured — carries ``deadline`` and ``elapsed`` seconds — so a
    hung simulation surfaces as a reportable failure instead of
    wedging the campaign.  Timeouts are transient (the worker may have
    been descheduled), so they retry before poisoning the unit.
    """

    def __init__(self, message: str, deadline: float = 0.0,
                 elapsed: float = 0.0) -> None:
        super().__init__(message)
        self.deadline = deadline
        self.elapsed = elapsed


class PermanentSimFailure(HarnessError):
    """A unit failed deterministically: a :class:`ReproError` or failed
    output check escaped the worker on every attempt, and the poison
    diagnosis names it ``permanent-sim``."""


class PoisonedTask(HarnessError):
    """A unit exhausted its attempt budget with transient failures.
    ``index`` is the unit's position in its job, ``attempts`` how many
    were made; the message carries the last recorded failure."""

    def __init__(self, message: str, index: int = -1,
                 attempts: int = 0) -> None:
        super().__init__(message)
        self.index = index
        self.attempts = attempts


class StoreDegraded(HarnessError):
    """The job store refused new work because accepting it would risk
    half-written state: the filesystem is low on space, or the store's
    quarantine rate says its media can no longer be trusted.  Submitters
    get this *before* anything is written — a refused job leaves no
    partial directory behind.  ``reason`` carries the tripped threshold."""

    def __init__(self, message: str, reason: str = "") -> None:
        super().__init__(message)
        self.reason = reason


#: attempts one unit gets before the job store parks it
#: (``MAX_UNIT_ATTEMPTS``) — served jobs and local fan-outs alike
MAX_ATTEMPTS = 3


def failure_kind(error_class: type) -> str:
    """``"transient"`` (may heal) or ``"permanent"`` (cannot).

    The one failure taxonomy: the service's poison diagnosis applies
    it to the class a recorded type name resolves to.  Deterministic
    failures — simulator invariants (:class:`ReproError`) and failed
    output checks (``AssertionError``) — reproduce on every attempt.
    Everything else (dead workers, timeouts, OOM, flaky exceptions) is
    assumed to heal on a fresh attempt.  :class:`TransientWorkerFailure`
    wins over the :class:`ReproError` check because it *is* a
    ReproError by inheritance yet names the retryable class of harness
    failures.
    """
    if issubclass(error_class, TransientWorkerFailure):
        return "transient"
    if issubclass(error_class, (ReproError, AssertionError)):
        return "permanent"
    return "transient"
