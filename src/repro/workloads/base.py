"""Workload framework.

Each paper benchmark (Table 4) is a :class:`Workload` that knows how to
build its kernel, lay out and initialize device memory, describe its
host<->device transfer volume, and verify its own output against a host
(pure-Python/numpy) reference.  ``scale`` shrinks problem sizes so unit
tests stay fast; ``prepare()`` with defaults gives the evaluation-sized
instance.

A subclass implements ``build``; callers use ``prepare``, which builds
each ``(workload, scale, seed)`` instance once per process and hands out
copies of that template.  Every copy shares the template's immutable
``Program`` (so its decode, region and hazard memos outlive a launch),
launch geometry, transfer spec and host-side closures, and gets its own
copy of the initial memory image to run on.
"""

from __future__ import annotations

import abc
import dataclasses
import functools
from dataclasses import dataclass
from typing import Callable, List, Sequence

from repro.common.config import LaunchConfig
from repro.kernel.program import Program
from repro.sim.memory import GlobalMemory


@dataclass(frozen=True)
class TransferSpec:
    """Host<->device traffic of one kernel invocation (Fig 10 model)."""

    input_bytes: int
    output_bytes: int

    @property
    def total_bytes(self) -> int:
        return self.input_bytes + self.output_bytes


@dataclass
class WorkloadRun:
    """A fully prepared, launchable workload instance."""

    program: Program
    launch: LaunchConfig
    memory: GlobalMemory
    transfer: TransferSpec
    check: Callable[[GlobalMemory], None]
    output_of: Callable[[GlobalMemory], Sequence]


class Workload(abc.ABC):
    """One benchmark: kernel + data + reference checker."""

    #: registry key, e.g. ``"bfs"``
    name: str = ""
    #: display name matching the paper's figures, e.g. ``"BFS"``
    display_name: str = ""
    #: paper Table 4 category
    category: str = ""
    #: paper Table 4 launch parameters, for documentation
    paper_params: str = ""

    def __init_subclass__(cls, **kwargs) -> None:
        super().__init_subclass__(**kwargs)
        # Each workload class binds ``prepare`` itself, so a tracer can
        # wrap one class's preparation (perfbench patches the registry's
        # classes one by one) without touching the base or the others.
        if "prepare" not in vars(cls):
            cls.prepare = Workload.prepare

    def prepare(self, scale: float = 1.0, seed: int = 0) -> WorkloadRun:
        """A launchable instance: a new copy of this process's template.

        ``scale`` in (0, 1] shrinks the problem (1.0 = evaluation size);
        ``seed`` drives input-data generation deterministically.
        :meth:`build` makes the template on the first call for a key.
        Every call returns a new :class:`WorkloadRun` with a private
        copy of the template's memory, so neither a run's stores nor
        an assignment to one of its fields reaches the next call.
        """
        template = _template(self, scale, seed)
        return dataclasses.replace(template, memory=template.memory.copy())

    @abc.abstractmethod
    def build(self, scale: float = 1.0, seed: int = 0) -> WorkloadRun:
        """Construct the instance :meth:`prepare` hands out copies of."""

    @staticmethod
    def _scaled(value: int, scale: float, minimum: int = 1) -> int:
        """Scale an integral size, clamping to *minimum*."""
        return max(minimum, int(round(value * scale)))

    def __repr__(self) -> str:
        return f"<Workload {self.name}>"


@functools.lru_cache(maxsize=64)
def _template(workload: Workload, scale: float, seed: int) -> WorkloadRun:
    """The one built instance per (registry workload, scale, seed)."""
    return workload.build(scale, seed)


def words_bytes(words: int) -> int:
    """Byte volume of *words* 32-bit words (transfer accounting)."""
    return 4 * words


def as_float_list(values) -> List[float]:
    """Coerce a numpy array / iterable to plain Python floats."""
    return [float(v) for v in values]


def as_int_list(values) -> List[int]:
    """Coerce a numpy array / iterable to plain Python ints."""
    return [int(v) for v in values]
