"""Word-addressed memories.

The paper assumes memory is ECC-protected and error free (Section 1);
Warped-DMR only verifies *address computations*.  Accordingly the memory
model here is functional: word-addressed (one 32-bit value per address),
with a fixed access latency charged by the pipeline, no contention
model, and no fault injection on stored data.
"""

from __future__ import annotations

import hashlib
import pickle
from typing import Dict, Iterable, List, Sequence, Union

from repro.common.errors import SimulationError

Number = Union[int, float]


class GlobalMemory:
    """Device global memory, shared by all SMs.

    Sparse dict-backed storage: unwritten words read as 0.  Addresses are
    word indices (not bytes); helpers move whole Python/numpy sequences
    in and out for workload setup and result checking.
    """

    def __init__(self, size_words: int = 1 << 24) -> None:
        if size_words <= 0:
            raise SimulationError("global memory size must be positive")
        self.size_words = size_words
        self._words: Dict[int, Number] = {}

    def load(self, addr: int) -> Number:
        self._check(addr)
        return self._words.get(addr, 0)

    def store(self, addr: int, value: Number) -> None:
        self._check(addr)
        self._words[addr] = value

    def _check(self, addr: int) -> None:
        if not isinstance(addr, int):
            raise SimulationError(f"non-integer memory address {addr!r}")
        if not 0 <= addr < self.size_words:
            raise SimulationError(
                f"global memory address {addr} out of range "
                f"[0, {self.size_words})"
            )

    def copy(self) -> "GlobalMemory":
        """An independent image: a dict copy, the words being immutable."""
        clone = GlobalMemory(self.size_words)
        clone._words = dict(self._words)
        return clone

    def assign(self, image: "GlobalMemory") -> None:
        """Make this memory hold a copy of *image*'s words (same size):
        how a replayed launch delivers its recorded final image."""
        if image.size_words != self.size_words:
            raise SimulationError(
                f"cannot assign a {image.size_words}-word image to a "
                f"{self.size_words}-word memory"
            )
        self._words = dict(image._words)

    def digest(self) -> bytes:
        """Type-exact digest of the size and every written word.

        Pickle spells each value with its type, floats by their bit
        pattern, so ``1``, ``1.0`` and ``True`` differ.  Words are
        hashed in insertion order: two images that differ only in
        order may get different digests, but two different images
        never share one (short of a hash collision).
        """
        return hashlib.blake2b(
            pickle.dumps((self.size_words, self._words), protocol=4),
            digest_size=20,
        ).digest()

    # -- bulk helpers --------------------------------------------------
    def write_block(self, base: int, values: Sequence[Number]) -> None:
        """Copy *values* into memory starting at word *base*."""
        for i, value in enumerate(values):
            self.store(base + i, self._coerce(value))

    def read_block(self, base: int, count: int) -> List[Number]:
        """Read *count* words starting at *base*."""
        return [self.load(base + i) for i in range(count)]

    @staticmethod
    def _coerce(value: Number) -> Number:
        # numpy scalars -> Python scalars so equality in tests is exact
        if hasattr(value, "item"):
            return value.item()
        return value

    @property
    def footprint_words(self) -> int:
        """Number of distinct words ever written."""
        return len(self._words)

    def to_payload(self) -> Dict[str, object]:
        """Plain-data form with deterministically ordered words."""
        return {
            "size_words": self.size_words,
            "words": [[addr, self._words[addr]]
                      for addr in sorted(self._words)],
        }

    @classmethod
    def from_payload(cls, payload: Dict[str, object]) -> "GlobalMemory":
        memory = cls(size_words=payload["size_words"])
        for addr, value in payload["words"]:
            memory._words[addr] = value
        return memory


class SharedMemory:
    """Per-thread-block scratchpad (CUDA ``__shared__``).

    Dense list-backed since shared memory is small (64 KB per SM in the
    paper's configuration = 16K words).
    """

    def __init__(self, size_words: int) -> None:
        if size_words <= 0:
            raise SimulationError("shared memory size must be positive")
        self.size_words = size_words
        self._words: List[Number] = [0] * size_words

    def load(self, addr: int) -> Number:
        self._check(addr)
        return self._words[addr]

    def store(self, addr: int, value: Number) -> None:
        self._check(addr)
        self._words[addr] = value

    def _check(self, addr: int) -> None:
        if not isinstance(addr, int):
            raise SimulationError(f"non-integer shared address {addr!r}")
        if not 0 <= addr < self.size_words:
            raise SimulationError(
                f"shared memory address {addr} out of range "
                f"[0, {self.size_words})"
            )

    def fill(self, values: Iterable[Number], base: int = 0) -> None:
        for i, value in enumerate(values):
            self.store(base + i, value)
