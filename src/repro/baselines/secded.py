"""Hamming(72,64) SECDED: the ECC baseline Warped-DMR argues against.

Every 64-bit register/memory word is stored as a 72-bit codeword: 64
data bits, 7 Hamming parity bits (at the power-of-two positions of the
classic construction) and one overall parity bit.  Encode happens on
write, check-plus-correct on read; any single stored-bit upset is
corrected in place, any double upset is detected but never miscorrected
(the overall parity bit disambiguates the two cases).

Two things make this a *baseline* rather than a win:

* **Cost.**  The 8 check bits tax every protected word — 12.5% of the
  register file and shared memory — and the read path grows a
  decode/correct stage while the write path grows an encode stage
  (:func:`secded_config` deepens the pipeline latencies accordingly).
  Warped-DMR's ReplayQ is a few kilobits per SM and idles in spare
  issue slots.

* **Reach.**  ECC guards *storage cells*: a strike on a word sitting in
  the register file is corrected before the datapath ever sees it.  A
  defect in the datapath itself — a stuck-at in an SP/SFU/LDST unit —
  corrupts the value *before* it is encoded, so the codec faithfully
  protects the wrong bits.  :class:`SECDEDBackend` models exactly this
  split: transient faults land on stored codewords (caught), stuck-at
  faults are logic defects (invisible).

The construction follows the classic hamming_simulator layout
(SNIPPETS.md §1): parity bit *p_j* at codeword position ``2**j`` covers
every position with bit *j* set, the syndrome is the XOR of the
positions of all flipped bits, and the extra overall-parity bit turns
single-error correction into double-error detection.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, replace
from typing import List, Optional, Tuple

from repro.common.config import GPUConfig
from repro.faults.injector import FaultInjector
from repro.faults.models import (
    TransientFault,
    _float_to_bits,
    _int_to_bits,
)

#: protected word width and code geometry: Hamming(72,64) SECDED.
DATA_BITS = 64
PARITY_BITS = 8          # 7 Hamming + 1 overall
CODE_BITS = DATA_BITS + PARITY_BITS

#: codeword position 0 holds the overall parity bit; positions 1..71
#: form the Hamming(71,64) code with parity at the powers of two.
_HAMMING_PARITY_POSITIONS: Tuple[int, ...] = (1, 2, 4, 8, 16, 32, 64)

#: codeword positions of data bits 0..63, in order (every position in
#: 1..71 that is not a power of two).
_DATA_POSITIONS: Tuple[int, ...] = tuple(
    pos for pos in range(1, CODE_BITS) if pos & (pos - 1)
)
assert len(_DATA_POSITIONS) == DATA_BITS

_CODE_MASK = (1 << CODE_BITS) - 1


class CodecStatus(enum.Enum):
    """What the read-path check concluded about one codeword."""

    CLEAN = "clean"            # syndrome zero, overall parity holds
    CORRECTED = "corrected"    # single bit flipped; fixed in place
    DETECTED = "detected"      # uncorrectable (double) error flagged


@dataclass(frozen=True)
class Decoded:
    """Result of decoding one 72-bit codeword."""

    data: int                      # the (possibly corrected) 64-bit word
    status: CodecStatus
    syndrome: int                  # XOR of flipped-bit positions (0 = clean)
    corrected_bit: Optional[int]   # codeword position fixed, if any


def data_bit_position(bit: int) -> int:
    """Codeword position holding data bit *bit* (for fault injection)."""
    if not 0 <= bit < DATA_BITS:
        raise ValueError(f"data bit {bit} out of range [0, {DATA_BITS})")
    return _DATA_POSITIONS[bit]


def _parity(word: int) -> int:
    """Parity (popcount mod 2) of *word*."""
    return bin(word).count("1") & 1


def _syndrome(codeword: int) -> int:
    """XOR of the positions of every set bit in positions 1..71.

    For a valid codeword this is zero by construction; a single flipped
    bit leaves exactly its own position.
    """
    syndrome = 0
    bits = codeword >> 1
    pos = 1
    while bits:
        if bits & 1:
            syndrome ^= pos
        bits >>= 1
        pos += 1
    return syndrome


def encode(data: int) -> int:
    """Encode a 64-bit word into its 72-bit SECDED codeword."""
    if not 0 <= data < (1 << DATA_BITS):
        raise ValueError(f"data {data:#x} does not fit in {DATA_BITS} bits")
    codeword = 0
    for index, pos in enumerate(_DATA_POSITIONS):
        if (data >> index) & 1:
            codeword |= 1 << pos
    # choose the Hamming parity bits so the syndrome becomes zero
    syndrome = _syndrome(codeword)
    for j, pos in enumerate(_HAMMING_PARITY_POSITIONS):
        if (syndrome >> j) & 1:
            codeword |= 1 << pos
    # overall parity (position 0) makes total popcount even
    codeword |= _parity(codeword)
    return codeword


def extract_data(codeword: int) -> int:
    """The 64 data bits of *codeword* (no checking)."""
    data = 0
    for index, pos in enumerate(_DATA_POSITIONS):
        if (codeword >> pos) & 1:
            data |= 1 << index
    return data


def decode(codeword: int) -> Decoded:
    """Check/correct one codeword (the read path).

    The SECDED case analysis:

    * syndrome 0, overall parity even → clean;
    * syndrome 0, parity odd → the overall parity bit itself flipped;
    * syndrome ≠ 0, parity odd → single error at position *syndrome*,
      corrected;
    * syndrome ≠ 0, parity even → double error: detected, **never**
      miscorrected.
    """
    codeword &= _CODE_MASK
    syndrome = _syndrome(codeword)
    parity_even = _parity(codeword) == 0
    if syndrome == 0:
        if parity_even:
            return Decoded(extract_data(codeword), CodecStatus.CLEAN,
                           0, None)
        # only the overall parity bit is wrong; the data is intact
        return Decoded(extract_data(codeword ^ 1), CodecStatus.CORRECTED,
                       0, 0)
    if parity_even or syndrome >= CODE_BITS:
        # even flip count (or an impossible position): uncorrectable
        return Decoded(extract_data(codeword), CodecStatus.DETECTED,
                       syndrome, None)
    corrected = codeword ^ (1 << syndrome)
    return Decoded(extract_data(corrected), CodecStatus.CORRECTED,
                   syndrome, syndrome)


# ----------------------------------------------------------------------
# Campaign backend: SECDED as the chip's detection scheme
# ----------------------------------------------------------------------
def _hw_word(value: object) -> int:
    """The stored 64-bit pattern of a simulator value (zero-extended)."""
    if isinstance(value, bool):
        return int(value)
    if isinstance(value, float):
        return _float_to_bits(value)
    if isinstance(value, int):
        return _int_to_bits(value)
    raise TypeError(f"cannot encode value {value!r}")


class SECDEDBackend(FaultInjector):
    """The :class:`~repro.sim.executor.FaultHook` of an ECC-protected chip.

    A :class:`~repro.faults.injector.FaultInjector` — same fault walk
    and one-shot transients, so campaigns can swap backends per
    ``CampaignSpec.scheme`` — whose :meth:`strike` resolves each fired
    fault the way ECC hardware would:

    * A :class:`TransientFault` is a storage-cell upset: the strike
      lands on the *encoded* codeword of the value the unit just
      produced, so the read-path :func:`decode` sees the flipped bit,
      corrects it, and the computation proceeds on the original value —
      counted as a detection (and a correction).
    * A stuck-at fault is a datapath logic defect: the wrong result is
      encoded *after* the fault, producing a perfectly valid codeword
      of the wrong value.  The codec is blind; the perturbed value
      flows on exactly as under no protection.
    """

    def __init__(self, faults: List) -> None:
        super().__init__(faults)
        self.detections = 0
        self.checks = 0
        self.corrections = 0
        self.uncorrectable = 0

    def strike(self, fault, value: object, cycle: int) -> object:
        if not isinstance(fault, TransientFault):
            # logic defect: encoded post-fault, codec-blind
            return super().strike(fault, value, cycle)
        self.activations += 1
        self.checks += 1
        self.detections += 1
        word = _hw_word(value)
        struck = encode(word) ^ (1 << data_bit_position(fault.bit))
        decoded = decode(struck)
        if decoded.status is CodecStatus.CORRECTED and decoded.data == word:
            # corrected in place: the datapath never sees the flip
            self.corrections += 1
            return value
        # an uncorrectable (multi-bit) upset is still flagged, but the
        # corrupted value reaches the datapath
        self.uncorrectable += 1
        return fault.apply(value, cycle)

    def reset(self) -> None:
        super().reset()
        self.detections = 0
        self.checks = 0
        self.corrections = 0
        self.uncorrectable = 0


# ----------------------------------------------------------------------
# Overhead model: what SECDED costs the chip
# ----------------------------------------------------------------------
#: extra pipeline cycles of a SECDED chip (see :func:`secded_config`):
#: decode+correct on the operand-read path, encode on every writeback,
#: and a check per DRAM burst on the global-memory path.
SECDED_RF_EXTRA = 2
SECDED_EXEC_EXTRA = 1
SECDED_MEM_EXTRA = 6


def secded_config(config: GPUConfig) -> GPUConfig:
    """The :class:`GPUConfig` the same chip runs at with SECDED wired in.

    Derived deterministically from the unprotected config, so a
    campaign keyed on the base config + scheme knob is complete: the
    register-file read grows a decode/correct stage, every execution
    unit's writeback grows an encode stage, and global loads pay the
    wider-burst check.
    """
    return replace(
        config,
        rf_latency=config.rf_latency + SECDED_RF_EXTRA,
        sp_latency=config.sp_latency + SECDED_EXEC_EXTRA,
        sfu_latency=config.sfu_latency + SECDED_EXEC_EXTRA,
        ldst_shared_latency=config.ldst_shared_latency + SECDED_EXEC_EXTRA,
        ldst_global_latency=config.ldst_global_latency + SECDED_MEM_EXTRA,
    )


def storage_bits(config: GPUConfig) -> Tuple[int, int]:
    """``(extra_bits, base_bits)`` of SECDED over one SM's storage.

    Every 64-bit word of the register file and shared memory carries 8
    check bits — the canonical 12.5% ECC tax.
    """
    base = (config.register_file_bytes + config.shared_memory_bytes) * 8
    return base * PARITY_BITS // DATA_BITS, base
