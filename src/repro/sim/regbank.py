"""Register-bank conflict model (paper Section 2.1).

Each SIMT cluster has four register banks; a 128-bit bank entry holds
the same-named register of the cluster's four lanes, so one bank read
feeds all four SPs.  Distinct registers map to banks by index modulo
the bank count.  A 2R1W/3R1W instruction whose *source* registers fall
in the same bank cannot fetch them concurrently; GPGPUs hide most of
that latency with operand buffering, so the model (enabled with
``GPUConfig.model_bank_conflicts``) charges one extra issue cycle per
extra serialized bank access — a pessimistic bound the paper's
"without any register port stalls most of the time" brackets from
below.
"""

from __future__ import annotations

from typing import Iterable

#: Banks per SIMT cluster (paper Figure 2: 4 banks per 4-lane cluster).
BANKS_PER_CLUSTER = 4


def bank_of(register: int, banks: int = BANKS_PER_CLUSTER) -> int:
    """Bank holding *register* (same for every lane of a cluster)."""
    return register % banks


def serialized_accesses(registers: Iterable[int],
                        banks: int = BANKS_PER_CLUSTER) -> int:
    """Extra serialized reads caused by bank collisions.

    Distinct source registers landing in the same bank read one after
    another; the result is ``total_reads - distinct_banks_touched`` for
    the deduplicated register set (the same register read twice is a
    single bank access).
    """
    distinct = set(registers)
    if not distinct:
        return 0
    banks_touched = {bank_of(register, banks) for register in distinct}
    return len(distinct) - len(banks_touched)
