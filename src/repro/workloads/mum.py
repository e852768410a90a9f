"""MUM workload (MUMmer-style maximal exact match scanning).

Each thread anchors a query string at its own reference position and
extends the match character by character until the first mismatch (or
the query ends).  Match lengths vary wildly between threads, so warps
spend most of their time with a shrinking population of still-matching
threads — the early-exit loop divergence that MUMmer exhibits on real
suffix-tree traversals.
"""

from __future__ import annotations

import random
from typing import List

from repro.common.config import LaunchConfig
from repro.isa.opcodes import CmpOp
from repro.kernel.builder import KernelBuilder
from repro.sim.memory import GlobalMemory
from repro.workloads.base import TransferSpec, Workload, WorkloadRun, words_bytes

ALPHABET = 4  # ACGT


def cpu_match_length(reference: List[int], query: List[int],
                     anchor: int) -> int:
    length = 0
    while (length < len(query)
           and anchor + length < len(reference)
           and reference[anchor + length] == query[length]):
        length += 1
    return length


class MUMWorkload(Workload):
    name = "mum"
    display_name = "MUM"
    category = "Scientific"
    paper_params = "NC_003997.20k.fna / NC_003997_q25bp.50k.fna"

    REF_LEN = 512
    QUERY_LEN = 24
    BLOCK_DIM = 64
    NUM_BLOCKS = 4
    # Seed-match length distribution, mirroring real MUMmer behaviour:
    # most anchor positions mismatch within a few characters, a minority
    # extend moderately, and a few run the full query — so warps quickly
    # drop below half-active and a handful of threads run long.
    P_SHORT = 0.70   # geometric, mean ~1.5 matched chars
    P_MEDIUM = 0.20  # uniform in [3, QUERY_LEN/2]
    GEOM_CONTINUE = 0.40

    def build_program(self, ref_len: int, query_len: int,
                      ref_base: int, query_base: int, out_base: int):
        bld = KernelBuilder("mum")
        gid, anchor, qbase, length, raddr, qaddr, rc, qc, addr, limit = (
            bld.regs(10)
        )
        p_in, p_eq, p_cont = bld.pred(), bld.pred(), bld.pred()

        bld.gtid(gid)
        # anchor = gid mod (ref_len - query_len) for in-range extension
        bld.irem(anchor, gid, ref_len - query_len)
        bld.imad(qbase, gid, query_len, query_base)
        bld.mov(length, 0)

        bld.label("extend")
        bld.setp(p_in, length, CmpOp.LT, query_len)
        bld.bra("done", pred=p_in, neg=True)
        bld.iadd(raddr, anchor, length)
        bld.iadd(raddr, raddr, ref_base)
        bld.ld_global(rc, raddr)
        bld.iadd(qaddr, qbase, length)
        bld.ld_global(qc, qaddr)
        bld.setp(p_eq, rc, CmpOp.EQ, qc)
        bld.bra("done", pred=p_eq, neg=True)
        bld.iadd(length, length, 1)
        bld.jmp("extend")
        bld.label("done")
        bld.iadd(addr, gid, out_base)
        bld.st_global(addr, length)
        bld.exit()
        return bld.build()

    def build(self, scale: float = 1.0, seed: int = 0) -> WorkloadRun:
        ref_len = self._scaled(self.REF_LEN, scale, minimum=64)
        query_len = self._scaled(self.QUERY_LEN, scale, minimum=4)
        block_dim = self._scaled(self.BLOCK_DIM, scale, minimum=8)
        num_blocks = self._scaled(self.NUM_BLOCKS, scale, minimum=1)
        num_threads = block_dim * num_blocks

        rng = random.Random(seed)
        reference = [rng.randrange(ALPHABET) for _ in range(ref_len)]
        queries: List[List[int]] = []
        for g in range(num_threads):
            anchor = g % (ref_len - query_len)
            draw = rng.random()
            if draw < self.P_SHORT:
                target = 0
                while (target < query_len
                       and rng.random() < self.GEOM_CONTINUE):
                    target += 1
            elif draw < self.P_SHORT + self.P_MEDIUM:
                target = rng.randint(3, max(3, query_len // 2))
            else:
                target = query_len
            query = []
            for i in range(query_len):
                ref_char = reference[anchor + i]
                if i < target:
                    query.append(ref_char)
                else:
                    query.append((ref_char + 1 + rng.randrange(ALPHABET - 1))
                                 % ALPHABET)
            queries.append(query)

        ref_base = 0
        query_base = ref_len
        out_base = query_base + num_threads * query_len
        memory = GlobalMemory()
        memory.write_block(ref_base, reference)
        for g, query in enumerate(queries):
            memory.write_block(query_base + g * query_len, query)

        program = self.build_program(
            ref_len, query_len, ref_base, query_base, out_base
        )
        launch = LaunchConfig(grid_dim=num_blocks, block_dim=block_dim)

        expected = [
            cpu_match_length(reference, queries[g], g % (ref_len - query_len))
            for g in range(num_threads)
        ]

        def output_of(mem: GlobalMemory) -> List[int]:
            return mem.read_block(out_base, num_threads)

        def check(mem: GlobalMemory) -> None:
            got = mem.read_block(out_base, num_threads)
            assert got == expected, (
                f"mum: match lengths differ\n got {got[:16]}...\n"
                f" expected {expected[:16]}..."
            )

        return WorkloadRun(
            program=program,
            launch=launch,
            memory=memory,
            transfer=TransferSpec(
                input_bytes=words_bytes(ref_len + num_threads * query_len),
                output_bytes=words_bytes(num_threads),
            ),
            check=check,
            output_of=output_of,
        )
