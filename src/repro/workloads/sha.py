"""SHA workload (ERCBench SHA, simplified SHA-1 compression).

Each thread runs a reduced-round SHA-1 compression over its own
16-word message block: message-schedule XOR/rotate expansion plus the
round function's rotate/add/select logic, fully unrolled.  The result
is long bursts of integer SP instructions with full warps — the paper
measures SHA among the longest same-type switching distances
(Figure 8(a)), i.e. maximal ReplayQ pressure.
"""

from __future__ import annotations

import random
from typing import List

from repro.common.config import LaunchConfig
from repro.kernel.builder import KernelBuilder
from repro.sim.memory import GlobalMemory
from repro.workloads.base import TransferSpec, Workload, WorkloadRun, words_bytes

_U32 = 0xFFFFFFFF

H0 = (0x67452301, 0xEFCDAB89, 0x98BADCFE, 0x10325476, 0xC3D2E1F0)
K1, K2 = 0x5A827999, 0x6ED9EBA1


def _signed(value: int) -> int:
    value &= _U32
    return value - (1 << 32) if value & 0x80000000 else value


def _rotl(value: int, amount: int) -> int:
    value &= _U32
    return ((value << amount) | (value >> (32 - amount))) & _U32


def cpu_sha_rounds(message: List[int], rounds: int) -> List[int]:
    """Host mirror of the kernel: reduced-round SHA-1 compression."""
    w = [m & _U32 for m in message]
    a, b, c, d, e = H0
    for t in range(rounds):
        if t >= 16:
            idx = t % 16
            wt = _rotl(
                w[(t - 3) % 16] ^ w[(t - 8) % 16]
                ^ w[(t - 14) % 16] ^ w[idx], 1,
            )
            w[idx] = wt
        else:
            wt = w[t]
        if t < 20:
            f = (b & c) | ((~b & _U32) & d)
            k = K1
        else:
            f = b ^ c ^ d
            k = K2
        temp = (_rotl(a, 5) + f + e + k + wt) & _U32
        e, d, c, b, a = d, c, _rotl(b, 30), a, temp
    return [_signed((x + h) & _U32) for x, h in zip((a, b, c, d, e), H0)]


class SHAWorkload(Workload):
    name = "sha"
    display_name = "SHA"
    category = "Compression/Encryption"
    paper_params = "direct mode, input 99614720 B, gridDim=1539, blockDim=64"

    ROUNDS = 24
    BLOCK_DIM = 32
    NUM_BLOCKS = 4

    def _emit_rotl(self, bld, dst, src, amount: int, t1, t2) -> None:
        bld.shl(t1, src, amount)
        bld.shr(t2, src, 32 - amount)
        bld.or_(dst, t1, t2)

    def build_program(self, rounds: int, in_base: int, out_base: int):
        bld = KernelBuilder("sha")
        gid, addr = bld.regs(2)
        w = bld.regs(16)
        a, b, c, d, e = bld.regs(5)
        f, temp, t1, t2, wt = bld.regs(5)

        bld.gtid(gid)
        bld.imad(addr, gid, 16, in_base)
        for i in range(16):
            bld.ld_global(w[i], addr, offset=i)

        for reg, value in zip((a, b, c, d, e), H0):
            bld.mov(reg, _signed(value))

        for t in range(rounds):
            idx = t % 16
            if t >= 16:
                # w[idx] = rotl1(w[t-3] ^ w[t-8] ^ w[t-14] ^ w[idx])
                bld.xor(t1, w[(t - 3) % 16], w[(t - 8) % 16])
                bld.xor(t1, t1, w[(t - 14) % 16])
                bld.xor(t1, t1, w[idx])
                self._emit_rotl(bld, w[idx], t1, 1, temp, t2)
            if t < 20:
                # f = (b & c) | (~b & d)
                bld.and_(f, b, c)
                bld.not_(t1, b)
                bld.and_(t1, t1, d)
                bld.or_(f, f, t1)
                k = K1
            else:
                bld.xor(f, b, c)
                bld.xor(f, f, d)
                k = K2
            # temp = rotl5(a) + f + e + k + w[idx]
            self._emit_rotl(bld, temp, a, 5, t1, t2)
            bld.iadd(temp, temp, f)
            bld.iadd(temp, temp, e)
            bld.iadd(temp, temp, _signed(k))
            bld.iadd(temp, temp, w[idx])
            bld.mov(e, d)
            bld.mov(d, c)
            self._emit_rotl(bld, c, b, 30, t1, t2)
            bld.mov(b, a)
            bld.mov(a, temp)

        bld.imad(addr, gid, 5, out_base)
        for i, (reg, value) in enumerate(zip((a, b, c, d, e), H0)):
            bld.iadd(wt, reg, _signed(value))
            bld.st_global(addr, wt, offset=i)
        bld.exit()
        return bld.build()

    def build(self, scale: float = 1.0, seed: int = 0) -> WorkloadRun:
        rounds = max(17, self._scaled(self.ROUNDS, scale))
        block_dim = self._scaled(self.BLOCK_DIM, scale, minimum=8)
        num_blocks = self._scaled(self.NUM_BLOCKS, scale, minimum=1)
        num_threads = block_dim * num_blocks

        rng = random.Random(seed)
        messages = [
            [rng.randrange(0, 1 << 32) for _ in range(16)]
            for _ in range(num_threads)
        ]

        in_base = 0
        out_base = num_threads * 16
        memory = GlobalMemory()
        for i, message in enumerate(messages):
            memory.write_block(in_base + i * 16, [_signed(m) for m in message])

        program = self.build_program(rounds, in_base, out_base)
        launch = LaunchConfig(grid_dim=num_blocks, block_dim=block_dim)

        expected: List[int] = []
        for message in messages:
            expected.extend(cpu_sha_rounds(message, rounds))

        def output_of(mem: GlobalMemory) -> List[int]:
            return mem.read_block(out_base, num_threads * 5)

        def check(mem: GlobalMemory) -> None:
            got = mem.read_block(out_base, num_threads * 5)
            assert got == expected, "sha: digests differ from host reference"

        return WorkloadRun(
            program=program,
            launch=launch,
            memory=memory,
            transfer=TransferSpec(
                input_bytes=words_bytes(num_threads * 16),
                output_bytes=words_bytes(num_threads * 5),
            ),
            check=check,
            output_of=output_of,
        )
