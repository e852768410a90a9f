"""CUFFT workload (radix-2 complex FFT, one transform per block).

Iterative Cooley-Tukey over shared memory: the host bit-reverses the
input (standard for the iterative form); each of log2(N) stages has the
lower half of every butterfly group compute twiddles (SFU sin/cos) and
update both halves.  Per stage only half the threads do butterfly work,
so utilization hovers in the upper bins without reaching 32/32 — the
paper measures CUFFT's warps as >80% utilized, the worst case for
intra-warp DMR (~90% coverage, Figure 9(a)).
"""

from __future__ import annotations

import math
import random
from typing import List, Tuple

from repro.common.config import LaunchConfig
from repro.isa.opcodes import CmpOp
from repro.kernel.builder import KernelBuilder
from repro.sim.memory import GlobalMemory
from repro.workloads.base import TransferSpec, Workload, WorkloadRun, words_bytes


def bit_reverse(index: int, bits: int) -> int:
    out = 0
    for _ in range(bits):
        out = (out << 1) | (index & 1)
        index >>= 1
    return out


def cpu_fft(real: List[float], imag: List[float]) -> Tuple[List[float], List[float]]:
    """Host mirror: identical butterfly order and twiddle arithmetic.

    Expects *real*/*imag* already bit-reversed, like the kernel's input.
    Mirrors the kernel's all-threads formulation: every thread computes
    its own new value from the pair (lower, lower+half).
    """
    n = len(real)
    re, im = list(real), list(imag)
    m = 2
    while m <= n:
        half = m // 2
        new_re, new_im = list(re), list(im)
        for tid in range(n):
            j = tid % m
            off = half if j >= half else 0
            jl = j - off
            angle = float(jl) * (-2.0 * math.pi / m)
            wr, wi = math.cos(angle), math.sin(angle)
            lower = tid - off
            ar, ai = re[lower], im[lower]
            br, bi = re[lower + half], im[lower + half]
            tr = wr * br - wi * bi
            ti = wr * bi + wi * br
            sign = -1.0 if off else 1.0
            new_re[tid] = sign * tr + ar
            new_im[tid] = sign * ti + ai
        re, im = new_re, new_im
        m <<= 1
    return re, im


class CUFFTWorkload(Workload):
    name = "cufft"
    display_name = "CUFFT"
    category = "Scientific"
    paper_params = "gridDim=32, blockDim=32 (batched 1-D FFT)"

    POINTS = 64
    NUM_BLOCKS = 4

    def build_program(self, n: int, in_base: int, out_base: int):
        bld = KernelBuilder("cufft")
        tid, gid, cta, addr, j, off, lower, t = bld.regs(8)
        ar, ai, br, bi = bld.regs(4)
        wr, wi, tr, ti, tf, ang, fj, sgn, rr, ri = bld.regs(10)
        p_up = bld.pred()

        bld.tid(tid)
        bld.ctaid(cta)
        # planes: instance base = in_base + cta*2n; real [0,n), imag [n,2n)
        bld.imad(addr, cta, 2 * n, in_base)
        bld.iadd(addr, addr, tid)
        bld.ld_global(ar, addr)
        bld.st_shared(tid, ar)
        bld.ld_global(ai, addr, offset=n)
        bld.iadd(t, tid, n)
        bld.st_shared(t, ai)
        bld.bar()

        # All-threads butterflies, as real cuFFT kernels keep every
        # thread busy: each thread computes its own new element from
        # the (lower, lower+half) pair of its group.
        m = 2
        while m <= n:
            half = m // 2
            scale = -2.0 * math.pi / m
            bld.irem(j, tid, m)
            bld.setp(p_up, j, CmpOp.GE, half)
            bld.selp(off, half, 0, p_up)
            bld.isub(lower, tid, off)
            bld.isub(t, j, off)             # twiddle index within group
            bld.i2f(fj, t)
            bld.fmul(ang, fj, scale)
            bld.cos(wr, ang)
            bld.sin(wi, ang)
            bld.ld_shared(ar, lower)
            bld.ld_shared(ai, lower, offset=n)
            bld.ld_shared(br, lower, offset=half)
            bld.ld_shared(bi, lower, offset=n + half)
            # tr + i*ti = w * b
            bld.fmul(tr, wr, br)
            bld.fmul(tf, wi, bi)
            bld.fsub(tr, tr, tf)
            bld.fmul(ti, wr, bi)
            bld.fmul(tf, wi, br)
            bld.fadd(ti, ti, tf)
            # own new value: a + sign * t
            bld.selp(sgn, -1.0, 1.0, p_up)
            bld.ffma(rr, sgn, tr, ar)
            bld.ffma(ri, sgn, ti, ai)
            bld.bar()
            bld.st_shared(tid, rr)
            bld.st_shared(tid, ri, offset=n)
            bld.bar()
            m <<= 1

        bld.ld_shared(ar, tid)
        bld.ld_shared(ai, tid, offset=n)
        bld.imad(addr, cta, 2 * n, out_base)
        bld.iadd(addr, addr, tid)
        bld.st_global(addr, ar)
        bld.st_global(addr, ai, offset=n)
        bld.exit()
        return bld.build()

    def build(self, scale: float = 1.0, seed: int = 0) -> WorkloadRun:
        n = self._scaled(self.POINTS, scale, minimum=8)
        n = 1 << (n - 1).bit_length()
        bits = n.bit_length() - 1
        num_blocks = self._scaled(self.NUM_BLOCKS, scale, minimum=1)

        rng = random.Random(seed)
        signals = [
            (
                [round(rng.uniform(-1.0, 1.0), 4) for _ in range(n)],
                [round(rng.uniform(-1.0, 1.0), 4) for _ in range(n)],
            )
            for _ in range(num_blocks)
        ]

        in_base = 0
        out_base = num_blocks * 2 * n
        memory = GlobalMemory()
        for i, (real, imag) in enumerate(signals):
            rev_r = [real[bit_reverse(k, bits)] for k in range(n)]
            rev_i = [imag[bit_reverse(k, bits)] for k in range(n)]
            memory.write_block(in_base + i * 2 * n, rev_r)
            memory.write_block(in_base + i * 2 * n + n, rev_i)

        program = self.build_program(n, in_base, out_base)
        launch = LaunchConfig(grid_dim=num_blocks, block_dim=n)

        expected: List[float] = []
        for real, imag in signals:
            rev_r = [real[bit_reverse(k, bits)] for k in range(n)]
            rev_i = [imag[bit_reverse(k, bits)] for k in range(n)]
            out_r, out_i = cpu_fft(rev_r, rev_i)
            expected.extend(out_r)
            expected.extend(out_i)

        def output_of(mem: GlobalMemory) -> List[float]:
            return mem.read_block(out_base, num_blocks * 2 * n)

        def check(mem: GlobalMemory) -> None:
            got = mem.read_block(out_base, num_blocks * 2 * n)
            for i, (g, e) in enumerate(zip(got, expected)):
                assert g == e, f"cufft[{i}]: got {g!r}, expected {e!r}"
            # cross-check the mirror itself against numpy
            import numpy as np
            for i, (real, imag) in enumerate(signals):
                ref = np.fft.fft(np.array(real) + 1j * np.array(imag))
                got_r = got[i * 2 * n: i * 2 * n + n]
                got_i = got[i * 2 * n + n: (i + 1) * 2 * n]
                err = max(
                    abs(gr - ref[k].real) + abs(gi - ref[k].imag)
                    for k, (gr, gi) in enumerate(zip(got_r, got_i))
                )
                assert err < 1e-9 * n, f"cufft instance {i}: numpy delta {err}"

        return WorkloadRun(
            program=program,
            launch=launch,
            memory=memory,
            transfer=TransferSpec(
                input_bytes=words_bytes(num_blocks * 2 * n),
                output_bytes=words_bytes(num_blocks * 2 * n),
            ),
            check=check,
            output_of=output_of,
        )
