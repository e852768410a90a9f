"""BFS workload (Parboil-style breadth-first search).

Level-synchronous BFS: every thread owns one node; per level, only
frontier nodes walk their adjacency lists.  This is the paper's poster
child for branch divergence — over 40% of BFS instructions execute with
a *single* active thread (Figure 1) — and therefore for intra-warp DMR:
its coverage is ~100% at ~zero overhead.

Each thread block processes its own independent graph instance so the
workload scales across SMs without inter-block synchronization.
"""

from __future__ import annotations

import random
from collections import deque
from typing import Dict, List, Tuple

from repro.common.config import LaunchConfig
from repro.isa.opcodes import CmpOp
from repro.kernel.builder import KernelBuilder
from repro.sim.memory import GlobalMemory
from repro.workloads.base import TransferSpec, Workload, WorkloadRun, words_bytes


def random_graph(num_nodes: int, extra_edges: int,
                 rng: random.Random) -> List[List[int]]:
    """Connected random digraph: a random tree plus extra edges.

    Edges are directed parent->child plus the extras, guaranteeing every
    node is reachable from node 0 with a modest diameter.
    """
    adjacency: List[List[int]] = [[] for _ in range(num_nodes)]
    for node in range(1, num_nodes):
        parent = rng.randrange(node)
        adjacency[parent].append(node)
    for _ in range(extra_edges):
        src = rng.randrange(num_nodes)
        dst = rng.randrange(num_nodes)
        if dst not in adjacency[src] and src != dst:
            adjacency[src].append(dst)
    return adjacency


def to_csr(adjacency: List[List[int]]) -> Tuple[List[int], List[int]]:
    row_offsets = [0]
    col_indices: List[int] = []
    for neighbors in adjacency:
        col_indices.extend(neighbors)
        row_offsets.append(len(col_indices))
    return row_offsets, col_indices


def cpu_bfs(adjacency: List[List[int]], source: int = 0) -> List[int]:
    levels = [-1] * len(adjacency)
    levels[source] = 0
    queue = deque([source])
    while queue:
        node = queue.popleft()
        for neighbor in adjacency[node]:
            if levels[neighbor] == -1:
                levels[neighbor] = levels[node] + 1
                queue.append(neighbor)
    return levels


class BFSWorkload(Workload):
    name = "bfs"
    display_name = "BFS"
    category = "Linear Algebra/Primitives"
    paper_params = "input graph65536.txt, gridDim=256, blockDim=256"

    NUM_NODES = 96
    NUM_BLOCKS = 4
    EXTRA_EDGES = 32
    MAX_LEVELS = 24

    def build_program(self, num_nodes: int, max_edges: int,
                      roff_base: int, cidx_base: int, lvl_base: int,
                      max_levels: int):
        b = KernelBuilder("bfs")
        v, roff, cidx, lvls, lvladdr = b.regs(5)
        cur, lvl_c, t, e, eend, u, uaddr, ul, nl = b.regs(9)
        cta = b.reg()
        p_front, p_edge, p_unvisited, p_cont = (
            b.pred(), b.pred(), b.pred(), b.pred()
        )

        b.tid(v)
        b.ctaid(cta)
        # per-block instance base pointers
        b.imad(roff, cta, num_nodes + 1, roff_base)
        b.imad(cidx, cta, max_edges, cidx_base)
        b.imad(lvls, cta, num_nodes, lvl_base)
        b.iadd(lvladdr, lvls, v)
        b.mov(lvl_c, 0)

        b.label("outer")
        b.ld_global(cur, lvladdr)
        b.setp(p_front, cur, CmpOp.EQ, lvl_c)
        b.bra("skip", pred=p_front, neg=True)
        # frontier node: walk adjacency [roff[v], roff[v+1])
        b.iadd(t, roff, v)
        b.ld_global(e, t)
        b.ld_global(eend, t, offset=1)
        b.label("eloop")
        b.setp(p_edge, e, CmpOp.LT, eend)
        b.bra("edone", pred=p_edge, neg=True)
        b.iadd(t, cidx, e)
        b.ld_global(u, t)
        b.iadd(uaddr, lvls, u)
        b.ld_global(ul, uaddr)
        b.setp(p_unvisited, ul, CmpOp.EQ, -1)
        b.iadd(nl, lvl_c, 1)
        b.st_global(uaddr, nl, pred=p_unvisited)
        b.iadd(e, e, 1)
        b.jmp("eloop")
        b.label("edone")
        b.label("skip")
        b.bar()
        b.iadd(lvl_c, lvl_c, 1)
        b.setp(p_cont, lvl_c, CmpOp.LT, max_levels)
        b.bra("outer", pred=p_cont)
        b.exit()
        return b.build()

    def build(self, scale: float = 1.0, seed: int = 0) -> WorkloadRun:
        num_nodes = self._scaled(self.NUM_NODES, scale, minimum=8)
        num_blocks = self._scaled(self.NUM_BLOCKS, scale, minimum=1)
        rng = random.Random(seed)

        graphs = [
            random_graph(num_nodes, self._scaled(self.EXTRA_EDGES, scale, 4), rng)
            for _ in range(num_blocks)
        ]
        csrs = [to_csr(g) for g in graphs]
        max_edges = max(len(cidx) for _, cidx in csrs)

        roff_base = 0
        cidx_base = roff_base + num_blocks * (num_nodes + 1)
        lvl_base = cidx_base + num_blocks * max_edges

        memory = GlobalMemory()
        for i, (roff, cidx) in enumerate(csrs):
            memory.write_block(roff_base + i * (num_nodes + 1), roff)
            memory.write_block(cidx_base + i * max_edges, cidx)
            levels = [-1] * num_nodes
            levels[0] = 0
            memory.write_block(lvl_base + i * num_nodes, levels)

        expected: Dict[int, List[int]] = {
            i: cpu_bfs(graph) for i, graph in enumerate(graphs)
        }
        # Enough level iterations to settle the deepest instance, with
        # a couple of empty-frontier rounds of slack.
        deepest = max(max(levels) for levels in expected.values())
        max_levels = deepest + 1
        program = self.build_program(
            num_nodes, max_edges, roff_base, cidx_base, lvl_base,
            max_levels,
        )
        launch = LaunchConfig(grid_dim=num_blocks, block_dim=num_nodes)

        def output_of(mem: GlobalMemory) -> List[int]:
            out: List[int] = []
            for i in range(num_blocks):
                out.extend(mem.read_block(lvl_base + i * num_nodes, num_nodes))
            return out

        def check(mem: GlobalMemory) -> None:
            for i in range(num_blocks):
                got = mem.read_block(lvl_base + i * num_nodes, num_nodes)
                assert got == expected[i], (
                    f"bfs block {i}: levels mismatch\n got {got}\n "
                    f"expected {expected[i]}"
                )

        input_words = num_blocks * (num_nodes + 1 + max_edges + num_nodes)
        output_words = num_blocks * num_nodes
        return WorkloadRun(
            program=program,
            launch=launch,
            memory=memory,
            transfer=TransferSpec(
                input_bytes=words_bytes(input_words),
                output_bytes=words_bytes(output_words),
            ),
            check=check,
            output_of=output_of,
        )
