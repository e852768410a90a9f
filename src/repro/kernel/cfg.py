"""Control-flow graph and reconvergence-point analysis.

GPGPUs reconverge divergent warps at the *immediate post-dominator*
(IPDOM) of the divergent branch.  This module builds a per-instruction
CFG for a program and computes, for every conditional branch, the PC at
which both sides of the divergence are guaranteed to meet again.  The
simulator's SIMT stack (:mod:`repro.sim.simt_stack`) pops its divergence
entries at exactly these PCs.

Post-dominators are the iterative dominator algorithm of Cooper, Harvey
and Kennedy ("A Simple, Fast Dominance Algorithm", 2001) run on the
reversed CFG from the virtual exit node.
"""

from __future__ import annotations

import functools
from typing import Dict, Iterable, List, Mapping, Sequence

from repro.common.errors import KernelError
from repro.isa.instruction import Instruction
from repro.isa.opcodes import Opcode

#: Virtual node representing "after the program"; every EXIT flows here.
EXIT_NODE = -1


def _postorder(edges: Mapping[int, List[int]], start: int) -> List[int]:
    """Depth-first postorder of the nodes reachable from *start*
    (itself included) along *edges*; iterative, so depth is unbounded."""
    order: List[int] = []
    seen = {start}
    stack = [(start, iter(edges[start]))]
    while stack:
        node, children = stack[-1]
        for child in children:
            if child not in seen:
                seen.add(child)
                stack.append((child, iter(edges[child])))
                break
        else:
            stack.pop()
            order.append(node)
    return order


class ControlFlowGraph:
    """Per-instruction CFG of a resolved instruction sequence.

    ``successors[node]`` lists each node's distinct successors; nodes
    are the PCs plus :data:`EXIT_NODE`.
    """

    def __init__(self, instructions: Sequence[Instruction]) -> None:
        self._instructions = list(instructions)
        self.successors: Dict[int, List[int]] = {EXIT_NODE: []}
        self._build()

    def _build(self) -> None:
        instructions = self._instructions
        n = len(instructions)
        for pc, inst in enumerate(instructions):
            self.successors[pc] = []
            if inst.opcode is Opcode.EXIT:
                self._add_edge(pc, EXIT_NODE)
                continue
            if inst.opcode is Opcode.JMP:
                self._add_edge(pc, self._checked_target(pc, inst))
                continue
            if inst.opcode is Opcode.BRA:
                self._add_edge(pc, self._checked_target(pc, inst))
                # fall-through for not-taken lanes
                self._add_fallthrough(pc, n)
                continue
            self._add_fallthrough(pc, n)

    def _add_edge(self, pc: int, target: int) -> None:
        # A branch to pc + 1 is one edge, not two.
        if target not in self.successors[pc]:
            self.successors[pc].append(target)

    def _add_fallthrough(self, pc: int, n: int) -> None:
        if pc + 1 >= n:
            raise KernelError(
                f"instruction at pc={pc} falls through past the end of the "
                "program; every path must reach an exit"
            )
        self._add_edge(pc, pc + 1)

    def _checked_target(self, pc: int, inst: Instruction) -> int:
        target = inst.target
        if not isinstance(target, int):
            raise KernelError(
                f"branch at pc={pc} has unresolved target {target!r}"
            )
        if not 0 <= target < len(self._instructions):
            raise KernelError(
                f"branch at pc={pc} targets pc={target}, outside the program"
            )
        return target

    def _predecessors(self) -> Dict[int, List[int]]:
        """The reversed CFG: each node's distinct predecessors."""
        preds: Dict[int, List[int]] = {node: [] for node in self.successors}
        for node, succs in self.successors.items():
            for succ in succs:
                preds[succ].append(node)
        return preds

    def _covers_every_pc(self, nodes: Iterable[int]) -> bool:
        return set(range(len(self._instructions))) <= set(nodes)

    # ------------------------------------------------------------------
    def conditional_branch_pcs(self) -> List[int]:
        """PCs of all conditional (potentially divergent) branches."""
        return [
            pc for pc, inst in enumerate(self._instructions)
            if inst.opcode is Opcode.BRA
        ]

    def reachable_from_entry(self) -> bool:
        """Whether every instruction is reachable from pc=0."""
        if not self._instructions:
            return True
        return self._covers_every_pc(_postorder(self.successors, 0))

    def all_paths_exit(self) -> bool:
        """Whether every instruction can reach the exit node."""
        return self._covers_every_pc(
            _postorder(self._predecessors(), EXIT_NODE))

    def immediate_post_dominators(self) -> Dict[int, int]:
        """Map every node that reaches exit to its immediate post-dominator.

        Immediate *dominators* of the reversed CFG rooted at the virtual
        exit node, by Cooper-Harvey-Kennedy: visit the nodes in reverse
        postorder and intersect the candidates' dominator chains by
        postorder number until nothing changes.
        """
        order = _postorder(self._predecessors(), EXIT_NODE)
        number = {node: i for i, node in enumerate(order)}
        ipdom = {EXIT_NODE: EXIT_NODE}

        def intersect(a: int, b: int) -> int:
            while a != b:
                while number[a] < number[b]:
                    a = ipdom[a]
                while number[b] < number[a]:
                    b = ipdom[b]
            return a

        changed = True
        while changed:
            changed = False
            for node in reversed(order[:-1]):
                # In reverse postorder some successor (the node's DFS
                # parent in the reversed CFG) is always processed first.
                new = functools.reduce(intersect, (
                    succ for succ in self.successors[node] if succ in ipdom))
                if ipdom.get(node) != new:
                    ipdom[node] = new
                    changed = True
        del ipdom[EXIT_NODE]
        return ipdom


def compute_reconvergence_table(
    instructions: Sequence[Instruction],
) -> Dict[int, int]:
    """For each conditional branch PC, the PC where divergence reconverges.

    A reconvergence point of ``EXIT_NODE`` means the two paths only meet
    after the program ends (e.g. a divergent branch around the final
    exit); the SIMT stack treats that as "reconverge at thread exit".
    """
    cfg = ControlFlowGraph(instructions)
    if not cfg.all_paths_exit():
        raise KernelError("program has instructions from which exit is unreachable")
    ipdom = cfg.immediate_post_dominators()
    return {pc: ipdom[pc] for pc in cfg.conditional_branch_pcs()}
