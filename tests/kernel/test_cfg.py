"""Unit tests for CFG construction and reconvergence analysis."""

import pytest

from repro.common.errors import KernelError
from repro.isa.opcodes import CmpOp
from repro.kernel.builder import KernelBuilder
from repro.kernel.cfg import (
    EXIT_NODE,
    ControlFlowGraph,
    compute_reconvergence_table,
)


def build_if_else():
    b = KernelBuilder("ifelse")
    r = b.reg()
    p = b.pred()
    b.gtid(r)
    b.setp(p, r, CmpOp.LT, 16)          # pc 1
    b.bra("then", pred=p)               # pc 2
    b.iadd(r, r, 1)                     # pc 3 (else)
    b.jmp("join")                       # pc 4
    b.label("then")
    b.iadd(r, r, 2)                     # pc 5
    b.label("join")
    b.st_global(r, r)                   # pc 6
    b.exit()                            # pc 7
    return b.build()


def build_loop():
    b = KernelBuilder("loop")
    i = b.reg()
    p = b.pred()
    b.mov(i, 0)                         # pc 0
    b.label("top")
    b.iadd(i, i, 1)                     # pc 1
    b.setp(p, i, CmpOp.LT, 4)           # pc 2
    b.bra("top", pred=p)                # pc 3
    b.exit()                            # pc 4
    return b.build()


class TestReconvergence:
    def test_if_else_reconverges_at_join(self):
        program = build_if_else()
        assert program.reconvergence[2] == 6

    def test_loop_backedge_reconverges_at_fallthrough(self):
        program = build_loop()
        assert program.reconvergence[3] == 4

    def test_branch_around_exit_reconverges_at_exit_node(self):
        b = KernelBuilder("split")
        r = b.reg()
        p = b.pred()
        b.gtid(r)
        b.setp(p, r, CmpOp.LT, 1)
        b.bra("other", pred=p)          # pc 2
        b.st_global(r, r)
        b.exit()
        b.label("other")
        b.st_global(r, 0)
        b.exit()
        program = b.build()
        assert program.reconvergence[2] == EXIT_NODE

    def test_nested_if(self):
        b = KernelBuilder("nested")
        r = b.reg()
        p, q = b.pred(), b.pred()
        b.gtid(r)
        b.setp(p, r, CmpOp.LT, 16)
        b.bra("outer_join", pred=p, neg=True)   # pc 2
        b.setp(q, r, CmpOp.LT, 8)
        b.bra("inner_join", pred=q, neg=True)   # pc 4
        b.iadd(r, r, 1)
        b.label("inner_join")
        b.iadd(r, r, 2)
        b.label("outer_join")
        b.exit()
        program = b.build()
        inner = program.labels["inner_join"]
        outer = program.labels["outer_join"]
        assert program.reconvergence[4] == inner
        assert program.reconvergence[2] == outer


class TestValidation:
    def test_fallthrough_past_end_rejected(self):
        b = KernelBuilder("bad")
        r = b.reg()
        b.mov(r, 1)  # no exit
        with pytest.raises(KernelError):
            b.build()

    def test_exit_unreachable_rejected(self):
        b = KernelBuilder("spin")
        r = b.reg()
        b.mov(r, 1)
        b.label("spin")
        b.jmp("spin")  # ends the program; nothing reaches an exit
        with pytest.raises(KernelError, match="exit is unreachable"):
            b.build()

    def test_unresolved_label_rejected(self):
        b = KernelBuilder("bad")
        b.jmp("nowhere")
        with pytest.raises(KernelError):
            b.build()

    def test_duplicate_label_rejected(self):
        b = KernelBuilder("bad")
        b.label("x")
        with pytest.raises(KernelError):
            b.label("x")


class TestCFGStructure:
    def test_every_instruction_reachable(self):
        cfg = ControlFlowGraph(build_if_else().instructions)
        assert cfg.reachable_from_entry()

    def test_all_paths_exit(self):
        cfg = ControlFlowGraph(build_loop().instructions)
        assert cfg.all_paths_exit()

    def test_branch_to_next_pc_is_one_edge(self):
        b = KernelBuilder("skip")
        r = b.reg()
        p = b.pred()
        b.setp(p, r, CmpOp.LT, 1)      # pc 0
        b.bra("next", pred=p)           # pc 1
        b.label("next")
        b.exit()                        # pc 2
        program = b.build()
        cfg = ControlFlowGraph(program.instructions)
        assert cfg.successors[1] == [2]
        assert program.reconvergence == {1: 2}

    def test_conditional_branch_pcs(self):
        cfg = ControlFlowGraph(build_if_else().instructions)
        assert cfg.conditional_branch_pcs() == [2]

    def test_reconvergence_of_straightline_is_empty(self):
        b = KernelBuilder("line")
        r = b.reg()
        b.mov(r, 1)
        b.exit()
        assert compute_reconvergence_table(b.build().instructions) == {}
