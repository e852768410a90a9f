"""Reconvergence tables against three oracles.

1. The checked-in fixture (:mod:`tests.kernel.reconvergence_oracle`),
   generated by the networkx-based analysis the CFG module replaced:
   every registry workload at two scales and every fuzz-corpus kernel.
2. The textbook set-intersection dataflow, written here from the
   instructions alone: ``pdom(n) = {n} | intersection of pdom(s) over
   the successors s``, iterated to a fixpoint; a node's immediate
   post-dominator is its closest strict post-dominator.  It runs on the
   fixture programs and on generated kernels.
3. networkx's ``immediate_dominators`` on the reversed CFG, where
   networkx is installed.
"""

from __future__ import annotations

from typing import Dict, List, Set

import pytest
from hypothesis import given, settings, strategies as st

from repro.fuzz.generator import generate_kernel
from repro.isa.opcodes import Opcode
from repro.kernel.cfg import EXIT_NODE, ControlFlowGraph
from repro.kernel.program import Program
from tests.kernel.reconvergence_oracle import (fixture_sources,
                                               instruction_digest,
                                               load_fixture, program_of,
                                               tables_of)

SOURCES = fixture_sources()


@pytest.fixture(scope="module")
def fixture() -> Dict[str, Dict]:
    return load_fixture()


def _successors(program: Program) -> Dict[int, List[int]]:
    """The CFG rebuilt from the ISA's control-flow rules."""
    succs: Dict[int, List[int]] = {EXIT_NODE: []}
    for pc, inst in enumerate(program.instructions):
        if inst.opcode is Opcode.EXIT:
            succs[pc] = [EXIT_NODE]
        elif inst.opcode is Opcode.JMP:
            succs[pc] = [inst.target]
        elif inst.opcode is Opcode.BRA:
            succs[pc] = sorted({inst.target, pc + 1})
        else:
            succs[pc] = [pc + 1]
    return succs


def dataflow_ipdom(program: Program) -> Dict[int, int]:
    """Immediate post-dominators by the set-intersection fixpoint."""
    succs = _successors(program)
    nodes = set(succs)
    pdom: Dict[int, Set[int]] = {node: set(nodes) for node in nodes}
    pdom[EXIT_NODE] = {EXIT_NODE}
    changed = True
    while changed:
        changed = False
        # (any order reaches the fixpoint; backwards is the quick one)
        for node in reversed(range(len(program.instructions))):
            new = {node} | set.intersection(*(pdom[s] for s in succs[node]))
            if new != pdom[node]:
                pdom[node] = new
                changed = True
    # Strict post-dominators form a chain; the closest one is
    # post-dominated by all the others, so its own set is the largest.
    return {node: max(pdom[node] - {node}, key=lambda d: len(pdom[d]))
            for node in range(len(program.instructions))}


def dataflow_table(program: Program) -> Dict[int, int]:
    ipdom = dataflow_ipdom(program)
    return {pc: ipdom[pc] for pc, inst in enumerate(program.instructions)
            if inst.opcode is Opcode.BRA}


def _assert_matches_dataflow(program: Program) -> None:
    cfg = ControlFlowGraph(program.instructions)
    assert cfg.immediate_post_dominators() == dataflow_ipdom(program)
    assert dict(program.reconvergence) == dataflow_table(program)


# ----------------------------------------------------------------------
def test_fixture_covers_every_program(fixture):
    assert len(SOURCES) == 11 * 2 + 64
    sources = {entry["source"] for entry in fixture.values()}
    assert sources <= set(SOURCES)


@pytest.mark.parametrize("source", SOURCES)
def test_tables_match_fixture(source, fixture):
    program = program_of(source)
    digest = instruction_digest(program)
    assert digest in fixture, (
        f"{source}: no fixture entry for instruction digest {digest[:12]}; "
        "the program changed (regenerate the fixture deliberately)")
    expected = {key: fixture[digest][key]
                for key in ("reconvergence", "ipdom")}
    assert tables_of(program) == expected


@pytest.mark.parametrize("source", SOURCES)
def test_tables_match_dataflow_oracle(source):
    _assert_matches_dataflow(program_of(source))


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2**63 - 1))
def test_generated_kernels_match_dataflow_oracle(seed):
    _assert_matches_dataflow(generate_kernel(seed).program)


def _networkx_ipdom(nx, program: Program) -> Dict[int, int]:
    graph = nx.DiGraph()
    for node, succs in _successors(program).items():
        graph.add_node(node)
        graph.add_edges_from((node, succ) for succ in succs)
    idom = nx.immediate_dominators(graph.reverse(copy=False), EXIT_NODE)
    idom.pop(EXIT_NODE, None)
    return idom


@pytest.mark.parametrize("source", SOURCES)
def test_tables_match_networkx(source):
    nx = pytest.importorskip("networkx")
    program = program_of(source)
    cfg = ControlFlowGraph(program.instructions)
    assert cfg.immediate_post_dominators() == _networkx_ipdom(nx, program)
