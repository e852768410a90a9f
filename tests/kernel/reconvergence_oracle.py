"""Reconvergence oracle fixture: generation and shared plumbing.

``reconvergence_oracle.json`` pins, for every registry workload at
scales 0.25 and 0.5 and for every kernel of the checked-in fuzz corpus
(``tests/fuzz/corpus``), the program's reconvergence table and the full
immediate-post-dominator map of its CFG.  Entries are keyed by
:func:`instruction_digest`, a SHA-256 over the program's canonical
instruction encoding, so a program that changes no longer finds its
entry and the replay test fails loudly instead of comparing against a
stale table.  The tables were generated by the networkx-based analysis
the CFG module used before its own post-dominator pass replaced it;
:mod:`tests.kernel.test_reconvergence_oracle` holds the current code to
them.

Regenerate (only after an *intentional* change to a workload kernel or
the fuzz corpus) with::

    PYTHONPATH=src python -m tests.kernel.reconvergence_oracle

and review the JSON diff like source.
"""

from __future__ import annotations

import hashlib
import json
import pathlib
from typing import Dict, List

from repro.fuzz import Corpus
from repro.fuzz.serialize import _encode_instruction
from repro.kernel.cfg import ControlFlowGraph
from repro.kernel.program import Program
from repro.workloads import PAPER_ORDER, get_workload

FIXTURE_PATH = pathlib.Path(__file__).with_name("reconvergence_oracle.json")
CORPUS_DIR = pathlib.Path(__file__).parents[1] / "fuzz" / "corpus"

#: workload scales the fixture covers (seed 0 each)
SCALES = (0.25, 0.5)


def instruction_digest(program: Program) -> str:
    """SHA-256 of the program's canonical instruction encoding."""
    encoded = [_encode_instruction(inst) for inst in program.instructions]
    canonical = json.dumps(encoded, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def fixture_sources() -> List[str]:
    """Names of the programs the fixture covers (cheap to list)."""
    return ([f"workload:{name}@{scale}"
             for name in PAPER_ORDER for scale in SCALES]
            + [f"fuzz:{digest}" for digest in Corpus(CORPUS_DIR).digests()])


def program_of(source: str) -> Program:
    """Build the program a :func:`fixture_sources` name stands for."""
    kind, _, name = source.partition(":")
    if kind == "fuzz":
        return Corpus(CORPUS_DIR).load(name).program
    workload, _, scale = name.partition("@")
    return get_workload(workload).prepare(float(scale), 0).program


def _pairs(mapping: Dict[int, int]) -> List[List[int]]:
    return [[key, mapping[key]] for key in sorted(mapping)]


def tables_of(program: Program) -> Dict[str, List[List[int]]]:
    """The program's reconvergence table and full ipdom map, as pairs."""
    ipdom = ControlFlowGraph(program.instructions).immediate_post_dominators()
    return {
        "reconvergence": _pairs(dict(program.reconvergence)),
        "ipdom": _pairs(ipdom),
    }


def load_fixture() -> Dict[str, Dict]:
    with open(FIXTURE_PATH, "r", encoding="utf-8") as handle:
        return json.load(handle)


def main() -> int:
    fixture: Dict[str, Dict] = {}
    for source in fixture_sources():
        program = program_of(source)
        entry = {"source": source, **tables_of(program)}
        fixture.setdefault(instruction_digest(program), entry)
    # One program per line keeps the file small and its diffs readable.
    lines = [
        f"{json.dumps(digest)}: "
        + json.dumps(fixture[digest], sort_keys=True, separators=(",", ":"))
        for digest in sorted(fixture)
    ]
    with open(FIXTURE_PATH, "w", encoding="utf-8") as handle:
        handle.write("{\n" + ",\n".join(lines) + "\n}\n")
    print(f"wrote {len(fixture)} programs to {FIXTURE_PATH}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
