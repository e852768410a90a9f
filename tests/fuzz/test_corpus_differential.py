"""Differential sweep over the checked-in seed corpus.

The 64 kernels in ``tests/fuzz/corpus/`` are frozen, content-addressed
scenarios with golden result digests (``GOLDEN.json``, produced by
``make_seed_corpus.py``).  Every kernel's scalar reference must
reproduce its golden digest, and both simulator engines must reproduce
it under DMR — detection must never alter functional results.

Running the full {off, intra, inter} x {ReplayQ 2, unbounded} x
{scalar, fast} cross product on all 64 kernels would cost 768
simulations, so each kernel is assigned one (mode, size) cell
round-robin by corpus index — every cell is exercised by >= 10 kernels
and both engines run for every kernel, at 1/6 the cost.  The DMR-off
cell doubles as the plain engine-equivalence check.  Both engines must
reproduce the golden digest and agree on the full result payload.
"""

from __future__ import annotations

import json
import pickle
from dataclasses import replace
from pathlib import Path

import pytest

from repro.analysis.overhead_sweep import UNBOUNDED_REPLAYQ
from repro.common.config import ENGINE_NAMES, DMRConfig, MappingPolicy
from repro.fuzz import Corpus, memory_digest, reference_memory, run_kernel
from repro.fuzz.differential import fuzz_gpu_config, result_digest

#: engine differentials compare launches that execute: a replayed
#: launch (repro.sim.replay) would only repeat its own recording
pytestmark = pytest.mark.usefixtures("executing")

CORPUS_DIR = Path(__file__).parent / "corpus"
GOLDEN_PATH = CORPUS_DIR / "GOLDEN.json"

_corpus = Corpus(CORPUS_DIR)
_digests = _corpus.digests()
with open(GOLDEN_PATH, "r", encoding="utf-8") as _handle:
    GOLDEN = json.load(_handle)

#: the DMR-mode axis: off, intra-warp-flavored (in-order mapping, no
#: shuffle), inter-warp-flavored (paper default: cross mapping + lane
#: shuffle maximizing ReplayQ traffic)
MODES = {
    "off": None,
    "intra": DMRConfig(enabled=True, mapping=MappingPolicy.IN_ORDER,
                       lane_shuffle=False),
    "inter": DMRConfig.paper_default(),
}
SIZES = (2, UNBOUNDED_REPLAYQ)


def _cell(index: int):
    """Round-robin (mode, replayq) assignment for corpus kernel *index*."""
    mode = ("off", "intra", "inter")[index % 3]
    size = SIZES[(index // 3) % 2]
    if mode == "off":
        return DMRConfig.disabled(), f"{mode}"
    return MODES[mode].with_replayq(size), f"{mode}/q{size}"


def test_corpus_is_complete():
    assert len(_digests) == 64
    assert set(_digests) == set(GOLDEN)
    divergent = sum(GOLDEN[d]["divergent"] for d in _digests)
    # Both schedule-test populations must exist.
    assert 16 <= divergent <= 48


def test_reference_reproduces_every_golden_digest():
    """The pure-Python oracle replays all 64 golden results exactly."""
    for digest in _digests:
        kernel = _corpus.load(digest)
        assert memory_digest(reference_memory(kernel)) == \
            GOLDEN[digest]["result"], digest


@pytest.mark.parametrize("index,digest", list(enumerate(_digests)),
                         ids=[d[:12] for d in _digests])
def test_engines_bit_identical_under_dmr(index, digest):
    kernel = _corpus.load(digest)
    dmr, label = _cell(index)
    payloads = set()
    for engine in ENGINE_NAMES:
        config = replace(fuzz_gpu_config(), engine=engine)
        result = run_kernel(kernel, config=config, dmr=dmr)
        assert result_digest(result) == GOLDEN[digest]["result"], (
            f"{digest[:12]} under {label} engine={engine}")
        # A fault-free run must never report a detection.
        assert not result.detections, (digest, label, engine)
        payloads.add(pickle.dumps(result.to_payload()))
    assert len(payloads) == 1, f"{digest[:12]} under {label}: engines differ"
