"""Schedule-space exploration: result invariance, timing variance.

The seeded scheduler makes interleavings enumerable; these tests pin
down what may and may not depend on the choice of interleaving:

* Functional results may NOT.  Corpus kernels are race-free by
  construction, so their final memory must be bit-identical across
  schedule seeds — convergent kernels especially (the ISSUE's
  invariance contract), but divergent ones too.
* Timing MAY — and for divergent multi-warp kernels under a tight
  ReplayQ it must: if no schedule seed ever changed the ReplayQ stall
  profile, the explorer knob would not actually reach the scheduler.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.common.config import DMRConfig
from repro.fuzz import Corpus, run_kernel
from repro.fuzz.differential import result_digest

#: every seed's launch executes: the seeds share one kernel, so a
#: replayed launch (repro.sim.replay) would check the schedule
#: invariance that licenses replay against its own recording
pytestmark = pytest.mark.usefixtures("executing")

CORPUS_DIR = Path(__file__).parent / "corpus"

_corpus = Corpus(CORPUS_DIR)
with open(CORPUS_DIR / "GOLDEN.json", "r", encoding="utf-8") as _handle:
    GOLDEN = json.load(_handle)

SCHEDULE_SEEDS = tuple(range(8))
_convergent = [d for d in _corpus.digests() if not GOLDEN[d]["divergent"]]
_divergent = [d for d in _corpus.digests() if GOLDEN[d]["divergent"]]


@pytest.mark.parametrize("digest", _convergent[:4],
                         ids=[d[:12] for d in _convergent[:4]])
def test_convergent_kernels_schedule_invariant(digest):
    """Identical final architectural state across 8 schedule seeds."""
    kernel = _corpus.load(digest)
    dmr = DMRConfig.paper_default()
    digests = {result_digest(run_kernel(kernel, dmr=dmr, schedule_seed=s))
               for s in SCHEDULE_SEEDS}
    assert digests == {GOLDEN[digest]["result"]}


def test_divergent_kernels_schedule_invariant_results_too():
    """Race freedom makes even divergent kernels result-invariant."""
    digest = _divergent[0]
    kernel = _corpus.load(digest)
    digests = {result_digest(run_kernel(kernel, schedule_seed=s))
               for s in SCHEDULE_SEEDS}
    assert digests == {GOLDEN[digest]["result"]}


def test_divergent_kernel_shows_schedule_dependent_replay_stalls():
    """The explorer knob must actually steer the interleaving.

    Under a 2-entry ReplayQ, at least one of the first few divergent
    multi-warp kernels must stall differently under different schedule
    seeds; all-identical profiles would mean the seed never reached
    the scheduler's pick.
    """
    dmr = DMRConfig.paper_default().with_replayq(2)
    for digest in _divergent[:4]:
        kernel = _corpus.load(digest)
        stalls = [
            run_kernel(kernel, dmr=dmr,
                       schedule_seed=s).stats.value("cycles_stall_replay")
            for s in SCHEDULE_SEEDS
        ]
        if len(set(stalls)) > 1:
            return
    pytest.fail("no divergent kernel showed schedule-dependent "
                "ReplayQ stalls across 8 seeds")


def test_seeded_runs_are_reproducible():
    """Same seed, same kernel -> identical cycles and stall profile."""
    digest = _divergent[0]
    kernel = _corpus.load(digest)
    dmr = DMRConfig.paper_default().with_replayq(2)
    first = run_kernel(kernel, dmr=dmr, schedule_seed=3)
    second = run_kernel(kernel, dmr=dmr, schedule_seed=3)
    assert first.cycles == second.cycles
    assert first.stats.value("cycles_stall_replay") == \
        second.stats.value("cycles_stall_replay")
    assert result_digest(first) == result_digest(second)
