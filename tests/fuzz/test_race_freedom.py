"""The generator's race freedom, checked rather than claimed.

DESIGN.md §9 says every generated kernel is race-free by construction:
threads store only to their own output slots, inputs are read-only, and
shared exchanges are barrier-fenced, with barriers unpredicated at top
level.  The barrier-interval race and barrier-divergence check that
licenses control-flow replay (:mod:`repro.sim.replay`) checks it: any
generated kernel's recorded launch is certified, and so is every
kernel of the checked-in corpus.
"""

from __future__ import annotations

from dataclasses import replace
from pathlib import Path

from hypothesis import given, settings, strategies as st

from repro.fuzz import Corpus, generate_kernel, run_kernel
from repro.fuzz.differential import fuzz_gpu_config
from repro.fuzz.profile import PRESETS
from repro.sim import replay

CORPUS = Corpus(Path(__file__).parent / "corpus")

SEEDS = st.integers(min_value=0, max_value=2 ** 32 - 1)
PROFILES = st.one_of(st.none(), st.sampled_from(sorted(PRESETS)))


def _verdict(kernel) -> replay.Verdict:
    run_kernel(kernel, config=replace(fuzz_gpu_config(), engine="fast"))
    verdict, = replay.verdicts(kernel.program)
    return verdict


@given(seed=SEEDS, profile=PROFILES)
@settings(max_examples=25, deadline=None)
def test_generated_kernels_are_certified(seed, profile):
    kernel = generate_kernel(seed, PRESETS[profile] if profile else None)
    verdict = _verdict(kernel)
    assert verdict.certified, (seed, profile, verdict)


def test_corpus_kernels_are_certified():
    digests = CORPUS.digests()
    assert len(digests) == 64
    for digest in digests:
        assert _verdict(CORPUS.load(digest)).certified, digest
