"""repro.fuzz: seeded kernel fuzzer and differential corpus.

The fuzzer closes the loop the hand-written workloads cannot: instead
of a fixed benchmark set, it draws arbitrarily many mini-ISA kernels
from a seed — divergence, instruction mix, RAW distances and barrier
placement all steered by a profile — and admits each one to a
persistent content-addressed corpus only after the barrier-aware scalar
reference, the simulator's scalar engine, and its fast engine produce
bit-identical memory images.  The corpus then feeds the
schedule-interleaving explorer (:mod:`repro.analysis.sched_sweep`) and
the fault-injection campaigns with reproducible scenarios.

Entry points: ``generate_kernel`` (pure seed -> kernel),
``validate_kernel`` (the three-way differential check), ``Corpus`` with
``grow_corpus``/``replay_corpus``/``minimize_kernel``, and the
``python -m repro fuzz`` CLI.
"""

from repro.fuzz.corpus import (
    Corpus,
    corpus_digest,
    grow_corpus,
    kernel_seed,
    minimize_kernel,
    replay_corpus,
)
from repro.fuzz.differential import (
    build_memory,
    fuzz_gpu_config,
    reference_memory,
    result_digest,
    run_kernel,
    validate_kernel,
    Validation,
)
from repro.fuzz.generator import generate_kernel
from repro.fuzz.profile import (
    FuzzProfile,
    PRESETS,
    sample_profile,
    seed_corpus_profile,
)
from repro.fuzz.serialize import FuzzKernel, kernel_digest, memory_digest

__all__ = [
    "Corpus",
    "FuzzKernel",
    "FuzzProfile",
    "PRESETS",
    "Validation",
    "build_memory",
    "corpus_digest",
    "fuzz_gpu_config",
    "generate_kernel",
    "grow_corpus",
    "kernel_digest",
    "kernel_seed",
    "memory_digest",
    "minimize_kernel",
    "reference_memory",
    "replay_corpus",
    "result_digest",
    "run_kernel",
    "sample_profile",
    "seed_corpus_profile",
    "validate_kernel",
]
