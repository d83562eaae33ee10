"""Shared utilities for the EL-Rec reproduction.

This package hosts small, dependency-free helpers used across the
substrates: balanced integer factorization for Tensor-Train shape
selection, seeded random-number-generator plumbing, wall-clock timers,
and argument-validation helpers.
"""

from repro.utils.factorize import (
    balanced_factorization,
    factorize_pair,
    prime_factors,
    suggest_tt_shapes,
)
from repro.utils.rng import ENTROPY, ensure_rng, spawn_rngs
from repro.utils.timer import Timer, measure_median
from repro.utils.validation import (
    check_1d_int_array,
    check_positive,
    check_probability,
)

__all__ = [
    "balanced_factorization",
    "factorize_pair",
    "prime_factors",
    "suggest_tt_shapes",
    "ENTROPY",
    "ensure_rng",
    "spawn_rngs",
    "Timer",
    "measure_median",
    "check_1d_int_array",
    "check_positive",
    "check_probability",
]
