"""detcheck — interprocedural determinism-taint analysis.

Statically proves the bitwise-reproducibility invariants the dynamic
gates (quickcheck, chaos, numsan) only sample: nondeterministic sources
(entropy RNG, wall clock, environment, address identity, unordered
container iteration) must never reach checkpointed state, the PS apply
path, placement plans, or SimClock-zone decisions.  See DESIGN.md §12.
"""

from repro.analysis.detcheck.catalog import (
    DET_RULES,
    SourceKind,
)
from repro.analysis.detcheck.checker import detcheck_paths, detcheck_source
from repro.analysis.detcheck.taint import FunctionSummary, Taint, Value

__all__ = [
    "DET_RULES",
    "SourceKind",
    "FunctionSummary",
    "Taint",
    "Value",
    "detcheck_paths",
    "detcheck_source",
]
