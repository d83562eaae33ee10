"""Precompiled contraction plans for the TT chain kernels.

The EL-Rec hot loop contracts the same TT chain thousands of times: the
two-level-reuse forward (§III-A) and the in-advance-aggregation
backward (§III-B) run once per batch, and within a training run the
batch *shape signature* — core shapes plus the rank of the index
batch — repeats almost always.  Re-deriving the contraction order (and
its FLOP cost) at every call is wasted work and, worse, makes FLOP
accounting ad hoc per call site.

This module precompiles the contraction once per signature and caches
it:

* :class:`ChainPlan` — the left-to-right batched-GEMM schedule of a TT
  chain (forward or backward sweep), one :class:`ChainStage` per core,
  with per-stage FLOP/byte costs derived purely from shapes;
* :class:`ContractionPlanCache` — an LRU-bounded cache of chain plans,
  with hit/miss counters surfaced by the bench harness and the pipeline
  ``TrainLog``.

Keying
------
Chain plans are keyed on ``(kind, core_shapes)`` only.  The contraction
*order* of the TT chain is fixed left-to-right and its per-row cost
depends only on the core shapes, not on how many unique rows a
particular batch produced — so the second batch of a training run hits
the cache even when its unique-row count differs.

Numeric note
------------
A plan is a schedule, not a different evaluation: every chain — the
TT-Rec forward, the Eff-TT fallback and serving's
``TTCores.reconstruct_rows`` — runs the same stacked ``matmul`` stages
in the same order, one GEMM per row per core, so a row's value depends
on its own slices only.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from typing import Dict, Tuple

__all__ = [
    "ChainStage",
    "ChainPlan",
    "ContractionPlanCache",
    "get_plan_cache",
    "reset_plan_cache",
]

CoreShapes = Tuple[Tuple[int, int, int, int], ...]


@dataclass(frozen=True)
class ChainStage:
    """One batched GEMM of a TT chain sweep.

    Shapes are per-row (the batch extent multiplies in at run time):
    the stage contracts the ``(prefix_width, r_in)`` running product
    against the core slice reshaped to ``(r_in, n_k * r_out)``.  Stage
    0 is the initial slice gather — no GEMM, zero FLOPs.
    """

    core_index: int
    r_in: int
    n_k: int
    r_out: int
    # Rows of the accumulated left product entering this stage:
    # prod(n_l for l < k).  1 for the gather-only stage 0.
    prefix_width: int = 1

    @property
    def flops_per_row(self) -> int:
        """2*m*k*n for the per-row GEMM (multiply + add)."""
        if self.core_index == 0:
            return 0
        return 2 * self.prefix_width * self.r_in * self.n_k * self.r_out

    @property
    def out_width(self) -> int:
        return self.n_k * self.r_out


@dataclass(frozen=True)
class ChainPlan:
    """Left-to-right batched-GEMM schedule for a TT chain sweep."""

    kind: str  # "chain_forward" | "chain_backward"
    core_shapes: CoreShapes
    stages: Tuple[ChainStage, ...]

    @property
    def flops_per_row(self) -> int:
        return sum(stage.flops_per_row for stage in self.stages)

    def flops(self, batch: int) -> int:
        """Total chain FLOPs for ``batch`` independent rows."""
        return batch * self.flops_per_row


def _chain_stages(core_shapes: CoreShapes) -> Tuple[ChainStage, ...]:
    stages = []
    prefix_width = 1
    for k, (_m_k, r_prev, n_k, r_next) in enumerate(core_shapes):
        stages.append(
            ChainStage(
                core_index=k, r_in=r_prev, n_k=n_k, r_out=r_next,
                prefix_width=prefix_width,
            )
        )
        prefix_width *= n_k
    return tuple(stages)


class ContractionPlanCache:
    """LRU cache of :class:`ChainPlan` objects.

    A process-wide instance (:func:`get_plan_cache`) backs the TT chain
    kernels; hit/miss counters feed the bench harness and ``TrainLog``.
    """

    def __init__(self, max_entries: int = 256) -> None:
        if max_entries < 1:
            raise ValueError(f"max_entries must be >= 1, got {max_entries}")
        self.max_entries = max_entries
        self._entries: "OrderedDict[Tuple[str, CoreShapes], ChainPlan]" = (
            OrderedDict()
        )
        self.hits = 0
        self.misses = 0

    def __len__(self) -> int:
        return len(self._entries)

    @property
    def stats(self) -> Dict[str, int]:
        return {"hits": self.hits, "misses": self.misses, "entries": len(self._entries)}

    def clear(self) -> None:
        self._entries.clear()
        self.hits = 0
        self.misses = 0

    def chain_plan(self, kind: str, core_shapes: CoreShapes) -> ChainPlan:
        """Plan for a left-to-right TT chain sweep over ``core_shapes``.

        ``kind`` distinguishes forward from backward sweeps in the
        cache key (their schedules coincide stage-for-stage today, but
        the key keeps them separable for backends that fuse
        differently).
        """
        key = (kind, core_shapes)
        plan = self._entries.get(key)
        if plan is not None:
            self.hits += 1
            self._entries.move_to_end(key)
            return plan
        self.misses += 1
        plan = ChainPlan(
            kind=kind, core_shapes=core_shapes, stages=_chain_stages(core_shapes)
        )
        self._entries[key] = plan
        if len(self._entries) > self.max_entries:
            self._entries.popitem(last=False)
        return plan


_PLAN_CACHE = ContractionPlanCache()


def get_plan_cache() -> ContractionPlanCache:
    """The process-wide plan cache shared by all backends."""
    return _PLAN_CACHE


def reset_plan_cache() -> None:
    """Drop all cached plans and zero the hit/miss counters."""
    _PLAN_CACHE.clear()
