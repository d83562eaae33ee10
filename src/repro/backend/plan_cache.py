"""Precompiled contraction plans for TT chain kernels and einsum calls.

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
* :class:`EinsumPlan` — ``np.einsum_path`` contraction order + FLOP
  count for a concrete ``(subscripts, operand shapes)`` signature: how
  the cost counter prices an ``einsum`` call;
* :class:`ContractionPlanCache` — an LRU-bounded cache over both plan
  kinds, with hit/miss counters surfaced by the bench harness and the
  pipeline ``TrainLog``.

Keying
------
Chain plans are keyed on ``(kind, core_shapes)`` only.  The contraction
*order* of the TT chain is fixed left-to-right and its per-row cost
depends only on the core shapes, not on how many unique rows a
particular batch produced — so the second batch of a training run hits
the cache even when its unique-row count differs.  Einsum plans are
keyed on the full ``(subscripts, operand shapes)`` signature because
``np.einsum_path`` output is shape-dependent.

Numeric note
------------
No backend executes an :class:`EinsumPlan`.  The one ``einsum`` left on
a hot path (``TTCores.reconstruct_rows``, serving) runs unoptimized:
``np.einsum(..., optimize=path)`` dispatches through BLAS ``tensordot``
and is *not* bitwise-identical to the evaluation that defines a served
row's value.  Einsum plans are cost metadata only.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from typing import Any, Callable, Dict, Sequence, Tuple, TypeVar, cast

_PlanT = TypeVar("_PlanT")

import numpy as np

__all__ = [
    "ChainStage",
    "ChainPlan",
    "EinsumPlan",
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


@dataclass(frozen=True)
class EinsumPlan:
    """Precomputed contraction order for one einsum signature."""

    subscripts: str
    operand_shapes: Tuple[Tuple[int, ...], ...]
    # np.einsum_path contraction list (first element "einsum_path" tag
    # included).
    path: Tuple[Any, ...]
    # Cost metadata parsed from the path report.
    flop_count: int


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


def _einsum_flops_from_report(report: str, operand_shapes: Sequence[Tuple[int, ...]]) -> int:
    # np.einsum_path reports "Optimized FLOP count: 1.2e+05"; fall back
    # to a dense upper bound if the report format ever changes.
    for line in report.splitlines():
        if "FLOP count" in line:
            try:
                return int(float(line.split(":")[-1].strip()))
            except ValueError:
                break
    bound = 1
    for shape in operand_shapes:
        for extent in shape:
            bound *= max(extent, 1)
    return 2 * bound


class ContractionPlanCache:
    """LRU cache of :class:`ChainPlan` / :class:`EinsumPlan` objects.

    A process-wide instance (:func:`get_plan_cache`) backs the TT chain
    kernels and the einsum pricing of the cost counter; hit/miss
    counters feed the bench harness and ``TrainLog``.
    """

    def __init__(self, max_entries: int = 256) -> None:
        if max_entries < 1:
            raise ValueError(f"max_entries must be >= 1, got {max_entries}")
        self.max_entries = max_entries
        self._entries: "OrderedDict[Tuple[Any, ...], Any]" = OrderedDict()
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

    def _get_or_build(
        self, key: Tuple[Any, ...], build: Callable[[], _PlanT]
    ) -> _PlanT:
        entry = self._entries.get(key)
        if entry is not None:
            self.hits += 1
            self._entries.move_to_end(key)
            return cast(_PlanT, entry)
        self.misses += 1
        built = build()
        self._entries[key] = built
        if len(self._entries) > self.max_entries:
            self._entries.popitem(last=False)
        return built

    # -- chain plans ---------------------------------------------------
    def chain_plan(self, kind: str, core_shapes: CoreShapes) -> ChainPlan:
        """Plan for a left-to-right TT chain sweep over ``core_shapes``.

        ``kind`` distinguishes forward from backward sweeps in the
        cache key (their schedules coincide stage-for-stage today, but
        the key keeps them separable for backends that fuse
        differently).
        """
        key = ("chain", kind, core_shapes)
        return self._get_or_build(
            key,
            lambda: ChainPlan(kind=kind, core_shapes=core_shapes, stages=_chain_stages(core_shapes)),
        )

    # -- einsum plans --------------------------------------------------
    def einsum_plan(self, subscripts: str, *operands: np.ndarray) -> EinsumPlan:
        """Plan for a call's signature (the cost counter's pricing seam).

        ``np.einsum_path`` output depends only on shapes, so the probe
        operands are stride-0 broadcast views of a scalar: no shape-sized
        allocation happens.
        """
        shapes = tuple(tuple(int(d) for d in op.shape) for op in operands)
        key = ("einsum", subscripts, shapes)

        def build() -> EinsumPlan:
            probes = [
                np.broadcast_to(np.zeros((), dtype=np.float32), shape)
                for shape in shapes
            ]
            path, report = np.einsum_path(subscripts, *probes, optimize="optimal")
            return EinsumPlan(
                subscripts=subscripts,
                operand_shapes=shapes,
                path=tuple(path),
                flop_count=_einsum_flops_from_report(report, shapes),
            )

        return self._get_or_build(key, build)


_PLAN_CACHE = ContractionPlanCache()


def get_plan_cache() -> ContractionPlanCache:
    """The process-wide plan cache shared by all backends."""
    return _PLAN_CACHE


def reset_plan_cache() -> None:
    """Drop all cached plans and zero the hit/miss counters."""
    _PLAN_CACHE.clear()
