"""Exact FLOP accounting for TT-table kernels.

The Eff-TT optimizations are *computation-count* reductions: the reuse
buffer shrinks the partial-product GEMMs from one per occurrence to one
per unique prefix, and in-advance gradient aggregation shrinks the
backward chain from one per occurrence to one per unique row — and,
run in reverse mode through the buffer, to one per unique prefix for
every core but the last.  These functions count the multiply-add FLOPs
of each kernel variant exactly (2 FLOPs per multiply-add), given a TT
spec and the batch's reuse statistics.

Three uses:

* the device cost model projects TT kernel times as
  ``flops / batched-GEMM-throughput`` — free of the Python-side
  overhead that inflates host wall-clock measurements;
* tests cross-check that the measured Eff-TT/TT-Rec speedups track the
  analytic FLOP ratios;
* :func:`measured_zone_flops` extracts the contraction FLOPs an
  :class:`~repro.backend.counter.InstrumentedBackend` observed in
  one kernel zone, so the analytic model here can be validated against
  what the kernels actually executed (shape-derived counts, not
  estimates).
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING, Sequence, Tuple

from repro.backend.ops import OPS
from repro.embeddings.reuse_buffer import ReusePlan
from repro.embeddings.tt_core import TTSpec

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.backend.counter import InstrumentedBackend

__all__ = [
    "tt_forward_flops",
    "efftt_forward_flops",
    "tt_backward_flops",
    "efftt_backward_flops",
    "measured_zone_flops",
]

# The backend ops whose FLOPs constitute "chain contraction work" for
# cross-checks against the analytic counts below (gather/scatter are
# traffic, not FLOPs, in this accounting).  The segment-GEMM ops issue
# the multiply-adds of the per-row matmul they replace, so the analytic
# counts do not know which of the two a kernel used.
CONTRACTION_OPS: Tuple[str, ...] = tuple(
    name for name, spec in OPS.items() if spec.family == "contraction"
)


def measured_zone_flops(
    backend: "InstrumentedBackend",
    zone: str,
    ops: Sequence[str] = CONTRACTION_OPS,
) -> int:
    """Contraction FLOPs an instrumented backend recorded in ``zone``.

    Sums the per-op counters for the given ops only, so elementwise
    and data-movement costs in the same zone do not pollute a
    comparison against the analytic chain counts.
    """
    return sum(
        stats.flops
        for (op_zone, op), stats in backend.op_stats.items()
        if op_zone == zone and op in ops
    )


def _chain_stage_flops(spec: TTSpec, k: int) -> int:
    """FLOPs of the k-th forward chain GEMM for ONE item.

    Stage ``k`` multiplies the accumulated prefix ``(a, R_{k-1})`` with
    the gathered slice ``(R_{k-1}, n_k * R_k)`` where
    ``a = prod_{l<k} n_l``.
    """
    a = math.prod(spec.col_shape[:k])
    return 2 * a * spec.ranks[k] * spec.col_shape[k] * spec.ranks[k + 1]


def tt_forward_flops(spec: TTSpec, num_items: int) -> int:
    """Naive (TT-Rec) lookup FLOPs: the full chain per index occurrence."""
    if num_items < 0:
        raise ValueError(f"num_items must be >= 0, got {num_items}")
    per_item = sum(
        _chain_stage_flops(spec, k) for k in range(1, spec.num_cores)
    )
    return per_item * num_items


def efftt_forward_flops(
    spec: TTSpec, num_unique_prefixes: int, num_unique_rows: int
) -> int:
    """Eff-TT lookup FLOPs with the reuse buffer.

    Stages ``1..d-2`` run once per unique prefix; the final stage runs
    once per unique row (paper §III-A: the Reuse Buffer holds the
    product of the first ``d-1`` cores).
    """
    if num_unique_prefixes < 0 or num_unique_rows < 0:
        raise ValueError("counts must be >= 0")
    prefix_flops = sum(
        _chain_stage_flops(spec, k) for k in range(1, spec.num_cores - 1)
    )
    final_flops = _chain_stage_flops(spec, spec.num_cores - 1)
    return (
        prefix_flops * num_unique_prefixes + final_flops * num_unique_rows
    )


def _backward_per_item_flops(spec: TTSpec) -> int:
    """Backward-chain FLOPs for ONE row gradient (Equation 6).

    Counts the suffix-partial chain plus, per core, the two GEMMs
    ``tmp = left^T G`` and ``grad = tmp right^T``.
    """
    d = spec.num_cores
    total = 0
    # suffix (right) partials: for k = d-1 .. 1, (r*b, s) @ (s, c)
    suffix_cols = 1
    for k in range(d - 1, 0, -1):
        r_prev, n_k, r_next = (
            spec.ranks[k],
            spec.col_shape[k],
            spec.ranks[k + 1],
        )
        total += 2 * r_prev * n_k * r_next * suffix_cols
        suffix_cols *= n_k
    # per-core slice gradients
    prefix_cols = 1
    for k in range(d):
        n_k = spec.col_shape[k]
        suffix = spec.embedding_dim // (prefix_cols * n_k)
        r_prev, r_next = spec.ranks[k], spec.ranks[k + 1]
        # tmp: (r, a) @ (a, b*c)
        total += 2 * r_prev * prefix_cols * n_k * suffix
        # grad: (r*b, c) @ (c, s)
        total += 2 * r_prev * n_k * suffix * r_next
        prefix_cols *= n_k
    return total


def tt_backward_flops(spec: TTSpec, num_items: int) -> int:
    """Naive (TT-Rec) backward FLOPs: full chain per index occurrence."""
    if num_items < 0:
        raise ValueError(f"num_items must be >= 0, got {num_items}")
    return _backward_per_item_flops(spec) * num_items


def efftt_backward_flops(
    spec: TTSpec, num_unique_prefixes: int, num_unique_rows: int
) -> int:
    """Eff-TT backward FLOPs: reverse mode through the Reuse Buffer.

    After the in-advance aggregation (additions over the embedding
    dimension, not counted) every forward GEMM runs backwards twice on
    the operands the forward kept — once for its core's slice gradient,
    once for the gradient of its left operand — the last stage per
    unique row and the buffer levels per unique *prefix*, since a
    prefix's rows are summed before they reach it (paper §III-B,
    Figure 6b).  Core 0's gradient is a sum.  So the backward is
    exactly twice :func:`efftt_forward_flops`.
    """
    return 2 * efftt_forward_flops(spec, num_unique_prefixes, num_unique_rows)


def plan_forward_flops(spec: TTSpec, plan: ReusePlan, reuse: bool = True) -> int:
    """Forward FLOPs for a concrete batch plan."""
    if reuse:
        return efftt_forward_flops(
            spec, plan.num_unique_prefixes, plan.num_unique_rows
        )
    return tt_forward_flops(spec, plan.num_occurrences)


def plan_backward_flops(
    spec: TTSpec, plan: ReusePlan, aggregate: bool = True
) -> int:
    """Backward FLOPs for a concrete batch plan."""
    if aggregate:
        return efftt_backward_flops(
            spec, plan.num_unique_prefixes, plan.num_unique_rows
        )
    return tt_backward_flops(spec, plan.num_occurrences)
