"""Symbolic FLOP/byte cost model for perfcheck.

Costs are sums of integer-coefficient *product terms* over symbolic
dimension names — ``2*batch*r_prev*n_k*r_next`` — mirroring, formula
for formula, what :class:`~repro.backend.counter.CostCounter`
measures at run time.  When every dimension is a concrete ``int`` the
cost collapses to an exact integer (``Cost.value``); any unknown
dimension (``None`` in the shapecheck domain) makes the whole product
unknown and the op-level helper returns ``None`` rather than a guess —
the same one-sided posture the PERF rules take.

The calibration gate (:mod:`repro.analysis.perfcheck.calibrate`) runs
these same functions against runtime shapes and checks the totals match
``CostCounter`` per-zone counters, so the static numbers are anchored
to measurement.

TT chain costs
--------------
:func:`tt_chain_flops_per_row` reproduces the per-row FLOP count of the
plan cache's :class:`~repro.backend.plan_cache.ChainPlan` from a
``TTSpec``-style ``core_shapes`` signature — the analytic chain cost the
EL-Rec/TT-Rec papers derive — and is unit-tested against the plan cache
itself.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Sequence, Tuple

import numpy as np

from ..shapecheck.domain import Dim, SymDim

__all__ = [
    "Cost",
    "OpCost",
    "ZERO",
    "cost_add",
    "cost_scale",
    "size_cost",
    "nbytes_cost",
    "alloc_cost",
    "asarray_cost",
    "matmul_cost",
    "gather_matmul_cost",
    "matmul_segment_sum_cost",
    "einsum_cost",
    "einsum_flops_for_shapes",
    "gather_cost",
    "scatter_cost",
    "elementwise_cost",
    "tt_chain_flops_per_row",
    "itemsize_of",
]

# Shapes in this module follow the shapecheck domain: a tuple of Dim
# (int | SymDim | None) for known rank, or None for unknown rank.
ShapeLike = Optional[Tuple[Dim, ...]]

ITEMSIZE_SYMBOL = "itemsize"


@dataclass(frozen=True)
class Cost:
    """Sum of ``coeff * sym1 * sym2 * ...`` product terms.

    ``terms`` maps a sorted tuple of symbol names to its integer
    coefficient; the empty tuple is the constant term.
    """

    terms: Tuple[Tuple[Tuple[str, ...], int], ...]

    @staticmethod
    def concrete(n: int) -> "Cost":
        if n == 0:
            return ZERO
        return Cost((((), int(n)),))

    @staticmethod
    def product(coeff: int, dims: Sequence[Dim]) -> Optional["Cost"]:
        """``coeff * prod(dims)`` — ``None`` if any dim is unknown."""
        symbols = []
        for dim in dims:
            if dim is None:
                return None
            if isinstance(dim, SymDim):
                symbols.append(dim.name)
            else:
                coeff *= int(dim)
        if coeff == 0:
            return ZERO
        return Cost(((tuple(sorted(symbols)), coeff),))

    @property
    def value(self) -> Optional[int]:
        """Exact integer when no symbols remain, else ``None``."""
        total = 0
        for symbols, coeff in self.terms:
            if symbols:
                return None
            total += coeff
        return total

    @property
    def expr(self) -> str:
        if not self.terms:
            return "0"
        parts = []
        for symbols, coeff in sorted(self.terms):
            factors = [str(coeff)] if coeff != 1 or not symbols else []
            factors.extend(symbols)
            parts.append("*".join(factors))
        return " + ".join(parts)


ZERO = Cost(())


def cost_add(*costs: Optional[Cost]) -> Optional[Cost]:
    """Sum costs; unknown (``None``) poisons the sum."""
    merged: Dict[Tuple[str, ...], int] = {}
    for cost in costs:
        if cost is None:
            return None
        for symbols, coeff in cost.terms:
            merged[symbols] = merged.get(symbols, 0) + coeff
    return Cost(tuple(sorted((s, c) for s, c in merged.items() if c != 0)))


def cost_scale(cost: Optional[Cost], factor: int) -> Optional[Cost]:
    if cost is None:
        return None
    if factor == 0:
        return ZERO
    return Cost(tuple((symbols, coeff * factor) for symbols, coeff in cost.terms))


def itemsize_of(dtype: Optional[str]) -> Dim:
    """Element size in bytes; a symbolic dim when the dtype is unknown."""
    if dtype is None:
        return SymDim(ITEMSIZE_SYMBOL)
    try:
        return int(np.dtype(dtype).itemsize)
    except TypeError:
        return SymDim(ITEMSIZE_SYMBOL)


def size_cost(shape: ShapeLike) -> Optional[Cost]:
    if shape is None:
        return None
    return Cost.product(1, shape)


def nbytes_cost(shape: ShapeLike, dtype: Optional[str]) -> Optional[Cost]:
    if shape is None:
        return None
    return Cost.product(1, tuple(shape) + (itemsize_of(dtype),))


@dataclass(frozen=True)
class OpCost:
    """Static (flops, bytes) estimate for one backend call site."""

    flops: Optional[Cost]
    bytes: Optional[Cost]


def alloc_cost(shape: ShapeLike, dtype: Optional[str]) -> OpCost:
    """zeros/ones/empty/full: no FLOPs, one result written."""
    return OpCost(flops=ZERO, bytes=nbytes_cost(shape, dtype))


def asarray_cost() -> OpCost:
    return OpCost(flops=ZERO, bytes=ZERO)


def matmul_cost(
    a_shape: ShapeLike,
    a_dtype: Optional[str],
    b_shape: ShapeLike,
    b_dtype: Optional[str],
    out_shape: ShapeLike,
    out_dtype: Optional[str],
) -> OpCost:
    """``2 * prod(batch) * m * k * n`` — CostCounter's matmul formula."""
    flops: Optional[Cost] = None
    if a_shape is not None and b_shape is not None and out_shape is not None and a_shape:
        m: Dim = a_shape[-2] if len(a_shape) >= 2 else 1
        k: Dim = a_shape[-1]
        n: Dim = b_shape[-1] if len(b_shape) >= 2 else 1
        batch = out_shape[:-2] if len(out_shape) > 2 else ()
        flops = Cost.product(2, (m, k, n) + tuple(batch))
    traffic = cost_add(
        nbytes_cost(a_shape, a_dtype),
        nbytes_cost(b_shape, b_dtype),
        nbytes_cost(out_shape, out_dtype),
    )
    return OpCost(flops=flops, bytes=traffic)


def _segment_gemm_flops(a_shape: ShapeLike, n: Dim) -> Optional[Cost]:
    """``2 * rows * m * k * n`` for ``a`` of shape ``(rows, m, k)``."""
    if a_shape is None or len(a_shape) != 3:
        return None
    return Cost.product(2, tuple(a_shape) + (n,))


def gather_matmul_cost(
    a_shape: ShapeLike,
    a_dtype: Optional[str],
    table_shape: ShapeLike,
    table_dtype: Optional[str],
    num_groups: Dim,
    out_shape: ShapeLike,
    out_dtype: Optional[str],
) -> OpCost:
    """The per-row matmul's FLOPs; each *distinct* slice is read once.

    ``num_groups`` is how many distinct table slices the rows address —
    known only at run time, so a static call site leaves the bytes
    unknown.
    """
    if table_shape is None or len(table_shape) != 3:
        return OpCost(flops=None, bytes=None)
    _, k, n = table_shape
    traffic = cost_add(
        nbytes_cost(a_shape, a_dtype),
        nbytes_cost((num_groups, k, n), table_dtype),
        nbytes_cost(out_shape, out_dtype),
    )
    return OpCost(flops=_segment_gemm_flops(a_shape, n), bytes=traffic)


def matmul_segment_sum_cost(
    a_shape: ShapeLike,
    a_dtype: Optional[str],
    b_shape: ShapeLike,
    b_dtype: Optional[str],
    out_shape: ShapeLike,
    out_dtype: Optional[str],
) -> OpCost:
    """The per-row matmul's FLOPs; operands once, one block per group out."""
    flops = None
    if b_shape is not None and len(b_shape) == 3:
        flops = _segment_gemm_flops(a_shape, b_shape[1])
    traffic = cost_add(
        nbytes_cost(a_shape, a_dtype),
        nbytes_cost(b_shape, b_dtype),
        nbytes_cost(out_shape, out_dtype),
    )
    return OpCost(flops=flops, bytes=traffic)


def einsum_flops_for_shapes(
    subscripts: str, shapes: Sequence[ShapeLike]
) -> Optional[int]:
    """Plan-cache FLOP count when every operand shape is concrete."""
    concrete = []
    for shape in shapes:
        if shape is None or not all(isinstance(d, int) for d in shape):
            return None
        concrete.append(tuple(int(d) for d in shape))  # type: ignore[arg-type]
    from ...backend.plan_cache import get_plan_cache

    try:
        plan = get_plan_cache().einsum_plan_for_shapes(subscripts, concrete)
    except ValueError:
        return None
    return plan.flop_count


def einsum_cost(
    subscripts: Optional[str],
    operand_shapes: Sequence[ShapeLike],
    operand_dtypes: Sequence[Optional[str]],
    out_shape: ShapeLike,
    out_dtype: Optional[str],
) -> OpCost:
    """Plan flop_count when derivable; traffic = operands + result."""
    flops: Optional[Cost] = None
    if subscripts is not None:
        count = einsum_flops_for_shapes(subscripts, operand_shapes)
        if count is not None:
            flops = Cost.concrete(count)
    traffic = cost_add(
        *(nbytes_cost(s, d) for s, d in zip(operand_shapes, operand_dtypes)),
        nbytes_cost(out_shape, out_dtype),
    )
    return OpCost(flops=flops, bytes=traffic)


def gather_cost(out_shape: ShapeLike, out_dtype: Optional[str]) -> OpCost:
    """Pure traffic: rows read + rows written."""
    return OpCost(flops=ZERO, bytes=cost_scale(nbytes_cost(out_shape, out_dtype), 2))


def scatter_cost(
    values_shape: ShapeLike,
    values_dtype: Optional[str],
    scale_is_one: Optional[bool],
) -> OpCost:
    """``values.size`` adds (+ ``values.size`` scales when scale != 1)."""
    size = size_cost(values_shape)
    if scale_is_one is None:
        flops = None
    elif scale_is_one:
        flops = size
    else:
        flops = cost_scale(size, 2)
    return OpCost(flops=flops, bytes=cost_scale(nbytes_cost(values_shape, values_dtype), 3))


def elementwise_cost(
    op: str,
    in_shape: ShapeLike,
    in_dtype: Optional[str],
    out_shape: ShapeLike,
    out_dtype: Optional[str],
) -> OpCost:
    """exp / maximum / minimum / where / axpy per-element costs."""
    if op == "exp":
        return OpCost(
            flops=size_cost(out_shape),
            bytes=cost_add(nbytes_cost(in_shape, in_dtype), nbytes_cost(out_shape, out_dtype)),
        )
    if op == "axpy":
        return OpCost(
            flops=cost_scale(size_cost(in_shape), 2),
            bytes=cost_scale(nbytes_cost(in_shape, in_dtype), 3),
        )
    # maximum / minimum / where: one FLOP per output element, two
    # result-sized transfers (CostCounter's convention).
    return OpCost(
        flops=size_cost(out_shape),
        bytes=cost_scale(nbytes_cost(out_shape, out_dtype), 2),
    )


def tt_chain_flops_per_row(core_shapes: Sequence[Tuple[int, int, int, int]]) -> int:
    """Per-row FLOPs of a left-to-right TT chain sweep.

    Mirrors :class:`~repro.backend.plan_cache.ChainPlan`: stage 0 is the
    gather (zero FLOPs); stage ``k`` is a per-row GEMM of the running
    ``(prefix_width, r_prev)`` product against the ``(r_prev, n_k*r_next)``
    core slice.  Tested against the plan cache for exact agreement.
    """
    total = 0
    prefix_width = 1
    for k, (_m_k, r_prev, n_k, r_next) in enumerate(core_shapes):
        if k > 0:
            total += 2 * prefix_width * r_prev * n_k * r_next
        prefix_width *= n_k
    return total
