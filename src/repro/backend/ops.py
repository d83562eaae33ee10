"""The op table: every ``ArrayBackend`` op declared once.

:data:`OPS` holds one :class:`OpSpec` row per protocol method (all but
``zone``), in protocol order — everything the code *around* the two real
backends needs to know about the op:

* ``params`` / ``defaults`` — the call signature: the
  interposer generates its forwarding method from it and binds each
  call's arguments by it (:meth:`OpSpec.bind`);
* ``family`` — ``alloc`` / ``contraction`` / ``movement`` /
  ``elementwise`` (``embeddings.flops`` sums the contraction family);
* ``cost`` — ``cost(out, *args) -> (flops, bytes)`` from the runtime
  operands, what :class:`~repro.backend.counter.CostCounter` books;
* the roles :class:`~repro.backend.numsan.NumericSanitizer` enforces:
  ``index_roles`` (which operand indexes which operand's rows;
  range-checked *before* the call), ``finite_inputs`` (finite-checked
  before an in-place op consumes them), ``drift_operands`` (their widest
  float bounds the result dtype), ``in_place`` (the operand written
  instead of a result; finite-checked after), ``checks_result``
  (``zeros/ones/empty`` are fresh or uninitialised memory: never).

Adding an op is one row here plus the method on the protocol and on the
two real backends.

Cost formulas: allocation is the bytes written (``asarray`` is free);
``matmul`` is ``2 * prod(batch) * m * k * n`` FLOPs over operands read +
result written; the segment GEMMs issue the ``2 * rows * m * k * n`` of
the per-row ``matmul`` they replace and move operands once + each
*distinct* table slice once + result; gather/scatter are
traffic (scatter is read-modify-write, one FLOP per added and one per
scaled element); elementwise ops are one FLOP per output element (two
for ``axpy``).
"""

from __future__ import annotations

import inspect
from dataclasses import dataclass, field
from functools import cached_property
from typing import Any, Callable, Dict, Mapping, Optional, Sequence, Tuple

import numpy as np

__all__ = ["OPS", "OpSpec"]

Cost = Tuple[int, int]  # (flops, bytes)


@dataclass(frozen=True)
class OpSpec:
    """One row of the op table (see the module docstring for the fields)."""

    name: str
    family: str
    params: Tuple[str, ...]
    cost: Callable[..., Cost]
    defaults: Mapping[str, Any] = field(default_factory=dict)
    index_roles: Tuple[Tuple[str, str], ...] = ()  # (index operand[.attr], table)
    finite_inputs: Tuple[str, ...] = ()
    drift_operands: Tuple[str, ...] = ()
    in_place: Optional[str] = None
    checks_result: bool = True

    @cached_property
    def signature(self) -> inspect.Signature:
        """The method's signature without ``self``."""
        kind = inspect.Parameter.POSITIONAL_OR_KEYWORD
        empty = inspect.Parameter.empty
        return inspect.Signature(
            inspect.Parameter(name, kind, default=self.defaults.get(name, empty))
            for name in self.params
        )

    def bind(self, args: Sequence[Any], kwargs: Mapping[str, Any]) -> Dict[str, Any]:
        """Name → argument in protocol order, defaults filled; ``TypeError`` as the call would."""
        bound = self.signature.bind(*args, **kwargs)
        bound.apply_defaults()
        return dict(bound.arguments)


# -- cost formulas: cost(out, *args) -> (flops, bytes) ---------------------
def _alloc(out: np.ndarray, *_: Any) -> Cost:
    return 0, out.nbytes


def _matmul(out: np.ndarray, a: np.ndarray, b: np.ndarray) -> Cost:
    m = a.shape[-2] if a.ndim >= 2 else 1
    k = a.shape[-1]
    n = b.shape[-1] if b.ndim >= 2 else 1
    batch = int(np.prod(out.shape[:-2], dtype=np.int64)) if out.ndim > 2 else 1
    return 2 * batch * m * k * n, a.nbytes + b.nbytes + out.nbytes


def _gather_matmul(out: np.ndarray, a: np.ndarray, table: np.ndarray, groups: Any) -> Cost:
    rows, m, k = a.shape
    n = table.shape[2]
    slices = groups.num_groups * k * n * table.itemsize
    return 2 * rows * m * k * n, a.nbytes + slices + out.nbytes


def _matmul_segment_sum(out: np.ndarray, a: np.ndarray, b: np.ndarray, groups: Any) -> Cost:
    rows, m, k = a.shape
    return 2 * rows * m * k * b.shape[1], a.nbytes + b.nbytes + out.nbytes


def _gather_rows(out: np.ndarray, *_: Any) -> Cost:
    return 0, 2 * out.nbytes


def _scatter_add_rows(out: None, target: Any, indices: Any, values: np.ndarray, scale: float) -> Cost:
    return values.size if scale == 1.0 else 2 * values.size, 3 * values.nbytes


def _exp(out: np.ndarray, a: np.ndarray) -> Cost:
    return out.size, a.nbytes + out.nbytes


def _select(out: np.ndarray, *_: Any) -> Cost:
    return out.size, 2 * out.nbytes


def _axpy(out: None, target: Any, values: np.ndarray, scale: float) -> Cost:
    return 2 * values.size, 3 * values.nbytes


_ROWS = (
    # -- allocation ----------------------------------------------------
    OpSpec("zeros", "alloc", ("shape", "dtype"), _alloc, checks_result=False),
    OpSpec("ones", "alloc", ("shape", "dtype"), _alloc, checks_result=False),
    OpSpec("empty", "alloc", ("shape", "dtype"), _alloc, checks_result=False),
    OpSpec("full", "alloc", ("shape", "fill_value", "dtype"), _alloc),
    OpSpec("asarray", "alloc", ("a", "dtype"), lambda *_: (0, 0), defaults={"dtype": None}),
    # -- contraction ---------------------------------------------------
    OpSpec("matmul", "contraction", ("a", "b"), _matmul, drift_operands=("a", "b")),
    # A RowGroups record built for another index list addresses rows
    # that are not there; numpy would wrap or raise past the zone.
    OpSpec(
        "gather_matmul", "contraction", ("a", "table", "groups"), _gather_matmul,
        index_roles=(("groups.order", "a"), ("groups.ids", "table")),
        drift_operands=("a", "table"),
    ),
    OpSpec(
        "matmul_segment_sum", "contraction", ("a", "b", "groups"), _matmul_segment_sum,
        index_roles=(("groups.order", "a"), ("groups.order", "b")),
        drift_operands=("a", "b"),
    ),
    # -- sparse movement -----------------------------------------------
    OpSpec(
        "gather_rows", "movement", ("table", "indices"), _gather_rows,
        index_roles=(("indices", "table"),),
    ),
    OpSpec(
        "scatter_add_rows", "movement", ("target", "indices", "values", "scale"),
        _scatter_add_rows,
        defaults={"scale": 1.0},
        index_roles=(("indices", "target"),),
        finite_inputs=("values",),
        drift_operands=("values",),
        in_place="target",
    ),
    # -- elementwise ---------------------------------------------------
    # The stable sigmoid only exponentiates non-positive arguments, so
    # a non-finite exp result is always a bug.
    OpSpec("exp", "elementwise", ("a",), _exp),
    OpSpec("maximum", "elementwise", ("a", "b"), _select, drift_operands=("a", "b")),
    OpSpec("multiply", "elementwise", ("a", "b"), _select, drift_operands=("a", "b")),
    # where's condition is a mask, not a drift operand.
    OpSpec("where", "elementwise", ("cond", "a", "b"), _select, drift_operands=("a", "b")),
    OpSpec(
        "axpy", "elementwise", ("target", "values", "scale"), _axpy,
        finite_inputs=("values", "scale"),
        drift_operands=("values",),
        in_place="target",
    ),
)

OPS: Dict[str, OpSpec] = {row.name: row for row in _ROWS}
