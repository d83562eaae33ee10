"""Abstract domain for the shapecheck interpreter.

Shapecheck executes kernel code over *abstract* tensors: each array is
summarized by a symbolic shape (a tuple of dimensions, each either a
concrete ``int``, a named :class:`SymDim` symbol, or unknown) and an
optional floating dtype name.  The domain is deliberately one-sided:
every question shapecheck asks is of the form "is this *provably*
wrong?" — two dimensions conflict only when both are concrete integers
that differ, so unknown or symbolic values never produce findings.
That asymmetry is what lets the checker run clean over ``src/repro``
(whose shapes are mostly symbolic) while still catching the seeded
mutation corpus (whose shapes are concrete).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any, Dict, Optional, Tuple, Union

__all__ = [
    "Dim",
    "SymDim",
    "Top",
    "TOP",
    "TensorVal",
    "TupleVal",
    "DTypeVal",
    "DottedVal",
    "BackendVal",
    "SpecVal",
    "CoresVal",
    "CoreListVal",
    "FLOAT_DTYPES",
    "resolve_dtype",
    "promote_dtypes",
    "dims_conflict",
    "dims_equal",
    "dim_product",
    "broadcast_shapes",
    "format_shape",
]


@dataclass(frozen=True)
class SymDim:
    """A named symbolic dimension (``B``, ``s3``) of unknown extent."""

    name: str

    def __repr__(self) -> str:
        return self.name


#: A single abstract dimension: concrete, symbolic, or unknown.
Dim = Union[int, SymDim, None]


class Top:
    """The unknown abstract value (no information); :data:`TOP` is the one instance."""

    def __repr__(self) -> str:
        return "TOP"


TOP = Top()

FLOAT_DTYPES = ("float16", "float32", "float64")

# Dotted-name tails that resolve to a concrete dtype (``np.float32``,
# ``numpy.float64`` via import aliases).
_DTYPE_TAILS: Dict[str, str] = {
    **{name: name for name in FLOAT_DTYPES + ("int8", "int16", "int32", "int64", "uint8")},
    "single": "float32",
    "double": "float64",
    "half": "float16",
    "intp": "int64",
    "bool_": "bool",
}


@dataclass(frozen=True)
class TensorVal:
    """Abstract ndarray: symbolic shape + dtype (+ small literal values).

    ``shape is None`` means unknown rank.  ``int_values`` carries the
    concrete entries of a small 1-D integer literal (``np.array([0, -1])``)
    so gather/scatter index bounds can be checked statically.
    """

    shape: Optional[Tuple[Dim, ...]] = None
    dtype: Optional[str] = None
    int_values: Optional[Tuple[int, ...]] = None


@dataclass(frozen=True)
class TupleVal:
    """An evaluated tuple/list literal (shape tuples, index lists)."""

    items: Tuple[Any, ...]


@dataclass(frozen=True)
class DTypeVal:
    """A dtype object flowing as a value (``np.dtype("float32")``)."""

    name: str


@dataclass(frozen=True)
class DottedVal:
    """An unresolved dotted name (``numpy.zeros``, ``repro.backend.get_backend``)."""

    name: str

    @property
    def tail(self) -> str:
        return self.name.rsplit(".", 1)[-1]


class BackendVal:
    """The active :class:`~repro.backend.protocol.ArrayBackend`."""

    def __repr__(self) -> str:
        return "<backend>"


@dataclass(frozen=True)
class SpecVal:
    """A concrete :class:`~repro.embeddings.tt_core.TTSpec`.

    Shapecheck mirrors ``TTSpec``'s metadata exactly so TT-core chain
    shapes derive from the constructor arguments: core ``k`` is stored
    as ``(m_k, R_{k-1}, n_k, R_k)``.
    """

    row_shape: Tuple[int, ...]
    col_shape: Tuple[int, ...]
    ranks: Tuple[int, ...]

    @property
    def num_cores(self) -> int:
        return len(self.row_shape)

    @property
    def padded_rows(self) -> int:
        return math.prod(self.row_shape)

    @property
    def embedding_dim(self) -> int:
        return math.prod(self.col_shape)

    def core_shape(self, k: int) -> Optional[Tuple[int, int, int, int]]:
        if not 0 <= k < self.num_cores:
            return None
        return (
            self.row_shape[k],
            self.ranks[k],
            self.col_shape[k],
            self.ranks[k + 1],
        )


@dataclass(frozen=True)
class CoresVal:
    """A :class:`TTCores` instance with (possibly) known spec metadata."""

    spec: Optional[SpecVal] = None
    dtype: Optional[str] = None


@dataclass(frozen=True)
class CoreListVal:
    """``TTCores.cores`` — indexing with a constant yields a core shape."""

    spec: Optional[SpecVal] = None
    dtype: Optional[str] = None


def resolve_dtype(value: Any) -> Optional[str]:
    """Dtype name carried by an abstract value, or None when unknown."""
    if isinstance(value, DTypeVal):
        return value.name
    if isinstance(value, DottedVal):
        return _DTYPE_TAILS.get(value.tail)
    if isinstance(value, str):
        return value if value in _DTYPE_TAILS.values() else None
    return None


def promote_dtypes(*names: Optional[str]) -> Optional[str]:
    """Widest floating dtype among ``names`` (None when none known)."""
    best: Optional[str] = None
    for name in names:
        if name in FLOAT_DTYPES:
            if best is None or FLOAT_DTYPES.index(name) > FLOAT_DTYPES.index(best):
                best = name
    return best


def dims_equal(a: Dim, b: Dim) -> bool:
    """Provably equal: identical ints or the same symbol."""
    if isinstance(a, int) and isinstance(b, int):
        return a == b
    if isinstance(a, SymDim) and isinstance(b, SymDim):
        return a == b
    return False


def dims_conflict(a: Dim, b: Dim) -> bool:
    """Provably unequal: both concrete and different."""
    return isinstance(a, int) and isinstance(b, int) and a != b


def dim_product(dims: Tuple[Dim, ...]) -> Optional[int]:
    """Product of all dims when every one is concrete, else None."""
    total = 1
    for dim in dims:
        if not isinstance(dim, int):
            return None
        total *= dim
    return total


def broadcast_shapes(
    a: Tuple[Dim, ...], b: Tuple[Dim, ...]
) -> Tuple[Optional[Tuple[Dim, ...]], bool]:
    """Numpy-style broadcast of two known-rank shapes.

    Returns ``(result_shape, conflict)``; ``conflict`` is True only for
    a provable incompatibility (two concrete dims, unequal, neither 1).
    """
    rank = max(len(a), len(b))
    padded_a = (1,) * (rank - len(a)) + a
    padded_b = (1,) * (rank - len(b)) + b
    out: list[Dim] = []
    for da, db in zip(padded_a, padded_b):
        if da == 1:
            out.append(db)
        elif db == 1:
            out.append(da)
        elif dims_equal(da, db):
            out.append(da)
        elif dims_conflict(da, db):
            return None, True
        else:
            out.append(None)
    return tuple(out), False


def format_shape(shape: Optional[Tuple[Dim, ...]]) -> str:
    if shape is None:
        return "(?)"
    dims = ["?" if d is None else str(d) for d in shape]
    return f"({dims[0]},)" if len(dims) == 1 else "(" + ", ".join(dims) + ")"
