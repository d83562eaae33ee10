"""The one interposing backend: a zone-tracking wrapper plus observers.

:class:`Interposer` wraps any :class:`~repro.backend.protocol.ArrayBackend`
(the reference :class:`~repro.backend.numpy_backend.NumpyBackend` by
default) and forwards every protocol call to it unchanged — results are
bitwise-identical to the wrapped backend.  It alone owns the kernel-zone
stack; everything that wants to *watch* the calls is an
:class:`Observer` handed the innermost open zone, the op name, the
operands and the result — the cost counter (:mod:`.counter`), the
numeric sanitizer (:mod:`.numsan`), perfcheck's cost-model pricer.

Observers compose in one pass: ``Interposer(observers=[counter,
sanitizer])`` counts and checks the same run, and both see the same
zone.  Each call runs every observer's :meth:`Observer.before`, then
the inner op, then every :meth:`Observer.after`; ``before`` exists
because a row-index range check must run before numpy silently wraps a
negative index.

Operand convention (``args`` in the hooks): the op's positional
arguments in protocol order with defaults filled in —
``scatter_add_rows`` is ``(target, indices, values, scale)`` — except
``einsum``, which is ``(subscripts, operands)``.  ``out`` is the
inner result (``None`` for the in-place ops).
"""

from __future__ import annotations

import contextlib
from typing import Any, Callable, Iterator, List, Optional, Sequence, Tuple, TypeVar

import numpy as np

from .groups import RowGroups
from .numpy_backend import NumpyBackend
from .protocol import UNZONED, ArrayBackend, DTypeLike, Shape

__all__ = ["Interposer", "Observer"]

T = TypeVar("T")


class Observer:
    """Watches the calls an :class:`Interposer` forwards; all hooks optional."""

    label = "observer"

    def before(self, zone: str, op: str, args: Tuple[Any, ...]) -> None:
        """Runs before the inner call (may raise to veto it)."""

    def after(self, zone: str, op: str, args: Tuple[Any, ...], out: Any) -> None:
        """Runs after the inner call returned ``out``."""

    def reset(self) -> None:
        """Drop everything accumulated so far."""

    def report(self) -> str:
        """Human-readable summary; empty when there is nothing to print."""
        return ""


class Interposer:
    """Forwarding wrapper satisfying :class:`~repro.backend.protocol.ArrayBackend`."""

    def __init__(
        self,
        inner: Optional[ArrayBackend] = None,
        observers: Sequence[Observer] = (),
    ) -> None:
        self.inner: ArrayBackend = inner if inner is not None else NumpyBackend()
        self.observers: List[Observer] = list(observers)
        labels = "+".join(ob.label for ob in self.observers) or "interposer"
        self.name = f"{labels}[{self.inner.name}]"
        self._zone_stack: List[str] = []

    # -- bookkeeping ---------------------------------------------------
    @property
    def current_zone(self) -> str:
        return self._zone_stack[-1] if self._zone_stack else UNZONED

    def reset(self) -> None:
        for observer in self.observers:
            observer.reset()

    def report(self) -> str:
        """Every observer's non-empty report, blank-line separated."""
        reports = [observer.report() for observer in self.observers]
        return "\n\n".join(text for text in reports if text)

    @contextlib.contextmanager
    def zone(self, name: str) -> Iterator[None]:
        self._zone_stack.append(name)
        try:
            with self.inner.zone(name):
                yield
        finally:
            self._zone_stack.pop()

    def _observed(self, op: str, call: Callable[..., T], *args: Any) -> T:
        zone = self.current_zone
        for observer in self.observers:
            observer.before(zone, op, args)
        out = call(*args)
        for observer in self.observers:
            observer.after(zone, op, args, out)
        return out

    # -- allocation ----------------------------------------------------
    def zeros(self, shape: Shape, dtype: DTypeLike) -> np.ndarray:
        return self._observed("zeros", self.inner.zeros, shape, dtype)

    def ones(self, shape: Shape, dtype: DTypeLike) -> np.ndarray:
        return self._observed("ones", self.inner.ones, shape, dtype)

    def empty(self, shape: Shape, dtype: DTypeLike) -> np.ndarray:
        return self._observed("empty", self.inner.empty, shape, dtype)

    def full(self, shape: Shape, fill_value: float, dtype: DTypeLike) -> np.ndarray:
        return self._observed("full", self.inner.full, shape, fill_value, dtype)

    def asarray(self, a: Any, dtype: Optional[DTypeLike] = None) -> np.ndarray:
        return self._observed("asarray", self.inner.asarray, a, dtype)

    # -- contraction ---------------------------------------------------
    def matmul(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        return self._observed("matmul", self.inner.matmul, a, b)

    def einsum(self, subscripts: str, *operands: np.ndarray) -> np.ndarray:
        def call(spec: str, arrays: Tuple[np.ndarray, ...]) -> np.ndarray:
            return self.inner.einsum(spec, *arrays)

        return self._observed("einsum", call, subscripts, operands)

    def gather_matmul(
        self, a: np.ndarray, table: np.ndarray, groups: RowGroups
    ) -> np.ndarray:
        return self._observed("gather_matmul", self.inner.gather_matmul, a, table, groups)

    def matmul_segment_sum(
        self, a: np.ndarray, b: np.ndarray, groups: RowGroups
    ) -> np.ndarray:
        call = self.inner.matmul_segment_sum
        return self._observed("matmul_segment_sum", call, a, b, groups)

    # -- sparse movement -----------------------------------------------
    def gather_rows(self, table: np.ndarray, indices: np.ndarray) -> np.ndarray:
        return self._observed("gather_rows", self.inner.gather_rows, table, indices)

    def scatter_add_rows(
        self,
        target: np.ndarray,
        indices: np.ndarray,
        values: np.ndarray,
        scale: float = 1.0,
    ) -> None:
        scatter = self.inner.scatter_add_rows
        self._observed("scatter_add_rows", scatter, target, indices, values, scale)

    # -- elementwise ---------------------------------------------------
    def exp(self, a: np.ndarray) -> np.ndarray:
        return self._observed("exp", self.inner.exp, a)

    def maximum(self, a: Any, b: Any) -> np.ndarray:
        return self._observed("maximum", self.inner.maximum, a, b)

    def where(self, cond: np.ndarray, a: Any, b: Any) -> np.ndarray:
        return self._observed("where", self.inner.where, cond, a, b)

    def axpy(self, target: np.ndarray, values: np.ndarray, scale: float) -> None:
        self._observed("axpy", self.inner.axpy, target, values, scale)
