"""The one interposing backend: a zone-tracking wrapper plus observers.

:class:`Interposer` wraps any :class:`~repro.backend.protocol.ArrayBackend`
(the reference :class:`~repro.backend.numpy_backend.NumpyBackend` by
default) and forwards every protocol call to it unchanged — results are
bitwise-identical to the wrapped backend.  It alone owns the kernel-zone
stack; everything that wants to *watch* the calls is an
:class:`Observer` handed the innermost open zone, the op name, the
operands and the result — the cost counter (:mod:`.counter`) and the
numeric sanitizer (:mod:`.numsan`).

Observers compose in one pass: ``Interposer(observers=[counter,
sanitizer])`` counts and checks the same run, and both see the same
zone.  Each call runs every observer's :meth:`Observer.before`, then
the inner op, then every :meth:`Observer.after`; ``before`` exists
because a row-index range check must run before numpy silently wraps a
negative index.

The forwarding methods are generated, one per row of the op table
(:data:`repro.backend.ops.OPS`), with the row's signature.  Operand
convention (``args`` in the hooks): the op's arguments in protocol order
with defaults filled in, however the caller spelled them —
``scatter_add_rows`` is ``(target, indices, values, scale)``.  ``out``
is the inner result
(``None`` for the in-place ops).  An observer reads what the operands
*mean* from the op's row, ``OPS[op]``.
"""

from __future__ import annotations

import contextlib
import inspect
from typing import Any, Callable, Iterator, List, Optional, Sequence, Tuple

from .numpy_backend import NumpyBackend
from .ops import OPS, OpSpec
from .protocol import UNZONED, ArrayBackend

__all__ = ["Interposer", "Observer"]


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


def _forwarder(spec: OpSpec) -> Callable[..., Any]:
    """The interposer's method for one row of the op table."""

    def method(self: Interposer, *args: Any, **kwargs: Any) -> Any:
        operands = tuple(spec.bind(args, kwargs).values())
        zone = self.current_zone
        for observer in self.observers:
            observer.before(zone, spec.name, operands)
        out = getattr(self.inner, spec.name)(*operands)
        for observer in self.observers:
            observer.after(zone, spec.name, operands, out)
        return out

    self_param = inspect.Parameter("self", inspect.Parameter.POSITIONAL_OR_KEYWORD)
    method.__name__ = spec.name
    method.__signature__ = spec.signature.replace(  # type: ignore[attr-defined]
        parameters=[self_param, *spec.signature.parameters.values()]
    )
    return method


for _spec in OPS.values():
    setattr(Interposer, _spec.name, _forwarder(_spec))
