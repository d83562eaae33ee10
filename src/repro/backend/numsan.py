"""numsan: the numeric-sanitizer observer.

:class:`NumericSanitizer` is an :class:`~repro.backend.interposer.Observer`
that *checks* what flows through the interposer — it never touches a
value, so results stay bitwise-identical to the wrapped backend:

* **non-finite outputs** — any NaN/Inf in a floating result of
  ``matmul``/``einsum``/``exp``/``maximum``/``where``/``gather_rows``
  (and in ``axpy``/``scatter_add_rows`` inputs and updated targets)
  trips a ``nonfinite`` trap.  ``empty()`` results are exempt: their
  bits are uninitialized by contract.
* **out-of-range gather/scatter indices** — checked *before* the inner
  call, because numpy silently wraps negative indices to the end of the
  table; a wrapped read is precisely the bug the paper's gather/scatter
  paths must never hit.
* **dtype drift** — a floating result wider than the widest floating
  operand means an implicit upcast (the float64 default leaking in);
  trips a ``dtype-drift`` trap.

Every trap is tagged with the innermost open kernel zone (see
``ArrayBackend.zone``), so a report reads "``nonfinite`` in
``efftt_backward``" rather than pointing at a random ufunc.  In the
default ``mode="raise"`` the first trap raises
:class:`NumericTrapError`; ``mode="record"`` accumulates
:class:`TrapRecord` entries for offline assertion (the quickcheck
equivalence gate runs this way).  In record mode every call is still
forwarded verbatim, so a hard out-of-bounds index that numpy itself
rejects will raise ``IndexError`` from the inner backend right after
the trap is recorded — the record tells you *which zone* it came from.
:class:`SanitizerBackend` is the interposer pre-configured with one
sanitizer.

This is the dynamic half of the shapecheck story: the static checker
(:mod:`repro.analysis.shapecheck`) proves what it can at the AST level,
and the sanitizer enforces the same contracts on the values the static
domain had to leave symbolic.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, List, Optional, Tuple

import numpy as np

from .interposer import Interposer, Observer
from .protocol import ArrayBackend

__all__ = ["NumericSanitizer", "NumericTrapError", "SanitizerBackend", "TrapRecord"]


@dataclass(frozen=True)
class TrapRecord:
    """One sanitizer trap: where, what op, what kind, and the details."""

    zone: str
    op: str
    kind: str  # "nonfinite" | "gather-index" | "dtype-drift"
    detail: str

    def format(self) -> str:
        return f"[{self.zone}] {self.op}: {self.kind} — {self.detail}"


class NumericTrapError(RuntimeError):
    """Raised in ``mode="raise"`` when a sanitizer check trips."""

    def __init__(self, record: TrapRecord) -> None:
        super().__init__(record.format())
        self.record = record


def _nonfinite(out: np.ndarray, role: str = "result") -> Optional[str]:
    if not np.issubdtype(out.dtype, np.floating) or np.all(np.isfinite(out)):
        return None
    bad = int(out.size - np.count_nonzero(np.isfinite(out)))
    return (
        f"{role} of shape {out.shape} ({out.dtype}) contains "
        f"{bad} non-finite element(s)"
    )


def _drift(out: np.ndarray, *operands: Any) -> Optional[str]:
    if not np.issubdtype(out.dtype, np.floating):
        return None
    widest = 0
    for operand in operands:
        if isinstance(operand, np.ndarray) and np.issubdtype(
            operand.dtype, np.floating
        ):
            widest = max(widest, operand.dtype.itemsize)
    if not widest or out.dtype.itemsize <= widest:
        return None
    return (
        f"result dtype {out.dtype} is wider than the widest "
        f"floating operand ({widest * 8}-bit): implicit upcast"
    )


def _bad_index(indices: np.ndarray, rows: int) -> Optional[str]:
    indices = np.asarray(indices)
    if indices.size == 0:
        return None
    lo = int(indices.min())
    hi = int(indices.max())
    if lo < 0:
        return (
            f"negative row index {lo} (numpy wraps it to row "
            f"{rows + lo} silently)"
        )
    if hi >= rows:
        return f"row index {hi} out of range for a table with {rows} rows"
    return None


class NumericSanitizer(Observer):
    """Traps NaN/Inf, out-of-range row indices and implicit floating upcasts."""

    label = "sanitizer"

    def __init__(self, mode: str = "raise") -> None:
        if mode not in ("raise", "record"):
            raise ValueError(f"mode must be 'raise' or 'record', got {mode!r}")
        self.mode = mode
        self.traps: List[TrapRecord] = []

    def reset(self) -> None:
        self.traps.clear()

    def report(self) -> str:
        if not self.traps:
            return "numsan: no traps"
        lines = [f"numsan: {len(self.traps)} trap(s)"]
        lines.extend(record.format() for record in self.traps)
        return "\n".join(lines)

    def _trap(self, zone: str, op: str, kind: str, detail: Optional[str]) -> None:
        """Record (and in raise mode, raise) a trap when a check found one."""
        if detail is None:
            return
        record = TrapRecord(zone=zone, op=op, kind=kind, detail=detail)
        self.traps.append(record)
        if self.mode == "raise":
            raise NumericTrapError(record)

    def before(self, zone: str, op: str, args: Tuple[Any, ...]) -> None:
        if op == "gather_rows":
            table, indices = args
            self._trap(zone, op, "gather-index", _bad_index(indices, table.shape[0]))
        elif op in ("gather_matmul", "matmul_segment_sum"):
            a, other, groups = args
            # A record built for another index list addresses rows that
            # are not there; numpy would wrap or raise past the zone.
            self._trap(zone, op, "gather-index", _bad_index(groups.order, a.shape[0]))
            if op == "gather_matmul":
                self._trap(
                    zone, op, "gather-index", _bad_index(groups.ids, other.shape[0])
                )
        elif op == "scatter_add_rows":
            target, indices, values, _ = args
            self._trap(zone, op, "gather-index", _bad_index(indices, target.shape[0]))
            self._trap(zone, op, "nonfinite", _nonfinite(np.asarray(values), "values"))
            self._trap(zone, op, "dtype-drift", _drift(target, values))
        elif op == "axpy":
            target, values, scale = args
            self._trap(zone, op, "nonfinite", _nonfinite(np.asarray(values), "values"))
            if not np.isfinite(scale):
                self._trap(zone, op, "nonfinite", f"scale is {scale!r}")
            self._trap(zone, op, "dtype-drift", _drift(target, values))

    def after(self, zone: str, op: str, args: Tuple[Any, ...], out: Any) -> None:
        if op in ("zeros", "ones", "empty"):
            # Fresh allocations; empty() is uninitialized by contract
            # and must never be finite-checked.
            return
        if op in ("scatter_add_rows", "axpy"):
            self._trap(zone, op, "nonfinite", _nonfinite(args[0], "updated target"))
            return
        if op == "einsum":
            subscripts, operands = args
            op = f"einsum[{subscripts}]"
            self._trap(zone, op, "dtype-drift", _drift(out, *operands))
        elif op in ("matmul", "maximum"):
            self._trap(zone, op, "dtype-drift", _drift(out, *args))
        elif op in ("gather_matmul", "matmul_segment_sum"):
            self._trap(zone, op, "dtype-drift", _drift(out, *args[:2]))  # not groups
        elif op == "where":
            self._trap(zone, op, "dtype-drift", _drift(out, *args[1:]))  # not cond
        # full/asarray/gather_rows/exp are finite-checked only.  The
        # repo's stable-sigmoid only exponentiates non-positive
        # arguments, so a non-finite exp output is always a bug.
        self._trap(zone, op, "nonfinite", _nonfinite(out))


class SanitizerBackend(Interposer):
    """The interposer with one :class:`NumericSanitizer`, whose traps it exposes."""

    def __init__(
        self, inner: Optional[ArrayBackend] = None, mode: str = "raise"
    ) -> None:
        sanitizer = NumericSanitizer(mode)
        super().__init__(inner, [sanitizer])
        self.mode = sanitizer.mode
        self.traps = sanitizer.traps
