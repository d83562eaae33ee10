"""numsan: the numeric-sanitizer observer.

:class:`NumericSanitizer` is an :class:`~repro.backend.interposer.Observer`
that *checks* what flows through the interposer — it never touches a
value, so results stay bitwise-identical to the wrapped backend:

* **non-finite outputs** — any NaN/Inf in a floating result (and in the
  inputs and updated target of an in-place op) trips a ``nonfinite``
  trap.  ``empty()`` results are exempt: their bits are uninitialized
  by contract.
* **out-of-range gather/scatter indices** — checked *before* the inner
  call, because numpy silently wraps negative indices to the end of the
  table; a wrapped read is precisely the bug the paper's gather/scatter
  paths must never hit.
* **dtype drift** — a floating result wider than the widest floating
  operand means an implicit upcast (the float64 default leaking in);
  trips a ``dtype-drift`` trap.

Which operand plays which part — index into which table, bound on the
result dtype, written in place — is the op's row in the op table
(:mod:`repro.backend.ops`); this module names no op.

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
sanitizer.  It is the dynamic half of :mod:`repro.analysis.shapecheck`:
the same contracts, enforced on the values the static domain left symbolic.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Tuple

import numpy as np

from .interposer import Interposer, Observer
from .ops import OPS, OpSpec
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
    for x in operands:
        if isinstance(x, np.ndarray) and np.issubdtype(x.dtype, np.floating):
            widest = max(widest, x.dtype.itemsize)
    if not widest or out.dtype.itemsize <= widest:
        return None
    return (
        f"result dtype {out.dtype} is wider than the widest "
        f"floating operand ({widest * 8}-bit): implicit upcast"
    )


def _nonfinite_input(value: Any, role: str) -> Optional[str]:
    if np.ndim(value) == 0:
        return None if np.isfinite(value) else f"{role} is {value!r}"
    return _nonfinite(np.asarray(value), role)


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


def _row(op: str, args: Tuple[Any, ...]) -> Tuple[OpSpec, Dict[str, Any]]:
    """The op's table row and its operands by name."""
    spec = OPS[op]
    return spec, dict(zip(spec.params, args))


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
        spec, bound = _row(op, args)
        for path, table in spec.index_roles:
            name, _, attr = path.partition(".")
            indices = getattr(bound[name], attr) if attr else bound[name]
            self._trap(zone, op, "gather-index", _bad_index(indices, bound[table].shape[0]))
        for name in spec.finite_inputs:
            self._trap(zone, op, "nonfinite", _nonfinite_input(bound[name], name))
        if spec.in_place is not None:
            drift = _drift(bound[spec.in_place], *map(bound.get, spec.drift_operands))
            self._trap(zone, op, "dtype-drift", drift)

    def after(self, zone: str, op: str, args: Tuple[Any, ...], out: Any) -> None:
        spec, bound = _row(op, args)
        if spec.in_place is not None:
            updated = _nonfinite(bound[spec.in_place], "updated target")
            self._trap(zone, op, "nonfinite", updated)
        elif spec.checks_result:
            drift = _drift(out, *map(bound.get, spec.drift_operands))
            self._trap(zone, op, "dtype-drift", drift)
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
