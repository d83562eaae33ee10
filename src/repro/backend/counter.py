"""Cost-counting observer: FLOP/byte/call counts per kernel zone.

:class:`CostCounter` is an :class:`~repro.backend.interposer.Observer`
accumulating a :class:`KernelStats` per *kernel zone* (see
:data:`repro.backend.protocol.KERNEL_ZONE_NAMES`) and per ``(zone, op)``
from the runtime shapes of every call the interposer forwards.  The
counters feed the bench harness (``repro bench --backend
instrumented``) and cross-check the analytic model in
:mod:`repro.embeddings.flops`; the per-op formulas are the ``cost``
column of the op table (:mod:`repro.backend.ops`).
:class:`InstrumentedBackend` is the interposer pre-configured with one
counter.

Dtype drift
-----------
Inside a :meth:`CostCounter.expect_dtype` scope, every floating-point
array produced by the backend (allocations and contraction results) is
checked against the expected dtype; mismatches are recorded in
:attr:`CostCounter.dtype_violations` rather than raised, so a
regression test can assert the list stays empty over a full
forward/backward pass.
"""

from __future__ import annotations

import contextlib
from dataclasses import dataclass
from typing import Any, Dict, Iterator, List, Optional, Tuple

import numpy as np

from .interposer import Interposer, Observer
from .ops import OPS
from .protocol import ArrayBackend, DTypeLike

__all__ = ["KernelStats", "DtypeViolation", "CostCounter", "InstrumentedBackend"]


@dataclass
class KernelStats:
    """Accumulated cost of one kernel zone (or one (zone, op) pair)."""

    calls: int = 0
    flops: int = 0
    bytes: int = 0

    def add(self, flops: int, nbytes: int) -> None:
        self.calls += 1
        self.flops += flops
        self.bytes += nbytes

    def merge(self, other: "KernelStats") -> None:
        self.calls += other.calls
        self.flops += other.flops
        self.bytes += other.bytes


@dataclass(frozen=True)
class DtypeViolation:
    """One observed departure from the expected floating dtype."""

    zone: str
    op: str
    expected: str
    actual: str


class CostCounter(Observer):
    """Per-zone and per-(zone, op) cost ledger over the forwarded calls."""

    label = "instrumented"

    def __init__(self) -> None:
        self.zone_stats: Dict[str, KernelStats] = {}
        self.op_stats: Dict[Tuple[str, str], KernelStats] = {}
        self.dtype_violations: List[DtypeViolation] = []
        self._expected_dtype: Optional[np.dtype] = None

    def reset(self) -> None:
        self.zone_stats.clear()
        self.op_stats.clear()
        self.dtype_violations.clear()

    def totals(self) -> KernelStats:
        total = KernelStats()
        for stats in self.zone_stats.values():
            total.merge(stats)
        return total

    @contextlib.contextmanager
    def expect_dtype(self, dtype: DTypeLike) -> Iterator[None]:
        """Record any floating result whose dtype departs from ``dtype``."""
        previous = self._expected_dtype
        self._expected_dtype = np.dtype(dtype)
        try:
            yield
        finally:
            self._expected_dtype = previous

    def after(self, zone: str, op: str, args: Tuple[Any, ...], out: Any) -> None:
        flops, nbytes = OPS[op].cost(out, *args)
        self.zone_stats.setdefault(zone, KernelStats()).add(flops, nbytes)
        self.op_stats.setdefault((zone, op), KernelStats()).add(flops, nbytes)
        expected = self._expected_dtype
        if (
            expected is not None
            and out is not None
            and np.issubdtype(out.dtype, np.floating)
            and out.dtype != expected
        ):
            self.dtype_violations.append(
                DtypeViolation(
                    zone=zone, op=op, expected=str(expected), actual=str(out.dtype)
                )
            )

    def report(self) -> str:
        """Fixed-width per-zone cost table (bench harness output)."""
        header = f"{'zone':<18} {'calls':>8} {'gflops':>10} {'mbytes':>10}"
        lines = [header, "-" * len(header)]
        for zone in sorted(self.zone_stats):
            stats = self.zone_stats[zone]
            lines.append(
                f"{zone:<18} {stats.calls:>8d} {stats.flops / 1e9:>10.4f} "
                f"{stats.bytes / 1e6:>10.3f}"
            )
        total = self.totals()
        lines.append("-" * len(header))
        lines.append(
            f"{'total':<18} {total.calls:>8d} {total.flops / 1e9:>10.4f} "
            f"{total.bytes / 1e6:>10.3f}"
        )
        return "\n".join(lines)


class InstrumentedBackend(Interposer):
    """The interposer with one :class:`CostCounter`, whose ledger it exposes."""

    def __init__(self, inner: Optional[ArrayBackend] = None) -> None:
        counter = CostCounter()
        super().__init__(inner, [counter])
        self.zone_stats = counter.zone_stats
        self.op_stats = counter.op_stats
        self.dtype_violations = counter.dtype_violations
        self.totals = counter.totals
        self.expect_dtype = counter.expect_dtype
