"""Cost-counting observer: FLOP/byte/call counts per kernel zone.

:class:`CostCounter` is an :class:`~repro.backend.interposer.Observer`
accumulating a :class:`KernelStats` per *kernel zone* (see
:data:`repro.backend.protocol.KERNEL_ZONE_NAMES`) and per ``(zone, op)``
from the runtime shapes of every call the interposer forwards.  The
counters feed the bench harness (``repro bench --backend
instrumented``), cross-check the analytic model in
:mod:`repro.embeddings.flops`, and are the measured side of perfcheck's
calibration gate — so the formulas below are hand-written and do not
import the static cost model they are compared against.
:class:`InstrumentedBackend` is the interposer pre-configured with one
counter.

Cost model
----------
* ``matmul`` — ``2 * prod(batch) * m * k * n`` FLOPs from the runtime
  operand shapes; bytes = operands read + result written.
* ``gather_matmul`` / ``matmul_segment_sum`` — the same
  ``2 * rows * m * k * n`` as the per-row ``matmul`` they replace (the
  fusion moves bytes, not multiply-adds); bytes = operands once + each
  *distinct* table slice once + result.
* ``einsum`` — the FLOP count of the plan the plan cache derives for
  the call's signature.
* ``gather_rows`` / ``scatter_add_rows`` — pure traffic: rows read and
  written (scatter counts read-modify-write on the target rows, plus
  one FLOP per added element and one per scaled element).
* elementwise (``exp``/``maximum``/``where``/``axpy``) — one FLOP per
  output element (two for ``axpy``: multiply + add), read/write
  traffic from operand sizes.

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
from .plan_cache import get_plan_cache
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

    def cost(self, op: str, args: Tuple[Any, ...], out: Any) -> Tuple[int, int]:
        """``(flops, bytes)`` of one forwarded call."""
        if op in ("zeros", "ones", "empty", "full"):
            return 0, out.nbytes
        if op == "asarray":
            return 0, 0
        if op == "matmul":
            a, b = args
            m = a.shape[-2] if a.ndim >= 2 else 1
            k = a.shape[-1]
            n = b.shape[-1] if b.ndim >= 2 else 1
            batch = int(np.prod(out.shape[:-2], dtype=np.int64)) if out.ndim > 2 else 1
            return 2 * batch * m * k * n, a.nbytes + b.nbytes + out.nbytes
        if op == "gather_matmul":
            a, table, groups = args
            rows, m, k = a.shape
            n = table.shape[2]
            slices = groups.num_groups * k * n * table.itemsize
            return 2 * rows * m * k * n, a.nbytes + slices + out.nbytes
        if op == "matmul_segment_sum":
            a, b, _ = args
            rows, m, k = a.shape
            return 2 * rows * m * k * b.shape[1], a.nbytes + b.nbytes + out.nbytes
        if op == "einsum":
            subscripts, operands = args
            plan = get_plan_cache().einsum_plan(subscripts, *operands)
            return plan.flop_count, sum(x.nbytes for x in operands) + out.nbytes
        if op == "gather_rows":
            return 0, 2 * out.nbytes
        if op == "scatter_add_rows":
            _, _, values, scale = args
            flops = values.size if scale == 1.0 else 2 * values.size
            return flops, 3 * values.nbytes
        if op == "exp":
            return out.size, args[0].nbytes + out.nbytes
        if op in ("maximum", "where"):
            return out.size, 2 * out.nbytes
        if op == "axpy":
            values = args[1]
            return 2 * values.size, 3 * values.nbytes
        raise ValueError(f"no cost formula for backend op {op!r}")

    def after(self, zone: str, op: str, args: Tuple[Any, ...], out: Any) -> None:
        flops, nbytes = self.cost(op, args, out)
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
