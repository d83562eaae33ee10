"""Calibration gate: static cost formulas vs. measured zone counters.

Perfcheck's static costs are only trustworthy if the *formulas* behind
them match what :class:`~repro.backend.counter.CostCounter`
actually measures.  :class:`CostModelPricer` closes that loop: it is an
interposer observer that prices each forwarded call with the perfcheck
cost model applied to the *runtime* shapes — the same code path the
static analyzer uses, with every dimension concrete.
:func:`run_calibration` trains a quickcheck-sized Eff-TT DLRM once
under ``Interposer(observers=[counter, pricer])`` — both observers see
the same calls in the same zones — and compares the per-zone FLOP/byte
totals; any relative error beyond the tolerance means the static model
has drifted from the measured truth.

Because both sides resolve einsum costs through the shared
:class:`~repro.backend.plan_cache.ContractionPlanCache` (the pricer via
:meth:`einsum_plan_for_shapes`, keyed identically), agreement is
expected to be exact; the 5% tolerance in the gate is slack for future
backends whose counters are sampled rather than computed.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, List, Optional, Tuple

import numpy as np

from ...backend.counter import CostCounter, KernelStats
from ...backend.interposer import Interposer
from . import costmodel

__all__ = ["CostModelPricer", "ZoneComparison", "CalibrationReport", "run_calibration"]


def _sd(arr: np.ndarray) -> Tuple[Tuple[int, ...], str]:
    """The ``(shape, dtype)`` pair the cost model takes for one array."""
    return tuple(int(d) for d in arr.shape), str(arr.dtype)


def _value(cost: Optional[costmodel.Cost]) -> int:
    # Runtime shapes are fully concrete, so a symbolic or unknown cost
    # here is a bug in the model, not missing information.
    assert cost is not None, "calibration saw an unknown cost for concrete shapes"
    value = cost.value
    assert value is not None, "calibration cost did not collapse to an integer"
    return value


class CostModelPricer(CostCounter):
    """A cost ledger priced by the static perfcheck cost model.

    Keeps :class:`~repro.backend.counter.CostCounter`'s per-zone
    bookkeeping and replaces only its hand-written formulas.
    """

    label = "calibration"

    def cost(self, op: str, args: Tuple[Any, ...], out: Any) -> Tuple[int, int]:
        priced = self._op_cost(op, args, out)
        return _value(priced.flops), _value(priced.bytes)

    def _op_cost(self, op: str, args: Tuple[Any, ...], out: Any) -> costmodel.OpCost:
        if op in ("zeros", "ones", "empty", "full"):
            return costmodel.alloc_cost(*_sd(out))
        if op == "asarray":
            return costmodel.asarray_cost()
        if op == "matmul":
            a, b = args
            return costmodel.matmul_cost(*_sd(a), *_sd(b), *_sd(out))
        if op == "gather_matmul":
            a, table, groups = args
            return costmodel.gather_matmul_cost(
                *_sd(a), *_sd(table), groups.num_groups, *_sd(out)
            )
        if op == "matmul_segment_sum":
            a, b, _ = args
            return costmodel.matmul_segment_sum_cost(*_sd(a), *_sd(b), *_sd(out))
        if op == "einsum":
            subscripts, operands = args
            shapes, dtypes = zip(*(_sd(x) for x in operands))
            return costmodel.einsum_cost(subscripts, shapes, dtypes, *_sd(out))
        if op == "gather_rows":
            return costmodel.gather_cost(*_sd(out))
        if op == "scatter_add_rows":
            _, _, values, scale = args
            return costmodel.scatter_cost(*_sd(values), scale == 1.0)
        if op == "exp":
            return costmodel.elementwise_cost("exp", *_sd(args[0]), *_sd(out))
        if op in ("maximum", "where"):
            return costmodel.elementwise_cost(op, None, None, *_sd(out))
        if op == "axpy":
            return costmodel.elementwise_cost("axpy", *_sd(args[1]), None, None)
        raise ValueError(f"no cost-model entry for backend op {op!r}")


def _rel_err(static: int, measured: int) -> float:
    if measured == 0:
        return 0.0 if static == 0 else float("inf")
    return abs(static - measured) / measured


@dataclass(frozen=True)
class ZoneComparison:
    """Static vs. measured totals for one kernel zone."""

    zone: str
    static_flops: int
    measured_flops: int
    static_bytes: int
    measured_bytes: int

    @property
    def flops_rel_err(self) -> float:
        return _rel_err(self.static_flops, self.measured_flops)

    @property
    def bytes_rel_err(self) -> float:
        return _rel_err(self.static_bytes, self.measured_bytes)


@dataclass
class CalibrationReport:
    """Per-zone agreement between the cost model and measurement."""

    zones: List[ZoneComparison] = field(default_factory=list)
    tolerance: float = 0.05

    @property
    def ok(self) -> bool:
        return (
            bool(self.zones)
            and all(
                z.flops_rel_err <= self.tolerance
                and z.bytes_rel_err <= self.tolerance
                for z in self.zones
            )
        )

    @property
    def max_rel_err(self) -> float:
        if not self.zones:
            return float("inf")
        return max(max(z.flops_rel_err, z.bytes_rel_err) for z in self.zones)


def run_calibration(steps: int = 3, tolerance: float = 0.05) -> CalibrationReport:
    """Train a quickcheck-sized Eff-TT DLRM under the counter and the pricer.

    The workload mirrors the quickcheck backend-equivalence gate: a
    small synthetic Criteo-like click log through the Eff-TT DLRM.  One
    run, watched by both observers; per-zone FLOP/byte totals must agree
    within ``tolerance`` for every zone either side observed.
    """
    from ...backend import use_backend
    from ...data.dataloader import SyntheticClickLog
    from ...data.datasets import criteo_kaggle_like
    from ...models.config import DLRMConfig, EmbeddingBackend
    from ...models.dlrm import DLRM

    spec = criteo_kaggle_like(scale=3e-5)
    log = SyntheticClickLog(spec, batch_size=128, seed=0)
    cfg = DLRMConfig.from_dataset(
        spec,
        embedding_dim=8,
        backend=EmbeddingBackend.EFF_TT,
        tt_rank=8,
        bottom_mlp=(16,),
        top_mlp=(16,),
    )
    measured, static = CostCounter(), CostModelPricer()
    with use_backend(Interposer(observers=[measured, static])):
        model = DLRM(cfg, seed=0)
        for i in range(steps):
            model.train_step(log.batch(i), lr=0.1)

    report = CalibrationReport(tolerance=tolerance)
    for zone in sorted(set(measured.zone_stats) | set(static.zone_stats)):
        m = measured.zone_stats.get(zone, KernelStats())
        s = static.zone_stats.get(zone, KernelStats())
        report.zones.append(
            ZoneComparison(
                zone=zone,
                static_flops=s.flops,
                measured_flops=m.flops,
                static_bytes=s.bytes,
                measured_bytes=m.bytes,
            )
        )
    return report
