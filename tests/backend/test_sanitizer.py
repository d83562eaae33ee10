"""Tests for the numeric-sanitizer backend (numsan).

Two obligations, per the design: (1) a clean workload through
``SanitizerBackend`` is *bitwise identical* to ``NumpyBackend`` with
zero traps — the sanitizer observes, never perturbs; (2) injected
numeric hazards (NaN/Inf, out-of-range gather indices, implicit dtype
upcasts) are trapped with the enclosing kernel zone in the report.
"""

import numpy as np
import pytest

from repro.backend import (
    NumericTrapError,
    NumpyBackend,
    SanitizerBackend,
    ZONE_EFFTT_BACKWARD,
    ZONE_OPTIMIZER,
    ZONE_PS_GATHER,
    ZONE_TT_FORWARD,
    group_rows,
    resolve_backend,
)

from tests.backend.test_equivalence import (
    _efftt_workload,
    _interaction_workload,
    _mlp_workload,
    _pipeline_workload,
    _tt_workload,
)

WORKLOADS = {
    "tt": _tt_workload,
    "efftt": _efftt_workload,
    "mlp": _mlp_workload,
    "interaction": _interaction_workload,
    "pipeline": _pipeline_workload,
}


def _assert_same(ref, got):
    """Recursively compare workload outputs bitwise."""
    if isinstance(ref, np.ndarray):
        np.testing.assert_array_equal(ref, got)
    elif isinstance(ref, (list, tuple)):
        assert len(ref) == len(got)
        for a, b in zip(ref, got):
            _assert_same(a, b)
    elif hasattr(ref, "losses"):  # pipeline TrainResult
        np.testing.assert_array_equal(ref.losses, got.losses)
    elif hasattr(ref, "tables"):  # pipeline HostParameterServer
        _assert_same(list(ref.tables), list(got.tables))
    else:
        assert ref == got


class TestTransparency:
    @pytest.mark.parametrize("name", sorted(WORKLOADS))
    def test_bitwise_identical_and_trap_free(self, name):
        reference = WORKLOADS[name](NumpyBackend())
        sanitizer = SanitizerBackend()
        observed = WORKLOADS[name](sanitizer)
        assert sanitizer.traps == []
        _assert_same(reference, observed)

    def test_empty_is_exempt_from_finite_checks(self):
        bk = SanitizerBackend()
        bk.empty((4, 4), dtype=np.float32)  # uninitialised memory: no trap
        assert bk.traps == []

    def test_resolve_backend_knows_sanitizer(self):
        assert isinstance(resolve_backend("sanitizer"), SanitizerBackend)


class TestTraps:
    def test_nan_output_is_trapped_with_zone(self):
        bk = SanitizerBackend()
        poisoned = bk.zeros((2, 2), dtype=np.float32)
        poisoned[0, 0] = np.nan
        with bk.zone(ZONE_TT_FORWARD):
            with pytest.raises(NumericTrapError) as exc:
                bk.matmul(poisoned, bk.ones((2, 2), dtype=np.float32))
        record = exc.value.record
        assert record.zone == ZONE_TT_FORWARD
        assert record.kind == "nonfinite"
        assert record.op == "matmul"

    def test_inf_from_exp_overflow_is_trapped(self):
        bk = SanitizerBackend()
        with np.errstate(over="ignore"):  # the overflow is the point
            with pytest.raises(NumericTrapError) as exc:
                bk.exp(np.float32(1e5) * bk.ones((3,), dtype=np.float32))
        assert exc.value.record.kind == "nonfinite"

    def test_oob_gather_index_is_trapped_before_the_read(self):
        bk = SanitizerBackend()
        table = bk.zeros((8, 4), dtype=np.float32)
        with bk.zone(ZONE_PS_GATHER):
            with pytest.raises(NumericTrapError) as exc:
                bk.gather_rows(table, np.array([0, 11]))
        record = exc.value.record
        assert record.zone == ZONE_PS_GATHER
        assert record.kind == "gather-index"
        assert "11" in record.detail and "8" in record.detail

    def test_negative_index_wrap_is_trapped(self):
        # numpy silently wraps negative indices; that is almost always
        # a bug in a hashed-id pipeline, so numsan refuses it.
        bk = SanitizerBackend()
        table = bk.zeros((8, 4), dtype=np.float32)
        with pytest.raises(NumericTrapError) as exc:
            bk.gather_rows(table, np.array([-1]))
        assert exc.value.record.kind == "gather-index"
        assert "negative" in exc.value.record.detail

    def test_scatter_indices_are_checked(self):
        bk = SanitizerBackend()
        table = bk.zeros((8, 4), dtype=np.float32)
        with pytest.raises(NumericTrapError):
            bk.scatter_add_rows(
                table, np.array([9]), bk.ones((1, 4), dtype=np.float32)
            )

    def test_implicit_float64_upcast_is_trapped(self):
        # The table drifted to float64 (numpy's default leaked in)
        # while the gradient pipeline is float32: the scatter target
        # being wider than its updates is exactly the drift numsan
        # polices.
        bk = SanitizerBackend()
        table = np.zeros((8, 4), dtype=np.float64)
        grads = bk.zeros((2, 4), dtype=np.float32)
        with bk.zone(ZONE_OPTIMIZER):
            with pytest.raises(NumericTrapError) as exc:
                bk.scatter_add_rows(table, np.array([0, 1]), grads)
        assert exc.value.record.kind == "dtype-drift"
        assert exc.value.record.zone == ZONE_OPTIMIZER

    def test_nan_in_axpy_values_is_trapped(self):
        bk = SanitizerBackend()
        target = bk.zeros((4,), dtype=np.float32)
        bad = np.full((4,), np.nan, dtype=np.float32)
        with pytest.raises(NumericTrapError):
            bk.axpy(target, bad, -0.1)


class TestRecordMode:
    def test_record_mode_accumulates_without_raising(self):
        bk = SanitizerBackend(mode="record")
        table = bk.zeros((8, 4), dtype=np.float32)
        with bk.zone(ZONE_PS_GATHER):
            bk.gather_rows(table, np.array([-2]))
        with np.errstate(over="ignore"):
            bk.exp(np.float32(1e5) * bk.ones((2,), dtype=np.float32))
        kinds = [t.kind for t in bk.traps]
        assert kinds == ["gather-index", "nonfinite"]
        assert bk.traps[0].zone == ZONE_PS_GATHER
        assert bk.traps[1].zone == "unzoned"

    def test_segment_sum_with_a_short_b_keeps_its_zone(self):
        # groups.order indexes the rows of *both* operands: a b that is
        # shorter than the index list must trap before numpy raises a
        # bare error that has forgotten the zone.
        bk = SanitizerBackend(mode="record")
        groups = group_rows(np.array([2, 0, 2, 1]))
        a = bk.ones((4, 2, 3), dtype=np.float32)
        short_b = bk.ones((3, 5, 3), dtype=np.float32)
        with bk.zone(ZONE_EFFTT_BACKWARD):
            with pytest.raises((IndexError, ValueError)):
                bk.matmul_segment_sum(a, short_b, groups)
        assert [(t.zone, t.op, t.kind) for t in bk.traps] == [
            (ZONE_EFFTT_BACKWARD, "matmul_segment_sum", "gather-index")
        ]
        assert "3 rows" in bk.traps[0].detail

    def test_report_and_reset(self):
        bk = SanitizerBackend(mode="record")
        assert "no traps" in bk.report()
        bk.asarray(np.array([np.inf], dtype=np.float32))
        report = bk.report()
        assert "nonfinite" in report and "asarray" in report
        bk.reset()
        assert bk.traps == [] and "no traps" in bk.report()

    def test_invalid_mode_rejected(self):
        with pytest.raises(ValueError):
            SanitizerBackend(mode="warn")

    def test_trap_record_format_carries_zone(self):
        bk = SanitizerBackend(mode="record")
        with bk.zone(ZONE_TT_FORWARD):
            bk.asarray(np.array([np.nan], dtype=np.float32))
        line = bk.traps[0].format()
        assert line.startswith(f"[{ZONE_TT_FORWARD}]")
