"""``gather_matmul`` / ``matmul_segment_sum`` against what they replace.

The two segment-GEMM primitives fuse gather→GEMM and GEMM→scatter; the
compositions they stand in for (``gather_rows`` + ``matmul``, ``matmul``
+ ``scatter_add_rows`` into zeros) stay in the backend and are the
reference here.  Agreement is to rounding, not bitwise: a GEMM over the
rows of a group sums in the BLAS's order, the composition row by row.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.backend import (
    ZONE_EFFTT_BACKWARD,
    ZONE_EFFTT_FORWARD,
    CostCounter,
    InstrumentedBackend,
    Interposer,
    NumericSanitizer,
    NumericTrapError,
    NumpyBackend,
    Observer,
    SanitizerBackend,
)
from repro.backend.groups import group_rows

NUM_SLICES = 11
M, K, N = 3, 4, 5
RTOL = {np.float64: 1e-12, np.float32: 1e-5}


def _zipf(rng, size):
    return np.minimum(rng.zipf(1.5, size=size) - 1, NUM_SLICES - 1)


ID_LISTS = {
    "all-distinct": lambda rng: rng.permutation(NUM_SLICES),
    "one-id-repeated": lambda rng: np.full(40, 6),
    "zipf": lambda rng: _zipf(rng, 200),
    "skips-slices": lambda rng: rng.choice([0, 3, 10], size=50),
    "zero-rows": lambda rng: np.zeros(0, dtype=np.int64),
}


@pytest.fixture(params=sorted(ID_LISTS))
def ids(request):
    return ID_LISTS[request.param](np.random.default_rng(5)).astype(np.int64)


def _operands(ids, dtype, seed=9):
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((ids.size, M, K)).astype(dtype)
    b = rng.standard_normal((ids.size, N, K)).astype(dtype)
    table = rng.standard_normal((NUM_SLICES, K, N)).astype(dtype)
    return a, b, table


def _gather_matmul_reference(bk, a, table, ids):
    return bk.matmul(a, bk.gather_rows(table, ids))


def _segment_sum_reference(bk, a, b, ids):
    """Per-row products scattered into zeros, then the present ids' blocks."""
    full = bk.zeros((NUM_SLICES, M, N), dtype=a.dtype)
    bk.scatter_add_rows(full, ids, bk.matmul(a, b.transpose(0, 2, 1)))
    return full[np.unique(ids)]


class TestGroupRows:
    def test_record_describes_the_list(self, ids):
        groups = group_rows(ids)
        np.testing.assert_array_equal(groups.ids, np.unique(ids))
        np.testing.assert_array_equal(groups.ids[groups.inverse()], ids)
        sorted_ids = ids[groups.order]
        assert np.all(np.diff(sorted_ids) >= 0)
        # stable: rows sharing an id keep their relative order
        for lo, hi in zip(groups.boundaries[:-1], groups.boundaries[1:]):
            assert np.all(np.diff(groups.order[lo:hi]) > 0)
        assert groups.num_rows == ids.size
        assert groups.num_groups == np.unique(ids).size


@pytest.mark.parametrize("dtype", [np.float64, np.float32])
class TestAgainstComposition:
    def test_gather_matmul(self, ids, dtype):
        bk = NumpyBackend()
        a, _, table = _operands(ids, dtype)
        out = bk.gather_matmul(a, table, group_rows(ids))
        assert out.shape == (ids.size, M, N) and out.dtype == dtype
        np.testing.assert_allclose(
            out, _gather_matmul_reference(bk, a, table, ids), rtol=RTOL[dtype]
        )

    def test_gather_matmul_reads_strided_views(self, ids, dtype):
        # The aggregated backward hands both operands over as transposed
        # views; nothing may assume C-contiguity.
        bk = NumpyBackend()
        a, _, table = _operands(ids, dtype)
        a_view = np.ascontiguousarray(a.transpose(0, 2, 1)).transpose(0, 2, 1)
        table_view = np.ascontiguousarray(table.transpose(0, 2, 1)).transpose(0, 2, 1)
        np.testing.assert_array_equal(
            bk.gather_matmul(a_view, table_view, group_rows(ids)),
            bk.gather_matmul(a, table, group_rows(ids)),
        )

    def test_matmul_segment_sum(self, ids, dtype):
        bk = NumpyBackend()
        a, b, _ = _operands(ids, dtype)
        groups = group_rows(ids)
        out = bk.matmul_segment_sum(a, b, groups)
        assert out.shape == (groups.num_groups, M, N) and out.dtype == dtype
        # atol: a block is a sum of up to 200 O(1) products, so its
        # rounding error does not shrink with a small result.
        np.testing.assert_allclose(
            out,
            _segment_sum_reference(bk, a, b, ids),
            rtol=RTOL[dtype],
            atol=200 * RTOL[dtype],
        )

    def test_run_to_run_bitwise(self, ids, dtype):
        bk = NumpyBackend()
        a, b, table = _operands(ids, dtype)
        groups = group_rows(ids)
        np.testing.assert_array_equal(
            bk.gather_matmul(a, table, groups), bk.gather_matmul(a, table, groups)
        )
        np.testing.assert_array_equal(
            bk.matmul_segment_sum(a, b, groups), bk.matmul_segment_sum(a, b, groups)
        )


# ---------------------------------------------------------------------------
# properties: any group structure, any shape, any operand layout
# ---------------------------------------------------------------------------

#: dtype -> bound on |kernel - per-row reference| / (sum of |products|):
#: a few ulps per accumulated term, whatever order the BLAS sums in.
ULPS = {np.float64: 1e-13, np.float32: 1e-4}


@st.composite
def _cases(draw):
    """An id list (empty, one group, presorted or shuffled) plus shapes."""
    num_slices = draw(st.integers(1, 7))
    ids = np.array(
        draw(st.lists(st.integers(0, num_slices - 1), min_size=0, max_size=40)),
        dtype=np.int64,
    )
    if draw(st.booleans()):
        ids = np.sort(ids)
    m, k, n = (draw(st.integers(1, 5)) for _ in range(3))
    return {
        "ids": ids,
        "num_slices": num_slices,
        "shape": (m, k, n),
        "dtype": draw(st.sampled_from([np.float64, np.float32])),
        # hand each operand over C-contiguous or as a transposed view
        "transposed": tuple(draw(st.booleans()) for _ in range(2)),
        "seed": draw(st.integers(0, 2**16)),
    }


def _laid_out(x, transposed):
    """The same values; ``transposed`` stores the last two axes swapped."""
    if not transposed:
        return x
    return np.ascontiguousarray(x.transpose(0, 2, 1)).transpose(0, 2, 1)


class TestKernelProperties:
    @given(_cases())
    @settings(max_examples=150, deadline=None)
    def test_gather_matmul_is_the_per_row_product(self, case):
        ids, (m, k, n), dtype = case["ids"], case["shape"], case["dtype"]
        rng = np.random.default_rng(case["seed"])
        a = rng.standard_normal((ids.size, m, k)).astype(dtype)
        table = rng.standard_normal((case["num_slices"], k, n)).astype(dtype)
        out = NumpyBackend().gather_matmul(
            _laid_out(a, case["transposed"][0]),
            _laid_out(table, case["transposed"][1]),
            group_rows(ids),
        )
        assert out.shape == (ids.size, m, n) and out.dtype == dtype
        for row, slice_id in enumerate(ids):
            wide_a = a[row].astype(np.float64)
            wide_t = table[slice_id].astype(np.float64)
            np.testing.assert_allclose(
                out[row], wide_a @ wide_t,
                rtol=0, atol=ULPS[dtype] * (np.abs(wide_a) @ np.abs(wide_t)).max() + 1e-300,
            )

    @given(_cases())
    @settings(max_examples=150, deadline=None)
    def test_matmul_segment_sum_is_the_per_row_sum(self, case):
        ids, (m, k, n), dtype = case["ids"], case["shape"], case["dtype"]
        rng = np.random.default_rng(case["seed"])
        a = rng.standard_normal((ids.size, m, k)).astype(dtype)
        b = rng.standard_normal((ids.size, n, k)).astype(dtype)
        groups = group_rows(ids)
        out = NumpyBackend().matmul_segment_sum(
            _laid_out(a, case["transposed"][0]),
            _laid_out(b, case["transposed"][1]),
            groups,
        )
        assert out.shape == (groups.num_groups, m, n) and out.dtype == dtype
        for j, slice_id in enumerate(groups.ids):
            members = np.flatnonzero(ids == slice_id)
            wide_a = a[members].astype(np.float64)
            wide_b = b[members].astype(np.float64)
            expected = sum(x @ y.T for x, y in zip(wide_a, wide_b))
            scale = sum(np.abs(x) @ np.abs(y).T for x, y in zip(wide_a, wide_b))
            np.testing.assert_allclose(
                out[j], expected, rtol=0, atol=ULPS[dtype] * scale.max() + 1e-300
            )

    @given(_cases())
    @settings(max_examples=150, deadline=None)
    def test_presorted_means_the_order_is_the_identity(self, case):
        ids = case["ids"]
        groups = group_rows(ids)
        identity = np.array_equal(groups.order, np.arange(ids.size))
        assert groups.presorted == identity == bool(np.all(np.diff(ids) >= 0))
        np.testing.assert_array_equal(groups.order, np.argsort(ids, kind="stable"))
        np.testing.assert_array_equal(groups.ids, np.unique(ids))
        np.testing.assert_array_equal(
            groups.boundaries[1:] - groups.boundaries[:-1],
            np.unique(ids, return_counts=True)[1],
        )

    @given(_cases())
    @settings(max_examples=60, deadline=None)
    def test_observed_backends_stay_bitwise(self, case):
        """numsan and the cost counter watch; they never change a bit."""
        ids, (m, k, n), dtype = case["ids"], case["shape"], case["dtype"]
        rng = np.random.default_rng(case["seed"])
        a = _laid_out(rng.standard_normal((ids.size, m, k)).astype(dtype), case["transposed"][0])
        b = _laid_out(rng.standard_normal((ids.size, n, k)).astype(dtype), case["transposed"][1])
        table = rng.standard_normal((case["num_slices"], k, n)).astype(dtype)
        groups = group_rows(ids)
        plain = NumpyBackend()
        for watched in (InstrumentedBackend(), SanitizerBackend()):
            np.testing.assert_array_equal(
                watched.gather_matmul(a, table, groups),
                plain.gather_matmul(a, table, groups),
            )
            np.testing.assert_array_equal(
                watched.matmul_segment_sum(a, b, groups),
                plain.matmul_segment_sum(a, b, groups),
            )

    def test_ids_too_wide_for_the_radix_sort_group_the_same(self):
        rng = np.random.default_rng(0)
        narrow = rng.integers(0, 50, size=300)
        for wide in (narrow * 100_000, narrow - 25):  # >= 2**16, negative
            groups, reference = group_rows(wide), group_rows(narrow)
            np.testing.assert_array_equal(groups.order, reference.order)
            np.testing.assert_array_equal(groups.starts, reference.starts)
            np.testing.assert_array_equal(groups.ids, np.unique(wide))


class TestCounting:
    def test_flops_are_the_per_row_matmuls_and_slices_count_once(self):
        ids = np.array([2, 7, 2, 2, 7, 9], dtype=np.int64)  # 3 distinct
        a, b, table = _operands(ids, np.float64)
        bk = InstrumentedBackend()
        with bk.zone(ZONE_EFFTT_FORWARD):
            out = bk.gather_matmul(a, table, group_rows(ids))
        stats = bk.op_stats[(ZONE_EFFTT_FORWARD, "gather_matmul")]
        assert stats.flops == 2 * 6 * M * K * N
        assert stats.bytes == a.nbytes + 3 * K * N * 8 + out.nbytes
        with bk.zone(ZONE_EFFTT_BACKWARD):
            blocks = bk.matmul_segment_sum(a, b, group_rows(ids))
        stats = bk.op_stats[(ZONE_EFFTT_BACKWARD, "matmul_segment_sum")]
        assert stats.flops == 2 * 6 * M * K * N
        assert stats.bytes == a.nbytes + b.nbytes + blocks.nbytes
        # the same multiply-adds as the composition they replace
        plain = InstrumentedBackend()
        _gather_matmul_reference(plain, a, table, ids)
        assert plain.op_stats[("unzoned", "matmul")].flops == 2 * 6 * M * K * N


class TestSanitizerTraps:
    def setup_method(self):
        self.ids = np.array([2, 7, 2, 9], dtype=np.int64)
        self.a, self.b, self.table = _operands(self.ids, np.float32)

    def test_out_of_range_slice_id_is_trapped_before_the_read(self):
        bk = SanitizerBackend()
        groups = group_rows(np.array([2, 7, 2, NUM_SLICES], dtype=np.int64))
        with bk.zone(ZONE_EFFTT_FORWARD):
            with pytest.raises(NumericTrapError) as exc:
                bk.gather_matmul(self.a, self.table, groups)
        record = exc.value.record
        assert (record.zone, record.op) == (ZONE_EFFTT_FORWARD, "gather_matmul")
        assert record.kind == "gather-index" and str(NUM_SLICES) in record.detail

    def test_negative_slice_id_is_trapped(self):
        groups = group_rows(np.array([2, -1, 2, 9], dtype=np.int64))
        with pytest.raises(NumericTrapError) as exc:
            SanitizerBackend().gather_matmul(self.a, self.table, groups)
        assert "negative" in exc.value.record.detail

    @pytest.mark.parametrize("op", ["gather_matmul", "matmul_segment_sum"])
    def test_groups_built_for_another_list_are_trapped(self, op):
        # five rows' worth of groups against four-row operands
        groups = group_rows(np.array([2, 7, 2, 9, 9], dtype=np.int64))
        other = self.table if op == "gather_matmul" else self.b
        with pytest.raises(NumericTrapError) as exc:
            getattr(SanitizerBackend(), op)(self.a, other, groups)
        assert (exc.value.record.op, exc.value.record.kind) == (op, "gather-index")

    @pytest.mark.parametrize("op", ["gather_matmul", "matmul_segment_sum"])
    def test_nan_operand_is_trapped_with_zone(self, op):
        self.a[1, 0, 0] = np.nan
        other = self.table if op == "gather_matmul" else self.b
        bk = SanitizerBackend()
        with bk.zone(ZONE_EFFTT_BACKWARD):
            with pytest.raises(NumericTrapError) as exc:
                getattr(bk, op)(self.a, other, group_rows(self.ids))
        record = exc.value.record
        assert (record.zone, record.op, record.kind) == (
            ZONE_EFFTT_BACKWARD, op, "nonfinite",
        )

    def test_nan_in_an_unaddressed_slice_is_not_a_trap(self):
        self.table[5] = np.nan  # no row reads slice 5
        SanitizerBackend().gather_matmul(self.a, self.table, group_rows(self.ids))

    @pytest.mark.parametrize("op", ["gather_matmul", "matmul_segment_sum"])
    def test_float32_operands_give_float32_and_no_drift_trap(self, op):
        other = self.table if op == "gather_matmul" else self.b
        bk = SanitizerBackend(mode="record")
        out = getattr(bk, op)(self.a, other, group_rows(self.ids))
        assert out.dtype == np.float32 and bk.traps == []


class TestInterposerForwarding:
    @pytest.mark.parametrize("op", ["gather_matmul", "matmul_segment_sum"])
    def test_inner_and_every_observer_see_the_call_in_its_zone(self, op):
        seen = []

        class Recorder(Observer):
            def __init__(self, tag):
                self.tag = tag

            def before(self, zone, op, args):
                seen.append((self.tag, "before", zone, op, len(args)))

            def after(self, zone, op, args, out):
                seen.append((self.tag, "after", zone, op, out.shape))

        class Inner(NumpyBackend):
            calls = 0

            def gather_matmul(self, a, table, groups):
                Inner.calls += 1
                return super().gather_matmul(a, table, groups)

            def matmul_segment_sum(self, a, b, groups):
                Inner.calls += 1
                return super().matmul_segment_sum(a, b, groups)

        ids = np.array([2, 7, 2, 9], dtype=np.int64)
        a, b, table = _operands(ids, np.float64)
        other = table if op == "gather_matmul" else b
        bk = Interposer(Inner(), observers=[Recorder("x"), Recorder("y")])
        with bk.zone(ZONE_EFFTT_BACKWARD):
            out = getattr(bk, op)(a, other, group_rows(ids))
        assert Inner.calls == 1
        np.testing.assert_array_equal(
            out, getattr(NumpyBackend(), op)(a, other, group_rows(ids))
        )
        assert seen == [
            (tag, when, ZONE_EFFTT_BACKWARD, op, what)
            for when, what in (("before", 3), ("after", out.shape))
            for tag in ("x", "y")
        ]

    def test_composed_counter_and_sanitizer_stay_bitwise(self, ids):
        a, b, table = _operands(ids, np.float64)
        groups = group_rows(ids)
        composed = Interposer(observers=[CostCounter(), NumericSanitizer()])
        np.testing.assert_array_equal(
            composed.gather_matmul(a, table, groups),
            NumpyBackend().gather_matmul(a, table, groups),
        )
        np.testing.assert_array_equal(
            composed.matmul_segment_sum(a, b, groups),
            NumpyBackend().matmul_segment_sum(a, b, groups),
        )
