"""Backend registry, protocol conformance, and the torch import guard."""

import numpy as np
import pytest

from repro.backend import (
    BACKEND_NAMES,
    KERNEL_ZONE_NAMES,
    BackendUnavailableError,
    CostCounter,
    InstrumentedBackend,
    Interposer,
    NumericSanitizer,
    NumpyBackend,
    SanitizerBackend,
    TorchBackend,
    get_backend,
    resolve_backend,
    set_backend,
    torch_available,
    use_backend,
)


class TestRegistry:
    def test_default_backend_is_numpy(self):
        assert get_backend().name == "numpy"

    def test_use_backend_swaps_and_restores(self):
        before = get_backend()
        with use_backend("instrumented") as inst:
            assert get_backend() is inst
            assert isinstance(inst, InstrumentedBackend)
        assert get_backend() is before

    def test_use_backend_restores_on_exception(self):
        before = get_backend()
        with pytest.raises(RuntimeError):
            with use_backend("instrumented"):
                raise RuntimeError("boom")
        assert get_backend() is before

    def test_use_backend_accepts_instance(self):
        mine = NumpyBackend()
        with use_backend(mine) as active:
            assert active is mine

    def test_set_backend_installs_globally(self):
        before = get_backend()
        try:
            installed = set_backend("instrumented")
            assert get_backend() is installed
        finally:
            set_backend(before)

    def test_resolve_none_returns_active(self):
        assert resolve_backend(None) is get_backend()

    def test_unknown_name_raises(self):
        with pytest.raises(ValueError, match="unknown backend"):
            resolve_backend("cuda")

    def test_backend_names_catalog(self):
        assert BACKEND_NAMES == ("numpy", "instrumented", "sanitizer", "torch")


class TestTorchGuard:
    @pytest.mark.skipif(torch_available(), reason="torch is installed")
    def test_torch_unavailable_raises_with_guidance(self):
        with pytest.raises(BackendUnavailableError, match="--backend numpy"):
            TorchBackend()

    @pytest.mark.skipif(torch_available(), reason="torch is installed")
    def test_resolve_torch_surfaces_guard(self):
        with pytest.raises(BackendUnavailableError):
            resolve_backend("torch")


class TestNumpyBackendOps:
    """The reference backend must match plain numpy bit for bit."""

    def setup_method(self):
        self.bk = NumpyBackend()
        self.rng = np.random.default_rng(7)

    def test_allocators_honor_dtype(self):
        for dtype in (np.float32, np.float64):
            assert self.bk.zeros((3, 2), dtype=dtype).dtype == dtype
            assert self.bk.ones(4, dtype=dtype).dtype == dtype
            assert self.bk.empty((2,), dtype=dtype).dtype == dtype
            assert self.bk.full((2, 2), 0.5, dtype=dtype).dtype == dtype

    def test_matmul_matches_numpy(self):
        a = self.rng.standard_normal((5, 4, 3))
        b = self.rng.standard_normal((5, 3, 2))
        np.testing.assert_array_equal(self.bk.matmul(a, b), np.matmul(a, b))

    def test_einsum_is_not_a_backend_op(self):
        # Retired with its last caller: every contraction is a matmul
        # or a segment GEMM, so a stray call fails loudly.
        assert not hasattr(self.bk, "einsum")

    def test_gather_scatter_round_trip(self):
        table = self.rng.standard_normal((8, 4))
        idx = np.array([1, 3, 3, 7])
        rows = self.bk.gather_rows(table, idx)
        np.testing.assert_array_equal(rows, table[idx])
        target = np.zeros((8, 4))
        self.bk.scatter_add_rows(target, idx, rows)
        expected = np.zeros((8, 4))
        np.add.at(expected, idx, rows)
        np.testing.assert_array_equal(target, expected)

    def test_segment_gemms_match_the_ops_they_fuse(self):
        from repro.backend.groups import group_rows

        idx = np.array([1, 3, 3, 7, 1, 3])
        groups = group_rows(idx)
        a = self.rng.standard_normal((6, 2, 4))
        table = self.rng.standard_normal((8, 4, 3))
        np.testing.assert_allclose(
            self.bk.gather_matmul(a, table, groups),
            np.matmul(a, table[idx]),
            rtol=1e-12,
        )
        b = self.rng.standard_normal((6, 3, 4))
        expected = np.zeros((8, 2, 3))
        np.add.at(expected, idx, np.matmul(a, b.transpose(0, 2, 1)))
        np.testing.assert_allclose(
            self.bk.matmul_segment_sum(a, b, groups),
            expected[groups.ids],
            rtol=1e-12,
        )

    def test_axpy_matches_inplace_subtract(self):
        x = self.rng.standard_normal((4, 3))
        u = self.rng.standard_normal((4, 3))
        via_backend = x.copy()
        self.bk.axpy(via_backend, u, -0.05)
        direct = x.copy()
        direct -= 0.05 * u
        np.testing.assert_array_equal(via_backend, direct)

    def test_zone_is_noop(self):
        with self.bk.zone("tt_forward"):
            pass


class TestComposedInterposerOps(TestNumpyBackendOps):
    """Same conformance cases through counter + sanitizer in one pass."""

    def setup_method(self):
        super().setup_method()
        self.bk = Interposer(observers=[CostCounter(), NumericSanitizer()])


class TestObserverComposition:
    def test_bad_gather_index_is_trapped_and_counted_in_its_zone(self):
        counter, sanitizer = CostCounter(), NumericSanitizer(mode="record")
        bk = Interposer(observers=[counter, sanitizer])
        table = bk.zeros((8, 4), dtype=np.float32)
        with bk.zone("efftt_forward"):
            bk.gather_rows(table, np.array([-2]))
        assert [(t.zone, t.kind) for t in sanitizer.traps] == [
            ("efftt_forward", "gather-index")
        ]
        assert counter.op_stats[("efftt_forward", "gather_rows")].calls == 1

    @pytest.mark.parametrize(
        "nested",
        [
            lambda: InstrumentedBackend(inner=SanitizerBackend(mode="record")),
            lambda: SanitizerBackend(inner=InstrumentedBackend(), mode="record"),
        ],
        ids=["counter-over-sanitizer", "sanitizer-over-counter"],
    )
    def test_nested_interposers_share_the_zone(self, nested):
        outer = nested()
        with outer.zone("efftt_forward"):
            outer.gather_rows(np.zeros((8, 4), dtype=np.float32), np.array([-2]))
        counting = outer if isinstance(outer, InstrumentedBackend) else outer.inner
        trapping = outer if isinstance(outer, SanitizerBackend) else outer.inner
        assert trapping.traps[0].zone == "efftt_forward"
        assert set(counting.zone_stats) == {"efftt_forward"}

    def test_reset_clears_every_observer(self):
        counter, sanitizer = CostCounter(), NumericSanitizer(mode="record")
        bk = Interposer(observers=[counter, sanitizer])
        bk.asarray(np.array([np.inf], dtype=np.float32))
        assert counter.totals().calls == 1 and len(sanitizer.traps) == 1
        bk.reset()
        assert counter.totals().calls == 0 and sanitizer.traps == []

    def test_report_joins_observer_reports(self):
        bk = Interposer(observers=[CostCounter(), NumericSanitizer()])
        bk.matmul(np.ones((2, 2)), np.ones((2, 2)))
        report = bk.report()
        assert "unzoned" in report and report.endswith("numsan: no traps")
        assert bk.name == "instrumented+sanitizer[numpy]"


class TestInstrumentedCounting:
    def test_zone_attribution_innermost_wins(self):
        bk = InstrumentedBackend()
        a = np.ones((4, 3))
        b = np.ones((3, 2))
        with bk.zone("mlp"):
            with bk.zone("tt_forward"):
                bk.matmul(a, b)
        assert "tt_forward" in bk.zone_stats
        assert "mlp" not in bk.zone_stats

    def test_matmul_flops_from_shapes(self):
        bk = InstrumentedBackend()
        a = np.ones((5, 4, 3))
        b = np.ones((5, 3, 2))
        with bk.zone("tt_forward"):
            bk.matmul(a, b)
        assert bk.zone_stats["tt_forward"].flops == 2 * 5 * 4 * 3 * 2

    def test_results_bitwise_match_inner(self):
        rng = np.random.default_rng(3)
        a = rng.standard_normal((6, 5))
        b = rng.standard_normal((5, 4))
        np.testing.assert_array_equal(
            InstrumentedBackend().matmul(a, b), NumpyBackend().matmul(a, b)
        )

    def test_reset_clears_counters(self):
        bk = InstrumentedBackend()
        bk.matmul(np.ones((2, 2)), np.ones((2, 2)))
        assert bk.totals().calls == 1
        bk.reset()
        assert bk.totals().calls == 0

    def test_report_lists_zones(self):
        bk = InstrumentedBackend()
        with bk.zone("fused_update"):
            bk.scatter_add_rows(
                np.zeros((4, 2)), np.array([0, 1]), np.ones((2, 2)), scale=-0.1
            )
        report = bk.report()
        assert "fused_update" in report
        assert "total" in report


def test_zone_catalog_is_complete():
    assert set(KERNEL_ZONE_NAMES) >= {
        "tt_forward",
        "tt_backward",
        "efftt_forward",
        "efftt_backward",
        "fused_update",
        "mlp",
        "interaction",
        "optimizer",
        "serving_lookup",
    }
