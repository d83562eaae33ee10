"""Tests for the paper's §V-A placement policy (threshold, pack, spill)."""

import pytest

from repro.embeddings.planner import plan_hbm_pack, table_bytes
from repro.reorder.stats import analytic_table_stats
from repro.system.devices import TESLA_V100

V100 = int(TESLA_V100.hbm_bytes * 0.8)
TINY = int(10e6 * 0.8)  # a 10 MB device
NEVER = 10**12  # a TT threshold no table exceeds: the uncompressed baseline


def plan(rows, dim, budget, **kwargs):
    return plan_hbm_pack(analytic_table_stats(rows), dim, budget, **kwargs)


class TestPlanPlacement:
    def test_large_tables_compressed(self):
        result = plan(
            [5_000_000, 500], 64, V100, tt_rank=32,
            tt_threshold_rows=1_000_000,
        )
        assert result.tables[0].kind == "eff_tt"
        assert result.tables[0].param_dict() == {"tt_rank": 32}
        assert result.tables[1].kind == "dense"

    def test_compression_shrinks_footprint(self):
        result = plan([10_000_000], 64, V100, tt_rank=64, tt_threshold_rows=0)
        dense_bytes = 10_000_000 * 64 * 4
        assert result.tables[0].device_bytes < dense_bytes / 50

    def test_spill_to_host_when_over_budget(self):
        # dense tables too large for the tiny GPU spill to the host
        result = plan(
            [200_000, 150_000, 100], 16, TINY, tt_threshold_rows=NEVER
        )
        # 12.8 MB and 9.6 MB against 8 MB usable
        assert result.server_positions() == [0, 1]
        assert result.tables[0].server_bytes == 200_000 * 16 * 4
        assert result.tables[0].device_bytes == 0
        # the small table should stay on GPU (smallest-first packing)
        assert result.tables[2].kind == "dense"
        assert result.feasible

    def test_compress_false_reproduces_baseline(self):
        result = plan([5_000_000], 64, V100, tt_threshold_rows=NEVER)
        assert result.tables[0].kind == "dense"

    def test_accounting(self):
        result = plan([1000, 2000], 16, V100, tt_threshold_rows=NEVER)
        assert result.device_bytes == (1000 + 2000) * 16 * 4
        assert result.server_bytes == 0
        assert result.dense_bytes == result.device_bytes
        assert result.dtype_bytes == 4 and result.num_devices == 1
        assert [t.kind for t in result.tables] == ["dense", "dense"]

    def test_tt_tables_listed(self):
        result = plan([5_000_000, 10], 64, V100, tt_threshold_rows=1000)
        assert [t.table_idx for t in result.tables if t.kind == "eff_tt"] == [0]
        # fp32 accounting of the bag the entry builds
        assert result.tables[0].device_bytes == table_bytes(
            "eff_tt", 5_000_000, 64, 4, tt_rank=64
        )

    def test_invalid_fraction(self):
        with pytest.raises(ValueError):
            plan([10], 4, 0)

    def test_paper_scenario_criteo_tb(self):
        """Criteo-TB dense tables exceed one V100; TT makes them fit."""
        from repro.data.datasets import criteo_tb_like

        rows = [t.num_rows for t in criteo_tb_like().tables]
        uncompressed = plan(rows, 64, V100, tt_threshold_rows=NEVER)
        assert uncompressed.server_positions()  # cannot fit dense
        compressed = plan(
            rows, 64, V100, tt_rank=64, tt_threshold_rows=1_000_000
        )
        assert not compressed.server_positions()  # TT fits on one GPU
        assert compressed.feasible

    def test_permutation_invariant(self):
        stats = analytic_table_stats([200_000, 150_000, 100, 3_000_000])
        forward = plan_hbm_pack(stats, 16, TINY, tt_threshold_rows=1_000_000)
        assert forward == plan_hbm_pack(
            stats[::-1], 16, TINY, tt_threshold_rows=1_000_000
        )
