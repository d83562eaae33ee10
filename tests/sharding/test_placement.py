"""The N-invariant fixed-fraction policy: decision rules, N-invariance,
feasibility — and that the sharded trainer's printed plan is the model
it built."""

from __future__ import annotations

import pytest

from repro.data.datasets import criteo_kaggle_like
from repro.embeddings.planner import (
    plan_fixed_fraction,
    row_shard_device_bytes,
    table_bytes,
)
from repro.frameworks.base import WorkloadProfile
from repro.frameworks.hugectr import HugeCTR
from repro.models.config import DLRMConfig, EmbeddingBackend
from repro.reorder import TableStats
from repro.sharding import build_sharded_ps_trainer
from repro.system.devices import TESLA_V100, KernelCostModel

GB = int(1e9)
#: Bytes per element the policy plans at (the fp32 bags it builds).
ITEM = 4


def _stats(num_rows, alpha=1.05, hot_mass=None):
    if hot_mass is None:
        return TableStats.from_spec(0, num_rows, alpha)
    return TableStats(
        table_idx=0, num_rows=num_rows, zipf_alpha=alpha,
        hot_fraction=0.1, hot_mass=hot_mass,
    )


def test_small_table_stays_dense_on_device():
    plan = plan_fixed_fraction([_stats(1000)], 64, GB, num_devices=4)
    assert plan.tables[0].kind == "dense"
    assert plan.feasible


def test_large_compressible_table_goes_tt():
    plan = plan_fixed_fraction(
        [_stats(40_000_000)], 128, 24 * GB, num_devices=4
    )
    entry = plan.tables[0]
    assert entry.kind == "eff_tt" and not entry.on_server
    assert entry.param_dict() == {"tt_rank": 8}
    assert entry.device_bytes == table_bytes(
        "eff_tt", 40_000_000, 128, tt_rank=8
    )
    assert entry.device_bytes < 40_000_000 * 128 * 8 // 1000


def test_skewed_table_splits_hot_cold():
    # Dense (256 kB) misses the 125 kB dense slice, the table is under
    # the 4,096 rows compression starts at, but the 25.6 kB hot set
    # fits — skew buys the table a device cache.
    stats = _stats(4000, hot_mass=0.9)
    plan = plan_fixed_fraction([stats], 16, 2_500_000, num_devices=2)
    entry = plan.tables[0]
    assert entry.on_server
    assert entry.device_bytes == stats.hot_rows * 16 * ITEM
    assert entry.server_bytes == (4000 - stats.hot_rows) * 16 * ITEM
    assert "hot" in entry.reason


def test_unskewed_overflow_row_shards_then_hosts():
    stats = _stats(4000, alpha=0.0, hot_mass=0.1)  # dense: 1.024 MB
    small = plan_fixed_fraction([stats], 64, 10_000_000, num_devices=8)
    assert small.tables[0].device_bytes == 500 * 64 * ITEM
    assert "mod-8 shard block" in small.tables[0].reason
    tiny = plan_fixed_fraction([stats], 64, 1_000_000, num_devices=1)
    assert tiny.tables[0].device_bytes == 0
    assert "overflows to host" in tiny.tables[0].reason
    # Both sides of the N-dependent boundary are server-resident.
    assert small.tables[0].on_server and tiny.tables[0].on_server
    assert small.server_bytes == tiny.server_bytes == 4000 * 64 * ITEM


@pytest.mark.parametrize("num_devices", [1, 2, 8, 64])
def test_worker_vs_server_split_is_n_invariant(num_devices):
    """The device/server side of every decision never moves with N —
    the property behind bitwise-equal training across shard counts."""
    stats = [
        TableStats.from_spec(t, rows, 1.05)
        for t, rows in enumerate([100, 4_000, 5_000, 200_000, 3_000_000])
    ] + [
        TableStats(table_idx=5, num_rows=3_000, zipf_alpha=0.0,
                   hot_fraction=0.1, hot_mass=0.1)
    ]
    plan = plan_fixed_fraction(stats, 16, 2_500_000, num_devices=num_devices)
    reference = plan_fixed_fraction(stats, 16, 2_500_000, num_devices=1)
    assert plan.server_positions() == reference.server_positions() == [1, 5]
    assert [t.kind for t in plan.tables] == [
        "dense", "host", "eff_tt", "eff_tt", "eff_tt", "host"
    ]


def test_row_sharded_strategy_feasibility_boundary():
    budget = int(TESLA_V100.hbm_bytes * 0.8)
    assert row_shard_device_bytes([40_000_000], 1, 128, 4) > budget
    four = row_shard_device_bytes([40_000_000], 4, 128, 4)
    assert four == 10_000_000 * 128 * 4 <= budget
    # ceil, not floor: the largest block bounds the device
    assert row_shard_device_bytes([10, 7], 4, 2, 4) == (3 + 2) * 2 * 4
    with pytest.raises(ValueError):
        row_shard_device_bytes([10], 0, 2, 4)


def test_format_table_mentions_feasibility():
    plan = plan_fixed_fraction([_stats(1000)], 8, GB, num_devices=2)
    text = plan.format_table()
    assert "fixed_fraction" in text and "2 device(s)" in text
    assert "-> feasible" in text
    # each of 30 tables is alone within 5 % of the budget; together not
    crowded = plan_fixed_fraction(
        [TableStats.from_spec(t, 1000, 1.05) for t in range(30)],
        8, 20 * 32_000,
    )
    assert {t.kind for t in crowded.tables} == {"dense"}
    assert not crowded.feasible
    assert "-> INFEASIBLE" in crowded.format_table()


def test_policy_rejects_bad_arguments():
    with pytest.raises(ValueError, match="compress_strategy"):
        plan_fixed_fraction([_stats(10)], 8, GB, compress_strategy="dense")
    with pytest.raises(ValueError, match="compress_rate"):
        plan_fixed_fraction([_stats(10)], 8, GB, compress_rate=0.0)
    with pytest.raises(ValueError, match="num_devices"):
        plan_fixed_fraction([_stats(10)], 8, GB, num_devices=0)
    with pytest.raises(ValueError, match="budget_bytes"):
        plan_fixed_fraction([_stats(10)], 8, 0)


def test_hugectr_uses_row_sharded_strategy():
    """The framework model's feasibility is the planner's row-shard
    arithmetic (same blocks the functional tier executes)."""
    fw = HugeCTR(KernelCostModel())
    profile = WorkloadProfile(
        name="big", batch_size=2048, embedding_dim=128,
        table_rows=(40_000_000,), indices_per_batch=2048,
        host_mlp_time=1e-3, host_dense_emb_time=1e-3,
        tt_gflops_fwd=0.01, tt_gflops_bwd=0.01,
        efftt_gflops_fwd=0.01, efftt_gflops_bwd=0.01,
        dtype_bytes=4,
    )
    one = fw.iteration_time(profile, TESLA_V100, num_gpus=1)
    assert not one.feasible
    assert "row shard (20.5 GB) exceeds HBM" in one.infeasible_reason
    assert fw.iteration_time(profile, TESLA_V100, num_gpus=4).feasible


# ---------------------------------------------------------------------------
# the printed plan is the model
# ---------------------------------------------------------------------------


def _default_train_config():
    """What ``repro train --shards 2`` builds (cli defaults)."""
    spec = criteo_kaggle_like(scale=3e-5)
    return DLRMConfig.from_dataset(
        spec, embedding_dim=8, backend=EmbeddingBackend.EFF_TT, tt_rank=8,
        bottom_mlp=(16,), top_mlp=(16,),
    )


def _assert_plan_is_model(setup):
    bags = setup.model.embedding_bags
    assert len(setup.plan.tables) == len(bags)
    for entry, bag in zip(setup.plan.tables, bags):
        spec = bag.compression_spec()
        assert entry.num_rows == bag.num_embeddings
        assert entry.kind == spec.kind
        if entry.on_server:
            assert entry.table_idx in setup.host_table_map
            assert entry.server_bytes == entry.num_rows * 8 * ITEM
        else:
            assert entry.device_bytes == bag.memory_bytes()
            assert entry.server_bytes == 0
    assert setup.plan.server_positions() == setup.host_positions


def test_sharded_trainer_plan_describes_the_bags_it_built():
    config = _default_train_config()
    setup = build_sharded_ps_trainer(
        config, num_shards=2, device_budget_bytes=1_000_000,
    )
    _assert_plan_is_model(setup)
    reasons = {t.table_idx: t.reason for t in setup.plan.tables}
    # every table is small enough to stay dense on the device, so the
    # two largest are forced behind the server and the rest follow the
    # config's per-table backend: Eff-TT where it is smaller than the
    # dense table, dense where it is not
    assert setup.host_positions == [2, 11]
    for t in setup.host_positions:
        assert reasons[t] == (
            "forced server-side: a PS trainer needs a server table"
        )
    worker = [t for t in setup.plan.tables if not t.on_server]
    for t in worker:
        assert t.kind == config.backend_for_table(t.table_idx).value
        assert t.reason == f"config backend {t.kind}"
        assert t.param_dict() == ({"tt_rank": 8} if t.kind == "eff_tt" else {})
    assert [t.table_idx for t in worker if t.kind == "eff_tt"] == [15, 20]


def test_sharded_trainer_plan_names_a_host_positions_pin():
    setup = build_sharded_ps_trainer(
        _default_train_config(), num_shards=2, host_positions=[0, 5],
    )
    _assert_plan_is_model(setup)
    assert [
        t.reason for t in setup.plan.tables if t.on_server
    ] == ["pinned by host_positions"] * 2
