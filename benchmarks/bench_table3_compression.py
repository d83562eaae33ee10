"""Table III: embedding-table memory saving from Eff-TT compression.

For each dataset (full-scale schema): the dense fp32 footprint, the
EL-Rec footprint (tables >1M rows TT-compressed at the paper's ranks,
small tables kept dense), and the compression ratio.  Benchmarks the
placement planning itself (TT shape selection over all 26 tables).
"""

from __future__ import annotations

from collections import Counter

from conftest import emit
from repro.backend import DEFAULT_DTYPE
from repro.bench.harness import format_table
from repro.data.datasets import avazu_like, criteo_kaggle_like, criteo_tb_like
from repro.embeddings.planner import (
    STRATEGY_KINDS,
    build_bags,
    plan_hbm_pack,
    plan_under_budget,
)
from repro.reorder.stats import analytic_table_stats
from repro.system.devices import TESLA_V100

EMBEDDING_DIM = 64
TT_RANK = 128  # paper's V100 setting
TT_THRESHOLD = 1_000_000


def plan_on_v100(spec):
    """The paper's placement of ``spec`` on one whole V100 (fp32)."""
    return plan_hbm_pack(
        analytic_table_stats([t.num_rows for t in spec.tables]),
        EMBEDDING_DIM,
        int(TESLA_V100.hbm_bytes),
        tt_rank=TT_RANK,
        tt_threshold_rows=TT_THRESHOLD,
    )


def build_table3() -> str:
    rows = []
    for spec in (avazu_like(), criteo_tb_like(), criteo_kaggle_like()):
        dense_gb = spec.embedding_footprint_bytes(EMBEDDING_DIM) / 1e9
        plan = plan_on_v100(spec)
        compressed_bytes = plan.device_bytes + plan.server_bytes
        rows.append(
            [
                spec.name,
                f"{dense_gb:.2f}",
                f"{compressed_bytes / 1e9:.4f}",
                f"{dense_gb * 1e9 / compressed_bytes:.1f}x",
                sum(t.kind == "eff_tt" for t in plan.tables),
                "yes" if compressed_bytes <= TESLA_V100.hbm_bytes else "no",
            ]
        )
    return format_table(
        [
            "Dataset",
            "Dense GB (fp32)",
            "EL-Rec GB",
            "Compression",
            "TT tables",
            "Fits 16GB HBM",
        ],
        rows,
        title=(
            f"Table III: Embedding footprint, dim={EMBEDDING_DIM}, "
            f"TT rank={TT_RANK}, threshold={TT_THRESHOLD:,} rows"
        ),
    )


def test_table3_compression(benchmark):
    spec = criteo_tb_like()
    result = benchmark(lambda: plan_on_v100(spec))
    # the paper's claim: the largest public DLRM dataset fits one GPU
    assert not result.server_positions()
    emit("table3_compression", build_table3())


if __name__ == "__main__":
    print(build_table3())


# ---------------------------------------------------------------------------
# Strategy x budget matrix (beyond the paper: the full compression zoo).
#
# For every strategy the auto-tuner supports and a sweep of byte
# budgets (fractions of the dense footprint at the training dtype),
# plan the full-scale Criteo-Kaggle schema and report planned bytes,
# compression ratio and feasibility; then train a scaled-down DLRM from
# each plan and report the realized footprint and final loss against
# dense.  Run with `pytest benchmarks -m compress_slow`.
# ---------------------------------------------------------------------------

import pytest

MATRIX_STRATEGIES = ("tt", "hash", "robe", "pq", "auto")
MATRIX_FRACTIONS = (0.5, 0.1, 0.02)
#: registry kind -> the ``--compress-strategy`` name the tables print
STRATEGY_OF_KIND = {kind: name for name, kind in STRATEGY_KINDS.items()}


def build_strategy_budget_matrix() -> str:
    spec = criteo_kaggle_like()
    stats = analytic_table_stats([t.num_rows for t in spec.tables])
    dense_bytes = (
        sum(s.num_rows for s in stats) * EMBEDDING_DIM * DEFAULT_DTYPE.itemsize
    )
    rows = []
    for strategy in MATRIX_STRATEGIES:
        for fraction in MATRIX_FRACTIONS:
            budget = int(dense_bytes * fraction)
            plan = plan_under_budget(
                stats, EMBEDDING_DIM, budget, strategy=strategy
            )
            counts = ", ".join(
                f"{k}:{v}"
                for k, v in sorted(
                    Counter(
                        STRATEGY_OF_KIND[t.kind] for t in plan.tables
                    ).items()
                )
            )
            rows.append(
                [
                    strategy,
                    f"{fraction:.0%}",
                    f"{plan.device_bytes / 1e9:.4f}",
                    f"{plan.dense_bytes / max(1, plan.device_bytes):.1f}x",
                    "yes" if plan.feasible else "NO",
                    counts,
                ]
            )
    return format_table(
        ["Strategy", "Budget", "Planned GB", "Ratio", "Feasible", "Tables"],
        rows,
        title=(
            f"Compression strategy x budget matrix, "
            f"criteo-kaggle full schema, dim={EMBEDDING_DIM} ({DEFAULT_DTYPE.name})"
        ),
    )


@pytest.mark.compress_slow
def test_strategy_budget_matrix_plans():
    spec = criteo_kaggle_like()
    stats = analytic_table_stats([t.num_rows for t in spec.tables])
    dense_bytes = (
        sum(s.num_rows for s in stats) * EMBEDDING_DIM * DEFAULT_DTYPE.itemsize
    )
    for strategy in MATRIX_STRATEGIES:
        for fraction in MATRIX_FRACTIONS:
            budget = int(dense_bytes * fraction)
            plan = plan_under_budget(
                stats, EMBEDDING_DIM, budget, strategy=strategy
            )
            if plan.feasible:
                assert plan.device_bytes <= budget, (strategy, fraction)
    emit("strategy_budget_matrix", build_strategy_budget_matrix())


@pytest.mark.compress_slow
def test_strategy_budget_matrix_training():
    from repro.data.dataloader import SyntheticClickLog
    from repro.models.config import DLRMConfig, EmbeddingBackend
    from repro.models.dlrm import DLRM
    from repro.utils.rng import spawn_rngs

    spec = criteo_kaggle_like(scale=2e-4)
    log = SyntheticClickLog(spec, batch_size=128, seed=0)
    cfg = DLRMConfig.from_dataset(
        spec, embedding_dim=8, backend=EmbeddingBackend.DENSE,
        bottom_mlp=(16,), top_mlp=(16,),
    )
    stats = analytic_table_stats(list(cfg.table_rows))
    dense_bytes = (
        sum(s.num_rows for s in stats) * cfg.embedding_dim * DEFAULT_DTYPE.itemsize
    )

    def run(bags):
        model = DLRM(cfg, seed=0, embedding_bags=bags)
        loss = 0.0
        for i in range(20):
            loss = model.train_step(log.batch(i), lr=0.1).loss
        return float(loss)

    dense_loss = run(None)
    rows = [["dense", "-", f"{dense_bytes / 1e6:.3f}", f"{dense_loss:.4f}"]]
    for strategy in MATRIX_STRATEGIES:
        for fraction in MATRIX_FRACTIONS:
            budget = int(dense_bytes * fraction)
            plan = plan_under_budget(
                stats, cfg.embedding_dim, budget, strategy=strategy
            )
            if not plan.feasible:
                rows.append(
                    [strategy, f"{fraction:.0%}", "infeasible", "-"]
                )
                continue
            # the published table's seeds: table t at child t
            bags = build_bags(plan, spawn_rngs(0, len(plan.tables)))
            realized = sum(b.memory_bytes() for b in bags)
            assert realized <= budget, (strategy, fraction)
            loss = run(bags)
            rows.append(
                [
                    strategy,
                    f"{fraction:.0%}",
                    f"{realized / 1e6:.3f}",
                    f"{loss:.4f}",
                ]
            )
    emit(
        "strategy_budget_training",
        format_table(
            ["Strategy", "Budget", "Realized MB", "Final loss"],
            rows,
            title=(
                "Training under compression: 20 steps, "
                "criteo-kaggle scale=2e-4, dim=8"
            ),
        ),
    )
