"""Writer of ``plans_parent.json`` — provenance only, not runnable at HEAD.

Ran once at commit 3d3bcf3 (the parent of the PR that merged the three
table planners into ``repro.embeddings.planner``), against that
commit's ``system/memory.py``, ``sharding/placement.py`` and
``embeddings/autotune.py``:

    PYTHONPATH=<parent>/src python make_plans_parent.py plans_parent.json

Every field of every plan the three policies (and HugeCTR's row-shard
check) produced on the pinned inputs below is dumped, tables as rows
under a ``fields`` header.  ``tests/embeddings/test_planner_golden.py``
rebuilds the same inputs (it imports :func:`pinned_inputs` from here)
and asserts the merged planner reproduces the dump field for field.
"""

from __future__ import annotations

import json
import sys

from repro.data.dataloader import SyntheticClickLog
from repro.data.datasets import avazu_like, criteo_kaggle_like, criteo_tb_like
from repro.reorder.stats import TableStats, table_stats_from_log

DATASETS = {
    "criteo-kaggle": criteo_kaggle_like,
    "criteo-tb": criteo_tb_like,
    "avazu": avazu_like,
}
FRACTIONS = (0.5, 0.1, 0.02)
DEVICES = (1, 2, 4)
CASCADE_FORMS = ("tt", "hash", "robe", "pq")
RATE_STRATEGIES = ("tt", "hash", "robe", "pq", "auto", "dense")


def pinned_inputs():
    """``{name: (stats, dim, tt_ranks, tt_threshold_rows)}``.

    Full scale: analytic stats, dim 64, ranks 32 and 128 (128 is past
    the clamp on 5-15k-row tables).  3e-5 scale: stats measured over a
    4-batch window (so ``unique_fraction`` and ``skewed`` vary), dim 8,
    rank 8.
    """
    inputs = {}
    for name, factory in DATASETS.items():
        full = factory()
        inputs[f"{name}@full"] = (
            [
                TableStats.from_spec(t, table.num_rows, 1.05)
                for t, table in enumerate(full.tables)
            ],
            64,
            (32, 128),
            1_000_000,
        )
        small = factory(scale=3e-5)
        log = SyntheticClickLog(small, batch_size=64, seed=0)
        inputs[f"{name}@3e-5"] = (
            [
                table_stats_from_log(log, t, num_batches=4)
                for t in range(small.num_sparse)
            ],
            8,
            (8,),
            100,
        )
    return inputs


def main(out_path: str) -> None:
    from repro.embeddings.autotune import plan_compression
    from repro.sharding.placement import RowShardedStrategy, StatsDrivenStrategy
    from repro.system.devices import TESLA_V100, DeviceSpec
    from repro.system.memory import plan_placement

    plans = {}
    for name, (stats, dim, ranks, threshold) in pinned_inputs().items():
        rows = [st.num_rows for st in stats]
        dense64 = sum(rows) * dim * 8
        dense32 = sum(rows) * dim * 4

        def dump_pack(key, plan):
            plans[key] = {
                "hbm_budget_bytes": plan.hbm_budget_bytes,
                "gpu_bytes": plan.gpu_bytes,
                "host_bytes": plan.host_bytes,
                "fits_gpu": plan.fits_gpu(),
                "fields": ["table_idx", "num_rows", "decision", "nbytes",
                           "row_shape", "col_shape", "ranks"],
                "tables": [
                    [p.table_idx, p.num_rows, p.decision.value, p.nbytes]
                    + (
                        [None, None, None] if p.tt_spec is None else
                        [list(p.tt_spec.row_shape), list(p.tt_spec.col_shape),
                         list(p.tt_spec.ranks)]
                    )
                    for p in plan.placements
                ],
            }

        def dump_cascade(key, plan):
            plans[key] = {
                "strategy": plan.strategy,
                "num_devices": plan.num_devices,
                "device_budget_bytes": plan.device_budget_bytes,
                "per_device_bytes": plan.per_device_bytes,
                "host_bytes": plan.host_bytes,
                "feasible": plan.feasible,
                "server_table_positions": plan.server_table_positions(),
                "fields": ["table_idx", "kind", "num_rows", "device_bytes",
                           "server_bytes", "reason"],
                "tables": [
                    [d.table_idx, d.kind.value, d.num_rows, d.device_bytes,
                     d.server_bytes, d.reason]
                    for d in plan.decisions
                ],
            }

        rank = ranks[-1]
        if name.endswith("@full"):
            dump_pack(
                f"pack/{name}/table3",
                plan_placement(rows, dim, TESLA_V100, tt_rank=rank,
                               tt_threshold_rows=threshold, hbm_fraction=1.0),
            )
        for fraction in FRACTIONS:
            device = DeviceSpec(
                name="golden", peak_gflops=1000.0, mem_bw_gbps=100.0,
                hbm_bytes=dense32 * fraction, h2d_gbps=10.0, p2p_gbps=10.0,
            )
            for compress in (True, False):
                dump_pack(
                    f"pack/{name}/{fraction}/compress={compress}",
                    plan_placement(rows, dim, device, tt_rank=rank,
                                   tt_threshold_rows=threshold,
                                   compress=compress),
                )
            budget = int(dense64 * fraction)
            for devices in DEVICES:
                dump_cascade(
                    f"rowshard/{name}/{fraction}/{devices}",
                    RowShardedStrategy().plan(
                        stats, num_devices=devices,
                        device_budget_bytes=budget, embedding_dim=dim,
                    ),
                )
                for form in CASCADE_FORMS:
                    for r in ranks if form == "tt" else ranks[:1]:
                        dump_cascade(
                            f"cascade/{name}/{fraction}/{devices}/{form}/r{r}",
                            StatsDrivenStrategy(
                                compress_strategy=form, compress_rate=0.25
                            ).plan(
                                stats, num_devices=devices,
                                device_budget_bytes=budget,
                                embedding_dim=dim, tt_rank=r,
                            ),
                        )
            for strategy in RATE_STRATEGIES:
                plan = plan_compression(stats, dim, budget, strategy=strategy)
                plans[f"rate/{name}/{fraction}/{strategy}"] = {
                    "budget_bytes": plan.budget_bytes,
                    "embedding_dim": plan.embedding_dim,
                    "dtype_bytes": plan.dtype_bytes,
                    "rate": plan.rate,
                    "total_bytes": plan.total_bytes,
                    "dense_total_bytes": plan.dense_total_bytes,
                    "feasible": plan.feasible,
                    "fields": ["table_idx", "num_rows", "strategy", "params",
                               "memory_bytes", "dense_bytes"],
                    "tables": [
                        [t.table_idx, t.num_rows, t.strategy,
                         [list(kv) for kv in t.params], t.memory_bytes,
                         t.dense_bytes]
                        for t in plan.tables
                    ],
                }
    with open(out_path, "w") as fh:
        fh.write("{\n")
        fh.write(",\n".join(
            f"{json.dumps(key)}: {json.dumps(value, separators=(',', ':'))}"
            for key, value in plans.items()
        ))
        fh.write("\n}\n")


if __name__ == "__main__":
    main(sys.argv[1])
