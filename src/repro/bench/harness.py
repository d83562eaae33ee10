"""Workload measurement and plain-text reporting for the benchmarks.

``measure_workload`` is the bridge between the real substrate and the
framework cost models: it builds actual tables and MLPs at a scaled
cardinality, runs the real NumPy kernels on real synthetic batches, and
records their median wall-clock times into a
:class:`~repro.frameworks.base.WorkloadProfile`.  Framework models then
compose those *measured* numbers with device scaling and communication
costs — no component of an end-to-end figure is a made-up constant.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.data.dataloader import Batch, SyntheticClickLog
from repro.data.datasets import DatasetSpec
from repro.frameworks.base import WorkloadProfile
from repro.models.config import DLRMConfig, EmbeddingBackend
from repro.models.dlrm import build_embedding_bag
from repro.nn.interaction import DotInteraction
from repro.nn.mlp import MLP
from repro.utils.timer import measure_median

__all__ = [
    "measure_workload",
    "workload_for_dataset",
    "format_table",
    "format_series",
]


def _measure_mlp(
    config: DLRMConfig, batch: Batch, repeats: int
) -> float:
    """Real fwd+bwd time of bottom MLP + interaction + top MLP."""
    bottom = MLP(config.bottom_mlp_sizes, seed=0)
    top = MLP(config.top_mlp_sizes, seed=1)
    interaction = DotInteraction()
    rng = np.random.default_rng(0)
    fake_embeddings = [
        rng.standard_normal((batch.batch_size, config.embedding_dim))
        for _ in range(config.num_tables)
    ]
    grad = rng.standard_normal((batch.batch_size, 1))

    def run() -> None:
        dense_out = bottom.forward(batch.dense)
        inter = interaction.forward(dense_out, fake_embeddings)
        top.forward(inter)
        g_inter = top.backward(grad)
        g_dense, _ = interaction.backward(g_inter)
        bottom.backward(g_dense)
        bottom.zero_grad()
        top.zero_grad()

    return measure_median(run, repeats=repeats, warmup=1)


def _measure_bags(
    bags: Sequence, batch: Batch, table_ids: Sequence[int], repeats: int,
    split_fwd_bwd: bool, lr: float = 0.01,
) -> Tuple[float, float]:
    """Real (forward, backward+update) times over the given tables."""
    rng = np.random.default_rng(1)
    grads = [
        rng.standard_normal((batch.batch_size, bag.embedding_dim))
        for bag in bags
    ]

    def fwd() -> None:
        for bag, t in zip(bags, table_ids):
            bag.forward(batch.sparse_indices[t], batch.sparse_offsets[t])

    def bwd() -> None:
        for bag, g in zip(bags, grads):
            bag.backward(g)
            bag.step(lr)

    t_fwd = measure_median(fwd, repeats=repeats, warmup=1)
    if not split_fwd_bwd:
        return t_fwd, 0.0
    # backward needs a fresh forward before each run
    def fwd_bwd() -> None:
        fwd()
        bwd()

    t_total = measure_median(fwd_bwd, repeats=repeats, warmup=1)
    return t_fwd, max(t_total - t_fwd, 1e-9)


def measure_workload(
    spec: DatasetSpec,
    batch_size: int = 2048,
    embedding_dim: int = 32,
    tt_rank: int = 32,
    tt_threshold_rows: int | None = None,
    measure_scale: float = 1.0,
    repeats: int = 3,
    seed: int = 0,
    hot_fraction: float = 0.75,
) -> WorkloadProfile:
    """Measure one dataset's kernels into a :class:`WorkloadProfile`.

    Parameters
    ----------
    spec:
        Dataset schema (usually already scaled down; ``measure_scale``
        additionally shrinks the tables actually built for timing).
    batch_size, embedding_dim, tt_rank:
        Training configuration to measure.
    tt_threshold_rows:
        Tables above this row count are measured with the TT backends;
        defaults to the paper's 1M rows scaled by the spec's scale.
    repeats:
        Timing repeats per kernel (median is recorded).
    hot_fraction:
        FAE hot-batch fraction recorded into the profile.
    """
    if tt_threshold_rows is None:
        tt_threshold_rows = max(1, int(1_000_000 * spec.scale * measure_scale))
    log = SyntheticClickLog(spec, batch_size=batch_size, seed=seed)
    batch = log.batch(0)

    config = DLRMConfig.from_dataset(
        spec, embedding_dim=embedding_dim, tt_rank=tt_rank
    )
    t_mlp = _measure_mlp(config, batch, repeats)

    # Dense path over every table.
    dense_bags = [
        build_embedding_bag(
            EmbeddingBackend.DENSE, t.num_rows, embedding_dim, tt_rank,
            seed=(seed, 2, i),
        )
        for i, t in enumerate(spec.tables)
    ]
    all_ids = list(range(spec.num_sparse))
    d_fwd, d_bwd = _measure_bags(dense_bags, batch, all_ids, repeats, True)

    # Compressed paths over the large tables only (paper §VI-A: tables
    # above the threshold are decomposed, the rest stay dense — the
    # dense remainder's cost is shared and excluded from both).
    tt_ids = [
        i for i, t in enumerate(spec.tables) if t.num_rows > tt_threshold_rows
    ]
    if not tt_ids:
        # Degenerate tiny spec: compress the single largest table.
        tt_ids = [max(all_ids, key=lambda i: spec.tables[i].num_rows)]
    tt_bags = [
        build_embedding_bag(
            EmbeddingBackend.TT, spec.tables[i].num_rows, embedding_dim,
            tt_rank, seed=(seed, 3, i),
        )
        for i in tt_ids
    ]
    tt_fwd, tt_bwd = _measure_bags(tt_bags, batch, tt_ids, repeats, True)
    eff_bags = [
        build_embedding_bag(
            EmbeddingBackend.EFF_TT, spec.tables[i].num_rows, embedding_dim,
            tt_rank, seed=(seed, 3, i),
        )
        for i in tt_ids
    ]
    eff_fwd, eff_bwd = _measure_bags(eff_bags, batch, tt_ids, repeats, True)

    tt_param_bytes = sum(bag.nbytes_as(np.float32) for bag in eff_bags) + sum(
        spec.tables[i].num_rows * embedding_dim * 4
        for i in all_ids
        if i not in tt_ids
    )

    # Analytic FLOP counts for the TT kernels on this exact batch.
    from repro.embeddings.flops import (
        plan_backward_flops,
        plan_forward_flops,
    )
    from repro.embeddings.reuse_buffer import build_reuse_plan

    tt_fwd_flops = tt_bwd_flops = eff_fwd_flops = eff_bwd_flops = 0
    for bag, i in zip(eff_bags, tt_ids):
        plan = build_reuse_plan(batch.sparse_indices[i], bag.spec.row_shape)
        tt_fwd_flops += plan_forward_flops(bag.spec, plan, reuse=False)
        tt_bwd_flops += plan_backward_flops(bag.spec, plan, aggregate=False)
        eff_fwd_flops += plan_forward_flops(bag.spec, plan, reuse=True)
        eff_bwd_flops += plan_backward_flops(bag.spec, plan, aggregate=True)
    indices_per_batch = sum(idx.size for idx in batch.sparse_indices)
    # Kernel-launch counts: TT-Rec issues fwd, bwd-per-core, grad
    # materialization, and optimizer kernels per compressed table;
    # Eff-TT fuses backward+update into one kernel per table.
    num_tt_tables = len(tt_ids)
    return WorkloadProfile(
        name=spec.name,
        batch_size=batch_size,
        embedding_dim=embedding_dim,
        table_rows=tuple(t.num_rows for t in spec.tables),
        indices_per_batch=indices_per_batch,
        host_mlp_time=t_mlp,
        host_dense_emb_time=d_fwd + d_bwd,
        host_tt_fwd_time=tt_fwd,
        host_tt_bwd_time=tt_bwd,
        host_efftt_fwd_time=eff_fwd,
        host_efftt_bwd_time=eff_bwd,
        hot_fraction=hot_fraction,
        tt_kernel_launches=8 * num_tt_tables,
        efftt_kernel_launches=3 * num_tt_tables,
        tt_param_bytes=int(tt_param_bytes),
        tt_gflops_fwd=tt_fwd_flops / 1e9,
        tt_gflops_bwd=tt_bwd_flops / 1e9,
        efftt_gflops_fwd=eff_fwd_flops / 1e9,
        efftt_gflops_bwd=eff_bwd_flops / 1e9,
    )


def workload_for_dataset(
    dataset: str,
    scale: float = 2e-4,
    **kwargs,
) -> WorkloadProfile:
    """Convenience: build + measure a named dataset's workload."""
    from repro.data.datasets import DATASET_FACTORIES

    if dataset not in DATASET_FACTORIES:
        raise KeyError(
            f"unknown dataset {dataset!r}; choose from "
            f"{sorted(DATASET_FACTORIES)}"
        )
    spec = DATASET_FACTORIES[dataset](scale=scale)
    return measure_workload(spec, **kwargs)


# ---------------------------------------------------------------------------
# reporting
# ---------------------------------------------------------------------------
def format_table(
    headers: Sequence[str], rows: Sequence[Sequence[object]], title: str = ""
) -> str:
    """Fixed-width text table (the benchmarks' output format)."""
    str_rows = [[_fmt(cell) for cell in row] for row in rows]
    widths = [
        max(len(str(h)), *(len(r[c]) for r in str_rows)) if str_rows else len(str(h))
        for c, h in enumerate(headers)
    ]
    lines: List[str] = []
    if title:
        lines.append(title)
    sep = "-+-".join("-" * w for w in widths)
    lines.append(" | ".join(str(h).ljust(w) for h, w in zip(headers, widths)))
    lines.append(sep)
    for row in str_rows:
        lines.append(" | ".join(cell.ljust(w) for cell, w in zip(row, widths)))
    return "\n".join(lines)


def format_series(
    title: str,
    x_label: str,
    x_values: Sequence[object],
    series: Dict[str, Sequence[float]],
) -> str:
    """Text rendering of a figure: one row per x, one column per series."""
    headers = [x_label, *series.keys()]
    rows = [
        [x, *(vals[i] for vals in series.values())]
        for i, x in enumerate(x_values)
    ]
    return format_table(headers, rows, title=title)


def _fmt(cell: object) -> str:
    if isinstance(cell, float):
        if cell == 0:
            return "0"
        if abs(cell) >= 1000 or abs(cell) < 1e-3:
            return f"{cell:.3e}"
        return f"{cell:.4g}"
    return str(cell)
