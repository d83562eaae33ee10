"""Assemble a PS-pipeline trainer on top of the sharded server tier.

:func:`build_sharded_ps_trainer` is the one-stop constructor the CLI,
the chaos harness, the hazard experiment and the scaling benchmark
share: it runs the N-invariant placement policy
(:func:`~repro.embeddings.planner.plan_fixed_fraction`) over per-table
statistics, puts the server-resident tables behind a
:class:`~repro.sharding.server.ShardedParameterServer`, and wires the
standard :class:`~repro.system.pipeline.PipelinedPSTrainer` around
them.  Seeds follow the established harness conventions (model 7,
server 3, worker bags ``200 + table``), so a build is
bitwise-identical to the same trainer assembled by hand (host-backed
bags, a plain server), for any shard count.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Dict, List, Optional, Sequence

from repro.embeddings.planner import (
    SERVER_KIND,
    STRATEGY_KINDS,
    ModelPlan,
    TablePlan,
    build_bags,
    plan_fixed_fraction,
    table_bytes,
)
from repro.models.config import DLRMConfig, backend_knobs
from repro.models.dlrm import DLRM
from repro.reorder.stats import TableStats, analytic_table_stats
from repro.sharding.compression import LinkCompressionConfig
from repro.sharding.server import ShardedParameterServer
from repro.system.devices import TESLA_V100
from repro.system.pipeline import PipelinedPSTrainer, TraceProbe

__all__ = ["ShardedTrainerSetup", "build_sharded_ps_trainer"]


@dataclass
class ShardedTrainerSetup:
    """Everything :func:`build_sharded_ps_trainer` assembled."""

    model: DLRM
    server: ShardedParameterServer
    trainer: PipelinedPSTrainer
    plan: ModelPlan
    host_positions: List[int]
    host_table_map: Dict[int, int]
    stats: List[TableStats]


def build_sharded_ps_trainer(
    model_cfg: DLRMConfig,
    num_shards: int = 1,
    compression: Optional[LinkCompressionConfig] = None,
    stats: Optional[Sequence[TableStats]] = None,
    compress_strategy: str = "tt",
    device_budget_bytes: Optional[int] = None,
    host_positions: Optional[Sequence[int]] = None,
    probe: Optional[TraceProbe] = None,
    lr: float = 0.05,
    prefetch_depth: int = 3,
    grad_queue_depth: int = 2,
    use_cache: bool = True,
    model_seed: int = 7,
    server_seed: int = 3,
    bag_seed_base: int = 200,
) -> ShardedTrainerSetup:
    """Build a pipelined PS trainer backed by a sharded server.

    The placement policy decides which tables sit behind the PS tier
    (``host_positions`` overrides it — the chaos harness pins the two
    largest tables for backward-compatible trajectories).  When the
    policy puts *every* table on-device, the two largest tables are
    forced server-side anyway: this is a PS trainer and an empty
    server would degenerate to plain local training.  A worker table
    takes the policy's form only when that is ``hash`` / ``robe`` /
    ``pq`` (``compress_strategy``); otherwise it keeps the model
    config's backend.  The returned plan is the policy's with every
    such override written into it, so each entry describes the bag
    that was built.
    """
    rows = list(model_cfg.table_rows)
    dim = model_cfg.embedding_dim
    table_stats = (
        list(stats) if stats is not None else analytic_table_stats(rows)
    )
    if len(table_stats) != len(rows):
        raise ValueError(
            f"got {len(table_stats)} stats for {len(rows)} tables"
        )
    policy_plan = plan_fixed_fraction(
        table_stats,
        dim,
        int(device_budget_bytes)
        if device_budget_bytes is not None
        else int(TESLA_V100.hbm_bytes * 0.8),
        num_devices=num_shards,
        tt_rank=model_cfg.tt_rank,
        compress_strategy=compress_strategy,
        compress_rate=model_cfg.compress_rate,
    )

    if host_positions is not None:
        positions = sorted(int(p) for p in host_positions)
        moved = "pinned by host_positions"
    else:
        positions = policy_plan.server_positions()
        moved = "forced server-side: a PS trainer needs a server table"
        if not positions:
            positions = sorted(
                sorted(range(len(rows)), key=lambda t: -rows[t])[:2]
            )
    host_map = {p: i for i, p in enumerate(positions)}

    # the one policy form a worker table takes over the config's backend
    zoo_kind = (
        None if compress_strategy == "tt"
        else STRATEGY_KINDS[compress_strategy]
    )
    tables: List[TablePlan] = []
    for entry in policy_plan.tables:
        t = entry.table_idx
        if t in host_map:
            if not entry.on_server:
                entry = replace(
                    entry,
                    kind=SERVER_KIND,
                    params=(),
                    device_bytes=0,
                    server_bytes=table_bytes("dense", rows[t], dim),
                    reason=moved,
                )
        elif entry.kind != zoo_kind:
            kind = model_cfg.backend_for_table(t).value
            params = backend_knobs(
                kind, model_cfg.tt_rank, model_cfg.compress_rate
            )
            entry = replace(
                entry,
                kind=kind,
                params=tuple(sorted(params.items())),
                device_bytes=table_bytes(kind, rows[t], dim, **params),
                server_bytes=0,
                reason=f"config backend {kind}",
            )
        tables.append(entry)
    plan = replace(policy_plan, tables=tuple(tables))

    model = DLRM(
        model_cfg,
        seed=model_seed,
        embedding_bags=build_bags(
            plan, [bag_seed_base + t for t in range(len(rows))], model_cfg.dtype
        ),
    )
    server = ShardedParameterServer(
        [rows[p] for p in positions],
        dim,
        lr=lr,
        num_shards=num_shards,
        seed=server_seed,
        compression=compression,
        dtype=model_cfg.dtype,
    )
    trainer = PipelinedPSTrainer(
        model,
        server,
        host_map,
        lr=lr,
        prefetch_depth=prefetch_depth,
        grad_queue_depth=grad_queue_depth,
        use_cache=use_cache,
        probe=probe,
    )
    return ShardedTrainerSetup(
        model=model,
        server=server,
        trainer=trainer,
        plan=plan,
        host_positions=positions,
        host_table_map=host_map,
        stats=table_stats,
    )
