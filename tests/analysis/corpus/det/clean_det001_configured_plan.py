"""DET001 clean twin: the byte budget comes from the seeded configuration."""

from typing import Sequence, Tuple

from repro.embeddings.planner import ModelPlan, TablePlan


def plan_under_budget(
    tables: Sequence[TablePlan], embedding_dim: int, budget_bytes: int
) -> ModelPlan:
    return ModelPlan(
        policy="under_budget",
        tables=tuple(tables),
        budget_bytes=budget_bytes,
        embedding_dim=embedding_dim,
        dtype_bytes=8,
    )


def plan_for_config(
    tables: Tuple[TablePlan, ...], memory_budget_mb: float
) -> ModelPlan:
    budget = int(memory_budget_mb * 1_000_000)
    return plan_under_budget(tables, 16, budget)
