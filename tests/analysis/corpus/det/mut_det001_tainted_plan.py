"""DET001 mutant: a host-dependent byte budget reaches the table planner.

The budget is read from the environment and handed to the under-budget
policy as an argument; the taint only meets the ``ModelPlan`` sink
inside the callee, so the analyzer must carry it across the call.
"""

import os
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


def plan_for_this_host(tables: Tuple[TablePlan, ...]) -> ModelPlan:
    budget = int(os.environ.get("EMBEDDING_BUDGET_BYTES", "1000000"))
    return plan_under_budget(tables, 16, budget)  # DET001
