"""DET001 clean twin: the model helper plans under the budget it was
given."""

from typing import List, Sequence

from repro.embeddings.planner import ModelPlan, TablePlan

_RATE_ITERS = 20


def plan_under_budget(rows: Sequence[int], budget_bytes: int) -> ModelPlan:
    def plan_at(rate: float) -> List[TablePlan]:
        return [
            TablePlan(
                table_idx=t,
                num_rows=n,
                kind="tt",
                params=(),
                device_bytes=int(n * 64 * rate),
                server_bytes=0,
                reason="within target",
            )
            for t, n in enumerate(rows)
        ]

    def total_at(rate: float) -> int:
        return sum(table.device_bytes for table in plan_at(rate))

    lo, hi = 0.0, 1.0
    for _ in range(_RATE_ITERS):
        mid = (lo + hi) / 2.0
        if total_at(mid) <= budget_bytes:
            lo = mid
        else:
            hi = mid
    return ModelPlan(
        policy="under_budget",
        tables=tuple(plan_at(lo)),
        budget_bytes=int(budget_bytes),
        embedding_dim=16,
        dtype_bytes=4,
        rate=lo,
    )


def planned_model(rows: Sequence[int], budget_bytes: int) -> ModelPlan:
    return plan_under_budget(rows, int(budget_bytes))
