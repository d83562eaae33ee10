"""The merged planner reproduces the three parent planners' plans.

``fixtures/plans_parent.json`` was written at the parent commit by
``fixtures/make_plans_parent.py`` from ``plan_placement``,
``StatsDrivenStrategy`` / ``RowShardedStrategy`` and
``plan_compression``.  Each test rebuilds the same pinned inputs, runs
the one policy that replaced the parent planner, translates its
:class:`TablePlan` rows into the parent's field layout and compares
field for field.  No difference is tolerated: the one formula this
planner corrects (the cascade's TT bytes ignored rank clamping) never
fired on a clamped shape here — the cascade only compresses tables of
4,096+ rows, and none of those the pinned budgets send to TT is small
enough for rank 128 to clamp.  ``test_planner.py`` pins the corrected
bytes on the small shapes.

The ``cascade/`` and ``rate/`` entries were re-dumped once, from this
planner, when the bags moved from float64 to float32 training: the two
training policies now plan at 4 bytes per element instead of 8, and
their budgets are the same fractions of the dense footprint at 4 bytes
(``_DENSE_BYTES``).  The ``pack/`` (already fp32) and ``rowshard/``
entries are the parent's.
"""

import json
from pathlib import Path

import pytest

from repro.backend import DEFAULT_DTYPE
from repro.embeddings.planner import (
    STRATEGY_KINDS,
    plan_fixed_fraction,
    plan_hbm_pack,
    plan_under_budget,
    row_shard_device_bytes,
)
from repro.embeddings.tt_core import TTSpec
from repro.system.devices import TESLA_V100
from repro.utils.factorize import suggest_tt_shapes
from tests.embeddings.fixtures.make_plans_parent import (
    CASCADE_FORMS,
    DEVICES,
    FRACTIONS,
    RATE_STRATEGIES,
    pinned_inputs,
)

GOLDEN = json.loads(
    (Path(__file__).parent / "fixtures" / "plans_parent.json").read_text()
)
INPUTS = pinned_inputs()
STRATEGY_OF_KIND = {kind: name for name, kind in STRATEGY_KINDS.items()}
#: Bytes per element the training policies plan at.
_DENSE_BYTES = DEFAULT_DTYPE.itemsize


def _parent_cascade_kind(entry, dense_bytes):
    """The parent's eight-valued ``PlacementKind`` of a new entry."""
    if not entry.on_server:
        return {
            "dense": "dense_device", "eff_tt": "tt_device",
            "hash": "hash_device", "robe": "robe_device", "pq": "pq_device",
        }[entry.kind]
    if entry.device_bytes == 0:
        return "host"
    return "hot_cold" if entry.server_bytes < dense_bytes else "row_sharded"


@pytest.mark.parametrize("name", sorted(INPUTS))
def test_fixed_fraction_matches_parent_cascade(name):
    stats, dim, ranks, _ = INPUTS[name]
    dense = sum(st.num_rows for st in stats) * dim * _DENSE_BYTES
    for fraction in FRACTIONS:
        budget = int(dense * fraction)
        for devices in DEVICES:
            for form in CASCADE_FORMS:
                for rank in ranks if form == "tt" else ranks[:1]:
                    key = f"cascade/{name}/{fraction}/{devices}/{form}/r{rank}"
                    want = GOLDEN[key]
                    plan = plan_fixed_fraction(
                        stats, dim, budget, num_devices=devices,
                        tt_rank=rank, compress_strategy=form,
                        compress_rate=0.25,
                    )
                    assert [
                        [
                            t.table_idx,
                            _parent_cascade_kind(t, t.num_rows * dim * _DENSE_BYTES),
                            t.num_rows, t.device_bytes, t.server_bytes,
                            t.reason,
                        ]
                        for t in plan.tables
                    ] == want["tables"], key
                    assert plan.num_devices == want["num_devices"]
                    assert plan.budget_bytes == want["device_budget_bytes"]
                    assert plan.device_bytes == want["per_device_bytes"]
                    assert plan.server_positions() == want["server_table_positions"]
                    assert plan.feasible == want["feasible"]
                    # parent's host_bytes: what stays in plain host memory
                    assert want["host_bytes"] == sum(
                        t.server_bytes for t in plan.tables
                        if t.on_server and _parent_cascade_kind(
                            t, t.num_rows * dim * _DENSE_BYTES
                        ) != "row_sharded"
                    )


@pytest.mark.parametrize("name", sorted(INPUTS))
def test_row_shard_arithmetic_matches_parent_strategy(name):
    stats, dim, _, _ = INPUTS[name]
    rows = [st.num_rows for st in stats]
    for fraction in FRACTIONS:
        for devices in DEVICES:
            want = GOLDEN[f"rowshard/{name}/{fraction}/{devices}"]
            assert [
                row_shard_device_bytes([r], devices, dim, 8) for r in rows
            ] == [row[3] for row in want["tables"]]
            total = row_shard_device_bytes(rows, devices, dim, 8)
            assert total == want["per_device_bytes"]
            assert (total <= want["device_budget_bytes"]) == want["feasible"]


def _pack_rows(plan, dim):
    rows = []
    for entry in plan.tables:
        if entry.kind == "eff_tt":
            row_shape, col_shape, _ = suggest_tt_shapes(entry.num_rows, dim)
            spec = TTSpec.create(
                row_shape, col_shape, entry.param_dict()["tt_rank"]
            )
            shapes = [row_shape, col_shape, list(spec.ranks)]
        else:
            shapes = [None, None, None]
        rows.append(
            [
                entry.table_idx, entry.num_rows,
                {"eff_tt": "gpu_tt", "dense": "gpu_dense",
                 "host": "host_dense"}[entry.kind],
                entry.device_bytes + entry.server_bytes,
            ]
            + shapes
        )
    return rows


@pytest.mark.parametrize("name", sorted(INPUTS))
def test_hbm_pack_matches_parent_plan_placement(name):
    stats, dim, ranks, threshold = INPUTS[name]
    dense32 = sum(st.num_rows for st in stats) * dim * 4
    cases = [
        (f"pack/{name}/{fraction}/compress={compress}",
         int(dense32 * fraction * 0.8),
         threshold if compress else max(st.num_rows for st in stats))
        for fraction in FRACTIONS
        for compress in (True, False)
    ]
    if name.endswith("@full"):
        cases.append(
            (f"pack/{name}/table3", int(TESLA_V100.hbm_bytes), threshold)
        )
    for key, budget, tt_threshold_rows in cases:
        want = GOLDEN[key]
        plan = plan_hbm_pack(
            stats, dim, budget, tt_rank=ranks[-1],
            tt_threshold_rows=tt_threshold_rows,
        )
        assert _pack_rows(plan, dim) == want["tables"], key
        assert plan.budget_bytes == int(want["hbm_budget_bytes"])
        assert plan.device_bytes == want["gpu_bytes"]
        assert plan.server_bytes == want["host_bytes"]
        assert plan.feasible == want["fits_gpu"]
        assert plan.dtype_bytes == 4


@pytest.mark.parametrize("name", sorted(INPUTS))
def test_under_budget_matches_parent_plan_compression(name):
    stats, dim, _, _ = INPUTS[name]
    dense = sum(st.num_rows for st in stats) * dim * _DENSE_BYTES
    for fraction in FRACTIONS:
        for strategy in RATE_STRATEGIES:
            key = f"rate/{name}/{fraction}/{strategy}"
            want = GOLDEN[key]
            plan = plan_under_budget(
                stats, dim, int(dense * fraction), strategy=strategy
            )
            assert [
                [
                    t.table_idx, t.num_rows, STRATEGY_OF_KIND[t.kind],
                    [list(kv) for kv in t.params], t.device_bytes,
                    t.num_rows * dim * _DENSE_BYTES,
                ]
                for t in plan.tables
            ] == want["tables"], key
            assert not plan.server_positions()
            assert plan.budget_bytes == want["budget_bytes"]
            assert plan.embedding_dim == want["embedding_dim"]
            assert plan.dtype_bytes == want["dtype_bytes"]
            assert plan.rate == want["rate"]
            assert plan.device_bytes == want["total_bytes"]
            assert plan.dense_bytes == want["dense_total_bytes"]
            assert plan.feasible == want["feasible"]
