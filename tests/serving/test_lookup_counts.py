"""A batch's hot/cold lookup split is read off the batch.

:meth:`~repro.serving.server.ServingModel.lookup_counts` must equal a
plain ``np.isin`` over the tables the model caches: tables absent from
the hot-row map and dense tables count nothing, a table mapped to an
empty array counts every id cold, and multi-hot bags count every id.
A fleet records the split of whichever model served the batch, the
stale fallback included.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.data.dataloader import Batch
from repro.models.config import DLRMConfig, EmbeddingBackend
from repro.models.dlrm import DLRM
from repro.resilience.degradation import DegradationPolicy
from repro.serving.batcher import BatchingPolicy
from repro.serving.fleet import FleetConfig, ServingFleet
from repro.serving.requests import InferenceRequest
from repro.serving.server import ServingModel
from repro.serving.snapshot import ModelSnapshot

#: Eff-TT, dense, Eff-TT, dense, Eff-TT (the small tables stay dense).
CFG = DLRMConfig(
    num_dense=2, table_rows=(5000, 40, 3000, 8, 2000), embedding_dim=16,
    bottom_mlp=(8,), top_mlp=(8,), backend=EmbeddingBackend.EFF_TT,
    tt_rank=4, tt_threshold_rows=100,
)
NUM_TABLES = len(CFG.table_rows)
DENSE = {
    t for t in range(NUM_TABLES)
    if CFG.backend_for_table(t) is EmbeddingBackend.DENSE
}
MODEL = DLRM(CFG, seed=0)


def reference_counts(hot_rows, batch):
    """``(hot, cold)`` by ``np.isin`` over the mapped compressed tables."""
    hot = total = 0
    for t, rows in hot_rows.items():
        if t in DENSE:
            continue
        idx = batch.sparse_indices[t]
        hot += int(np.isin(idx, rows).sum())
        total += idx.size
    return hot, total - hot


@st.composite
def hot_maps(draw):
    """Per table: absent, empty, or a subset of rows (dense ones too)."""
    hot_rows = {}
    for t, rows in enumerate(CFG.table_rows):
        choice = draw(st.sampled_from(["absent", "empty", "subset"]))
        if choice == "empty":
            hot_rows[t] = np.array([], dtype=np.int64)
        elif choice == "subset":
            hot_rows[t] = np.array(
                draw(st.lists(st.integers(0, rows - 1), max_size=30)),
                dtype=np.int64,
            )
    return hot_rows


@st.composite
def batches(draw):
    """1-6 samples, bags of 0-3 ids per table (multi-hot offsets)."""
    n = draw(st.integers(1, 6))
    indices, offsets = [], []
    for rows in CFG.table_rows:
        sizes = draw(st.lists(st.integers(0, 3), min_size=n, max_size=n))
        ids = draw(
            st.lists(
                st.integers(0, rows - 1),
                min_size=sum(sizes), max_size=sum(sizes),
            )
        )
        indices.append(np.array(ids, dtype=np.int64))
        offsets.append(np.concatenate([[0], np.cumsum(sizes)]).astype(np.int64))
    return Batch(
        dense=np.zeros((n, CFG.num_dense)),
        sparse_indices=indices,
        sparse_offsets=offsets,
        labels=np.zeros(n),
    )


@settings(max_examples=60, deadline=None)
@given(hot_rows=hot_maps(), batch=batches())
def test_lookup_counts_is_np_isin_over_the_cached_tables(hot_rows, batch):
    serving = ServingModel(MODEL, hot_rows=hot_rows)
    expected = reference_counts(hot_rows, batch)
    assert serving.lookup_counts(batch) == expected
    serving.predict_proba(batch)
    assert serving.lookup_counts(batch) == expected


def test_a_fallback_batch_records_the_fallback_models_split():
    rng = np.random.default_rng(4)
    requests = [
        InferenceRequest(
            request_id=i,
            arrival_time=1e-4 * (i + 1),
            dense=rng.standard_normal(CFG.num_dense),
            sparse_indices=tuple(
                rng.integers(0, rows, size=1 + i % 2).astype(np.int64)
                for rows in CFG.table_rows
            ),
        )
        for i in range(80)
    ]
    primary_rows = {t: np.arange(0, rows, 3) for t, rows in enumerate(CFG.table_rows)}
    fallback_rows = {0: np.arange(50), 3: np.arange(4), 4: np.array([], dtype=np.int64)}
    fleet = ServingFleet(
        ModelSnapshot.from_model(MODEL, version=1),
        hot_rows=primary_rows,
        config=FleetConfig(
            num_replicas=1,
            batching=BatchingPolicy(max_batch_size=4, max_wait=1e-3),
            degradation=DegradationPolicy(slo_target=1e-6),  # all breach
        ),
    )
    fleet.set_fallback(
        ModelSnapshot.from_model(DLRM(CFG, seed=1), version=2), fallback_rows
    )
    outcome = fleet.run(requests)
    assert outcome.replicas[0].fallback_batches > 0
    maps = {1: primary_rows, 2: fallback_rows}
    assert {b.model_version for b in outcome.served_batches} == {1, 2}
    for served in outcome.served_batches:
        assert (served.hot_lookups, served.cold_lookups) == reference_counts(
            maps[served.model_version], served.batch
        )
