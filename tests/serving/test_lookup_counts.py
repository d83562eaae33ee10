"""A batch's hot/cold lookup split is read off the batch, and the one
lookup over every cached table serves what table-by-table lookups did.

:meth:`~repro.serving.server.ServingModel.lookup_counts` must equal a
plain ``np.isin`` over the tables the model caches: tables absent from
the hot-row map and dense tables count nothing, a table mapped to an
empty array counts every id cold, and multi-hot bags count every id.
A fleet records the split of whichever model served the batch, the
stale fallback included.  Predictions must be bitwise those of a
forward pass that serves each cached table through its own one-table
:class:`~repro.embeddings.inference.HotRowCachedLookup` — on a model
whose cached arms span two TT core signatures (Eff-TT and TT-Rec at
one rank, Eff-TT at another) beside a hash and a PQ arm.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.data.dataloader import Batch
from repro.data.datasets import DatasetSpec, TableSpec
from repro.data.dataloader import SyntheticClickLog
from repro.embeddings.dense import DenseEmbeddingBag
from repro.embeddings.eff_tt_embedding import EffTTEmbeddingBag
from repro.embeddings.hash_embedding import HashEmbeddingBag
from repro.embeddings.inference import HotRowCachedLookup, StaleCacheError
from repro.embeddings.pq_embedding import PQEmbeddingBag
from repro.embeddings.tt_embedding import TTEmbeddingBag
from repro.models.config import DLRMConfig, EmbeddingBackend
from repro.models.dlrm import DLRM
from repro.nn.loss import BCEWithLogitsLoss
from repro.resilience.degradation import DegradationPolicy
from repro.serving.batcher import BatchingPolicy
from repro.serving.fleet import FleetConfig, ServingFleet
from repro.serving.server import ServingModel
from repro.serving.snapshot import ModelSnapshot
from tests.conftest import make_request

#: Eff-TT, dense, Eff-TT, dense, Eff-TT (the small tables stay dense).
CFG = DLRMConfig(
    num_dense=2, table_rows=(5000, 40, 3000, 8, 2000), embedding_dim=16,
    bottom_mlp=(8,), top_mlp=(8,), backend=EmbeddingBackend.EFF_TT,
    tt_rank=4, tt_threshold_rows=100,
)
NUM_TABLES = len(CFG.table_rows)
MODEL = DLRM(CFG, seed=0)


#: Eff-TT rank 4, dense, TT-Rec rank 4, Eff-TT rank 2, hash, PQ,
#: Eff-TT rank 4: three arms share one core signature, one has its own.
MIXED_ROWS = (5000, 40, 2000, 3000, 4000, 1500, 2500)
MIXED_CFG = DLRMConfig(
    num_dense=2, table_rows=MIXED_ROWS, embedding_dim=16,
    bottom_mlp=(8,), top_mlp=(8,), dtype="float64",
)


def _mixed_bags():
    return [
        EffTTEmbeddingBag(5000, 16, tt_rank=4, seed=1, dtype=np.float64),
        DenseEmbeddingBag(40, 16, seed=2, dtype=np.float64),
        TTEmbeddingBag(2000, 16, tt_rank=4, seed=3, dtype=np.float64),
        EffTTEmbeddingBag(3000, 16, tt_rank=2, seed=4, dtype=np.float64),
        HashEmbeddingBag(4000, 16, seed=5, dtype=np.float64),
        PQEmbeddingBag(1500, 16, seed=6, dtype=np.float64),
        EffTTEmbeddingBag(2500, 16, tt_rank=4, seed=7, dtype=np.float64),
    ]


MIXED = DLRM(MIXED_CFG, seed=0, embedding_bags=_mixed_bags())
MODELS = {"eff_tt_and_dense": MODEL, "mixed": MIXED}


def reference_counts(hot_rows, batch, model=MODEL):
    """``(hot, cold)`` by ``np.isin`` over the mapped compressed tables."""
    hot = total = 0
    for t, rows in hot_rows.items():
        if isinstance(model.embedding_bags[t], DenseEmbeddingBag):
            continue
        idx = batch.sparse_indices[t]
        hot += int(np.isin(idx, rows).sum())
        total += idx.size
    return hot, total - hot


def per_table_predictions(model, hot_rows, batch):
    """The forward pass with each cached table behind its own lookup."""
    pooled = []
    for t, bag in enumerate(model.embedding_bags):
        view = bag
        if t in hot_rows and not isinstance(bag, DenseEmbeddingBag):
            view = HotRowCachedLookup(bag, hot_rows[t])
        pooled.append(view.forward(batch.sparse_indices[t], batch.sparse_offsets[t]))
    stacked = np.stack([model.bottom_mlp.forward(batch.dense), *pooled], axis=1)
    logits = model.top_mlp.forward(model.interaction.forward_stack(stacked))
    return BCEWithLogitsLoss.predict_proba(logits.reshape(-1))


@st.composite
def hot_maps(draw, rows_per_table=CFG.table_rows):
    """Per table: absent, empty, or a subset of rows (dense ones too)."""
    hot_rows = {}
    for t, rows in enumerate(rows_per_table):
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
def batches(draw, rows_per_table=CFG.table_rows, num_dense=CFG.num_dense):
    """1-6 samples, bags of 0-3 ids per table (multi-hot offsets)."""
    n = draw(st.integers(1, 6))
    indices, offsets = [], []
    for rows in rows_per_table:
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
        dense=np.zeros((n, num_dense)),
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


def test_the_mixed_model_has_two_tt_chains_beside_hash_and_pq():
    serving = ServingModel(MIXED, hot_rows={t: np.arange(3) for t in range(7)})
    lookup = serving.cached_lookup
    assert serving._cached_tables == (0, 2, 3, 4, 5, 6)
    slots = [group.slots for group in lookup._groups]
    # Eff-TT and TT-Rec at rank 4 share a chain; rank 2 has its own.
    assert slots == [(0, 1, 5), (2,), (3,), (4,)]
    assert [len(group.cores) for group in lookup._groups] == [3, 3, 0, 0]


@settings(max_examples=60, deadline=None)
@given(
    hot_rows=hot_maps(MIXED_ROWS),
    batch=batches(MIXED_ROWS, MIXED_CFG.num_dense),
    seed=st.integers(0, 2**16),
)
def test_one_lookup_serves_the_per_table_bits(hot_rows, batch, seed):
    batch.dense = np.random.default_rng(seed).standard_normal(batch.dense.shape)
    serving = ServingModel(MIXED, hot_rows=hot_rows)
    np.testing.assert_array_equal(
        serving.predict_proba(batch), per_table_predictions(MIXED, hot_rows, batch)
    )
    assert serving.lookup_counts(batch) == reference_counts(hot_rows, batch, MIXED)


@pytest.mark.parametrize("name", sorted(MODELS))
def test_refresh_after_training_serves_the_trained_model(name):
    model = DLRM(MODELS[name].config, seed=0, embedding_bags=(
        _mixed_bags() if name == "mixed" else None
    ))
    rows = model.config.table_rows
    spec = DatasetSpec(
        "lookup", model.config.num_dense,
        tuple(TableSpec(f"C{t}", r) for t, r in enumerate(rows)), 10_000, 1,
    )
    log = SyntheticClickLog(spec, batch_size=64, seed=1)
    serving = ServingModel(model, hot_rows={t: np.arange(0, r, 4) for t, r in enumerate(rows)})
    batch = log.batch(9)
    before = serving.predict_proba(batch)
    for i in range(3):
        model.train_step(log.batch(i), lr=0.5)
    with pytest.raises(StaleCacheError):
        serving.predict_proba(batch)
    serving.refresh()
    after = serving.predict_proba(batch)
    assert np.max(np.abs(after - model.predict_proba(batch))) <= 1e-12
    assert not np.array_equal(after, before)


def test_a_fallback_batch_records_the_fallback_models_split():
    rng = np.random.default_rng(4)
    requests = [
        make_request(
            request_id=i,
            arrival_time=1e-4 * (i + 1),
            dense=rng.standard_normal(CFG.num_dense),
            bags=tuple(
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
