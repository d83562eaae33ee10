"""``ServingModel`` serves dense tables without their bags' ``forward``.

Every dense arm is one gather from the bag's live ``weight`` into its
slot of the interaction stack, after one range check over all dense
ids.  These tests pin what that path must keep: the model's own
predictions bit for bit, the per-table error for a bad id raised before
anything is gathered, and training after construction showing through.
"""

import numpy as np
import pytest

from repro.data.dataloader import Batch, SyntheticClickLog
from repro.data.datasets import DatasetSpec, TableSpec, criteo_kaggle_like
from repro.embeddings.dense import DenseEmbeddingBag
from repro.embeddings.inference import StaleCacheError
from repro.models.config import DLRMConfig, EmbeddingBackend
from repro.models.dlrm import DLRM
from repro.serving.requests import InferenceRequest, RequestGenerator, coalesce_requests
from repro.serving.server import ServingModel
from repro.utils.validation import check_1d_int_array

CRITEO_SMALL = criteo_kaggle_like(scale=3e-5)
#: The ledger's serving model: 6 Eff-TT tables beside 20 dense ones.
CRITEO_LEDGER = criteo_kaggle_like(scale=2e-3)
#: tests/integration/test_multihot.py's schema: bags of 1, 3 and 5.
MULTIHOT = DatasetSpec(
    name="multihot",
    num_dense=4,
    tables=(
        TableSpec("one_hot", 300, bag_size=1),
        TableSpec("three_hot", 500, bag_size=3),
        TableSpec("five_hot", 200, bag_size=5),
    ),
    num_samples=100_000,
    days=1,
)


def _model(spec, backend, dim=8, rank=8):
    cfg = DLRMConfig.from_dataset(
        spec, embedding_dim=dim, backend=backend, tt_rank=rank,
        bottom_mlp=(16,), top_mlp=(16,),
    )
    return DLRM(cfg, seed=0)


MODELS = {
    "dense_only": lambda: _model(CRITEO_SMALL, EmbeddingBackend.DENSE),
    "mixed_6_20": lambda: _model(
        CRITEO_LEDGER, EmbeddingBackend.EFF_TT, dim=64, rank=32
    ),
    "multihot": lambda: _model(MULTIHOT, EmbeddingBackend.DENSE),
}
SPECS = {
    "dense_only": CRITEO_SMALL,
    "mixed_6_20": CRITEO_LEDGER,
    "multihot": MULTIHOT,
}


@pytest.fixture(scope="module", params=sorted(MODELS))
def case(request):
    return request.param, MODELS[request.param]()


def _dense_tables(model):
    return [
        t for t, bag in enumerate(model.embedding_bags)
        if isinstance(bag, DenseEmbeddingBag)
    ]


def _batches(name):
    """A served micro-batch, a training batch, and one with empty bags."""
    spec = SPECS[name]
    served = coalesce_requests(
        RequestGenerator(spec, rate=1000.0, seed=3).generate(17)
    )
    trained = SyntheticClickLog(spec, batch_size=32, seed=1).batch(0)
    rng = np.random.default_rng(5)
    ragged = coalesce_requests([
        InferenceRequest(
            request_id=i,
            arrival_time=float(i),
            dense=rng.normal(size=spec.num_dense),
            sparse_indices=tuple(
                rng.integers(0, table.num_rows, size=rng.integers(0, 4))
                for table in spec.tables
            ),
        )
        for i in range(9)
    ])
    return [served, trained, ragged]


def test_mixed_model_is_six_eff_tt_beside_twenty_dense():
    model = MODELS["mixed_6_20"]()
    assert len(_dense_tables(model)) == 20
    assert len(model.embedding_bags) == 26


def test_bitwise_model_predictions(case):
    name, model = case
    serving = ServingModel(model)
    for batch in _batches(name):
        np.testing.assert_array_equal(
            serving.predict_proba(batch), model.predict_proba(batch)
        )


def test_dense_bag_forward_is_not_called(case, monkeypatch):
    name, model = case
    serving = ServingModel(model)
    batch = _batches(name)[0]
    expected = model.predict_proba(batch)

    def forbidden(self, *args, **kwargs):
        raise AssertionError("a dense arm went through its bag's forward")

    monkeypatch.setattr(DenseEmbeddingBag, "forward", forbidden)
    np.testing.assert_array_equal(serving.predict_proba(batch), expected)


class _CountingWeight(np.ndarray):
    """A view of a dense table that counts the gathers made from it."""

    gathers = 0

    def take(self, *args, **kwargs):
        _CountingWeight.gathers += 1
        return super().take(*args, **kwargs)

    def __getitem__(self, key):
        _CountingWeight.gathers += 1
        return super().__getitem__(key)


@pytest.mark.parametrize("bad", ["negative", "above"])
def test_bad_dense_id_raises_before_any_gather(case, bad, monkeypatch):
    name, model = case
    spec = SPECS[name]
    hot = {t: np.arange(4) for t in range(len(model.embedding_bags))}
    serving = ServingModel(model, hot_rows=hot)
    dense = _dense_tables(model)
    for bag in (model.embedding_bags[t] for t in dense):
        monkeypatch.setattr(bag, "weight", bag.weight.view(_CountingWeight))
    for t in (dense[0], dense[len(dense) // 2], dense[-1]):
        batch = _batches(name)[0]
        ids = batch.sparse_indices[t].copy()
        ids[-1] = -1 if bad == "negative" else spec.tables[t].num_rows
        with pytest.raises(ValueError) as expected:
            check_1d_int_array(
                ids, "indices", min_value=0,
                max_value=spec.tables[t].num_rows - 1,
            )
        sparse = list(batch.sparse_indices)
        sparse[t] = ids
        bad_batch = Batch(
            batch.dense, sparse, batch.sparse_offsets, batch.labels
        )
        _CountingWeight.gathers = 0
        with pytest.raises(ValueError) as raised:
            serving.predict_proba(bad_batch)
        assert str(raised.value) == str(expected.value)
        assert _CountingWeight.gathers == 0
        assert serving.hot_lookups == serving.cold_lookups == 0


def test_bag_count_mismatch_raises(case):
    name, model = case
    batch = _batches(name)[0]
    t = _dense_tables(model)[0]
    offsets = list(batch.sparse_offsets)
    offsets[t] = np.array([0, batch.sparse_indices[t].size])  # one bag
    one_bag = Batch(batch.dense, batch.sparse_indices, offsets, batch.labels)
    with pytest.raises(ValueError, match=f"embedding {t} has shape"):
        model.predict_proba(one_bag)
    with pytest.raises(ValueError, match=f"embedding {t} has shape"):
        ServingModel(model).predict_proba(one_bag)


@pytest.mark.parametrize("name", ["dense_only", "multihot"])
def test_training_after_construction_serves_new_dense_rows(name):
    model = MODELS[name]()
    serving = ServingModel(model)
    batch = _batches(name)[0]
    before = serving.predict_proba(batch)
    log = SyntheticClickLog(SPECS[name], batch_size=64, seed=0)
    for i in range(3):
        model.train_step(log.batch(i), lr=0.5)
    after = serving.predict_proba(batch)
    np.testing.assert_array_equal(after, model.predict_proba(batch))
    assert not np.array_equal(after, before)


def test_training_after_construction_stales_cached_eff_tt_arms():
    model = _model(CRITEO_SMALL, EmbeddingBackend.EFF_TT)
    generator = RequestGenerator(CRITEO_SMALL, rate=1000.0, seed=3)
    hot = {t: generator.hot_rows(t, 0.2) for t in range(CRITEO_SMALL.num_sparse)}
    serving = ServingModel(model, hot_rows=hot)
    assert serving.cached_views and _dense_tables(model)
    batch = coalesce_requests(generator.generate(8))
    serving.predict_proba(batch)
    log = SyntheticClickLog(CRITEO_SMALL, batch_size=16, seed=0)
    model.train_step(log.batch(0), lr=0.1)
    with pytest.raises(StaleCacheError):
        serving.predict_proba(batch)
