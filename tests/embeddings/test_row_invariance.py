"""A served row's bits depend on the row alone.

``reconstruct_rows`` runs the stacked-``matmul`` TT chain (the kernel
the TT-Rec forward runs), which computes each row from its own slices:
alone, in a micro-batch, in the hot-row build, cached or not, the value
is bitwise the same.  That is what lets one shared hot-row table and a
cold path of any batch size serve identical predictions.  The lean
lookup validates once at the view boundary; what bad inputs raise, and
the messages, are pinned here.
"""

import numpy as np
import pytest

from repro.data.dataloader import Batch
from repro.embeddings.inference import HotRowCachedLookup
from repro.embeddings.registry import BAG_CLASSES, build_bag
from repro.embeddings.tt_embedding import TTEmbeddingBag
from repro.models.config import DLRMConfig, EmbeddingBackend
from repro.models.dlrm import DLRM
from repro.serving.server import ServingModel
from tests.conftest import record_cold

ROWS, DIM = 5000, 16
KINDS = sorted(kind for kind in BAG_CLASSES if kind != "dense")
HOT = np.arange(0, ROWS, 10)  # 10 % coverage
ROW = 1230  # in HOT
COLD_ROW = 1231  # not in HOT


def _bag(kind):
    kwargs = {"tt_rank": 8} if kind in ("tt", "eff_tt") else {}
    return build_bag(kind, ROWS, DIM, seed=3, **kwargs)


def _batch_of_17(row, position):
    rng = np.random.default_rng(11)
    idx = rng.integers(0, ROWS, size=17).astype(np.int64)
    idx[position] = row
    return idx


@pytest.mark.parametrize("kind", KINDS)
class TestRowInvariance:
    def test_alone_in_a_batch_and_in_the_hot_build(self, kind):
        bag = _bag(kind)
        alone = bag.reconstruct_rows(np.array([ROW]))[0]
        for position in (0, 8, 16):
            batch = bag.reconstruct_rows(_batch_of_17(ROW, position))
            assert batch[position].tobytes() == alone.tobytes()
        build = bag.reconstruct_rows(HOT)
        assert build[ROW // 10].tobytes() == alone.tobytes()
        for size in (3, 200, 2000):
            idx = np.full(size, ROW, dtype=np.int64)
            idx[::2] = COLD_ROW
            assert bag.reconstruct_rows(idx)[1].tobytes() == alone.tobytes()

    def test_cache_hit_equals_cache_miss(self, kind):
        bag = _bag(kind)
        cached = HotRowCachedLookup(bag, HOT)
        uncached = HotRowCachedLookup(bag, np.array([], dtype=np.int64))
        idx = _batch_of_17(ROW, 4)
        idx[5] = COLD_ROW
        rebuilt = record_cold(cached)
        hit, miss = cached.lookup_rows(idx), uncached.lookup_rows(idx)
        assert cached.count_hot(idx) >= 1 and uncached.count_hot(idx) == 0
        assert ROW not in rebuilt and COLD_ROW in rebuilt
        assert hit.tobytes() == miss.tobytes()
        assert hit[4].tobytes() == bag.reconstruct_rows(np.array([ROW]))[0].tobytes()
        # Pooled form, bags of one: the same rows again.
        offsets = np.arange(idx.size + 1)
        assert cached.forward(idx, offsets).tobytes() == hit.tobytes()
        assert cached.forward(idx).tobytes() == hit.tobytes()

    def test_pooled_bags_sum_the_same_rows(self, kind):
        bag = _bag(kind)
        cached = HotRowCachedLookup(bag, HOT)
        idx = np.array([ROW, COLD_ROW, 7, ROW], dtype=np.int64)
        pooled = cached.forward(idx, np.array([0, 2, 2, 4]))
        rows = bag.reconstruct_rows(idx)
        np.testing.assert_array_equal(pooled[0], rows[0] + rows[1])
        np.testing.assert_array_equal(pooled[1], np.zeros(DIM))
        np.testing.assert_array_equal(pooled[2], rows[2] + rows[3])


def test_tt_forward_on_bags_of_one_is_reconstruct_rows():
    # One chain kernel: the training forward keeps its partials, the
    # serving lookup drops them.
    bag = TTEmbeddingBag(ROWS, DIM, tt_rank=8, seed=3)
    idx = _batch_of_17(ROW, 2)
    assert bag.forward(idx).tobytes() == bag.reconstruct_rows(idx).tobytes()
    assert bag.forward(idx, np.arange(18)).tobytes() == bag.forward(idx).tobytes()


def test_matmul_chain_agrees_with_the_einsum_it_replaced():
    bag = TTEmbeddingBag(ROWS, DIM, tt_rank=8, seed=3, dtype=np.float64)
    idx = np.arange(0, ROWS, 7)
    cores = bag.tt.cores
    tt_idx = bag.tt.spec.tt_indices(idx)
    left = cores[0][tt_idx[0]].reshape(idx.size, -1, cores[0].shape[3])
    for core, sub in zip(cores[1:], tt_idx[1:]):
        left = np.einsum("lar,lrbs->labs", left, core[sub], optimize=False)
        left = left.reshape(idx.size, -1, core.shape[3])
    np.testing.assert_allclose(
        bag.reconstruct_rows(idx), left.reshape(idx.size, DIM), rtol=1e-10, atol=1e-14
    )


# -- what bad inputs raise is unchanged, at every entry point ------------
BAD_INPUTS = [
    (np.array([0, ROWS]), ValueError,
     f"indices contains value {ROWS} above maximum {ROWS - 1}"),
    (np.array([3, -1]), ValueError,
     "indices contains value -1 below minimum 0"),
    (np.array([1.0, 2.0]), TypeError,
     "indices must have an integer dtype, got float64"),
    (np.array([[1, 2]]), ValueError, r"indices must be 1-D, got shape \(1, 2\)"),
]


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("bad, error, message", BAD_INPUTS)
def test_bad_indices_raise_what_they_did(kind, bad, error, message):
    bag = _bag(kind)
    view = HotRowCachedLookup(bag, HOT)
    rebuilt = record_cold(view)
    for call in (bag.reconstruct_rows, view.lookup_rows, view.forward):
        with pytest.raises(error, match=message):
            call(bad)
    assert rebuilt == []


@pytest.mark.parametrize("kind", KINDS)
def test_empty_indices_return_no_rows(kind):
    bag = _bag(kind)
    view = HotRowCachedLookup(bag, HOT)
    empty = np.array([], dtype=np.int64)
    for call in (bag.reconstruct_rows, view.lookup_rows, view.forward):
        out = call(empty)
        assert out.shape == (0, DIM) and out.dtype == np.float32  # the bag's
    assert view.forward(empty, np.array([0, 0, 0])).tolist() == [[0.0] * DIM] * 2
    with pytest.raises(ValueError, match="offsets must contain at least one bag"):
        view.forward(empty, empty)


def test_tt_cores_reject_rows_past_the_padding():
    bag = TTEmbeddingBag(ROWS, DIM, tt_rank=8, seed=3)
    padded = bag.tt.spec.padded_rows
    with pytest.raises(ValueError, match=rf"indices must lie in \[0, {padded}\)"):
        bag.tt.reconstruct_rows(np.array([padded]))


class TestAtPredictProba:
    CFG = DLRMConfig(
        num_dense=4, table_rows=(ROWS, 300), embedding_dim=DIM,
        bottom_mlp=(8,), top_mlp=(8,), backend=EmbeddingBackend.EFF_TT,
        tt_rank=8, tt_threshold_rows=1000,
    )

    def _serving(self):
        return ServingModel(DLRM(self.CFG, seed=0), hot_rows={0: HOT, 1: HOT[:5]})

    def _batch(self, first_table):
        n = len(first_table)
        return Batch(
            dense=np.zeros((n, 4)),
            sparse_indices=[np.asarray(first_table), np.zeros(n, dtype=np.int64)],
            sparse_offsets=[np.arange(n + 1), np.arange(n + 1)],
            labels=np.zeros(n),
        )

    @pytest.mark.parametrize("bad, error, message", BAD_INPUTS[:3])
    def test_bad_indices_raise_what_they_did(self, bad, error, message):
        serving = self._serving()
        rebuilt = record_cold(serving.cached_lookup)
        with pytest.raises(error, match=message):
            serving.predict_proba(self._batch(bad))
        assert rebuilt == []
