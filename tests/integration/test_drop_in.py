"""Integration test: Eff-TT as a drop-in EmbeddingBag replacement.

The paper's API claim (§I, §VI-A): replacing ``nn.EmbeddingBag`` with
the Eff-TT table requires no other model change.  We verify the whole
bag API surface is interchangeable across backends.
"""

import numpy as np
import pytest

from repro.embeddings import (
    DenseEmbeddingBag,
    EffTTEmbeddingBag,
    TTEmbeddingBag,
)

BACKENDS = [
    lambda: DenseEmbeddingBag(200, 16, seed=0),
    lambda: TTEmbeddingBag(200, 16, tt_rank=8, seed=0),
    lambda: EffTTEmbeddingBag(200, 16, tt_rank=8, seed=0),
]


@pytest.mark.parametrize("factory", BACKENDS)
class TestUniformAPI:
    def test_forward_signature(self, factory, rng):
        bag = factory()
        idx = rng.integers(0, 200, size=32)
        off = np.arange(0, 32, 4)
        out = bag.forward(idx, off)
        assert out.shape == (8, 16)
        # __call__ alias
        np.testing.assert_array_equal(bag(idx, off), out)

    def test_default_offsets(self, factory, rng):
        bag = factory()
        idx = rng.integers(0, 200, size=5)
        assert bag.forward(idx).shape == (5, 16)

    def test_train_cycle(self, factory, rng):
        bag = factory()
        idx = rng.integers(0, 200, size=16)
        out = bag.forward(idx)
        bag.backward(rng.standard_normal(out.shape))
        bag.step(0.01)  # must not raise

    def test_footprint_api(self, factory):
        bag = factory()
        assert bag.nbytes > 0
        assert bag.nbytes_as(np.float32) == bag.nbytes  # float32 by default
        assert bag.nbytes_as(np.float64) == 2 * bag.nbytes

    def test_lookup_rows(self, factory):
        bag = factory()
        rows = bag.lookup_rows(np.array([0, 199]))
        assert rows.shape == (2, 16)

    def test_training_moves_output(self, factory, rng):
        bag = factory()
        idx = rng.integers(0, 200, size=16)
        before = bag.forward(idx).copy()
        bag.backward(np.ones((16, 16)))
        bag.step(0.1)
        after = bag.forward(idx)
        bag.backward(np.zeros((16, 16)))  # clear state
        bag.step(0.1)
        assert not np.allclose(before, after)
        # gradient of ones with positive lr must lower the outputs
        assert after.sum() < before.sum()


class TestCompressionAdvantage:
    def test_tt_backends_much_smaller(self):
        dense = DenseEmbeddingBag(1_000_000, 64, seed=0)
        eff = EffTTEmbeddingBag(1_000_000, 64, tt_rank=16, seed=0)
        assert eff.nbytes < dense.nbytes / 100
