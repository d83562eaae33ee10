"""ReLU as ``maximum`` + mask product against the ``np.where`` it replaced.

The product leaves ``-0.0`` where the select left ``+0.0`` (a negative
gradient times a closed gate).  DESIGN.md §8 claims that never reaches a
parameter or a loss; this file is the evidence, at the ledger's shapes,
plus the one place the two *should* differ: a non-finite gradient behind
a closed gate is no longer silently zeroed.
"""

import numpy as np
import pytest

from repro.backend import ZONE_MLP, SanitizerBackend, use_backend
from repro.data.dataloader import SyntheticClickLog
from repro.data.datasets import criteo_kaggle_like
from repro.models.config import DLRMConfig, EmbeddingBackend
from repro.models.dlrm import DLRM
from repro.nn import mlp as mlp_module
from repro.nn.activations import ReLU
from repro.nn.module import Module

LR = 0.05


class WhereReLU(Module):
    """The previous ReLU: a select on the mask in both directions."""

    def forward(self, inputs):
        self._mask = inputs > 0
        return np.where(self._mask, inputs, 0.0)

    def backward(self, grad_output):
        return np.where(self._mask, grad_output, 0.0)


def _train(mlp, steps, relu=None, monkeypatch=None):
    """``steps`` DLRM steps at the ledger's batch 2048 / dim 64."""
    spec = criteo_kaggle_like(scale=2e-3)
    log = SyntheticClickLog(spec, batch_size=2048, seed=5)
    config = DLRMConfig.from_dataset(
        spec, embedding_dim=64, backend=EmbeddingBackend.DENSE,
        bottom_mlp=mlp, top_mlp=mlp,
    )
    if relu is not None:
        monkeypatch.setattr(mlp_module, "ReLU", relu)
    model = DLRM(config, seed=1)
    losses = [model.train_step(log.batch(i), LR).loss for i in range(steps)]
    return losses, model


@pytest.mark.parametrize(
    "mlp, steps",
    [((512, 256), 3), ((64, 32), 6)],
    ids=["train_dense_mlp", "ps_pipeline"],
)
def test_training_is_bitwise_the_where_version(mlp, steps, monkeypatch):
    losses, model = _train(mlp, steps)
    ref_losses, reference = _train(mlp, steps, WhereReLU, monkeypatch)
    assert any(isinstance(m, ReLU) for m in model.top_mlp.children())
    assert any(isinstance(m, WhereReLU) for m in reference.top_mlp.children())
    assert losses == ref_losses
    for got, want in zip(model.parameters(), reference.parameters()):
        np.testing.assert_array_equal(got.data, want.data)
    for got, want in zip(model.embedding_bags, reference.embedding_bags):
        np.testing.assert_array_equal(got.weight, want.weight)


def test_the_product_does_leave_negative_zeros(rng):
    """The premise: the bits *do* differ before they are summed away."""
    x = rng.standard_normal((64, 32))
    grad = rng.standard_normal((64, 32))
    layer, reference = ReLU(), WhereReLU()
    np.testing.assert_array_equal(layer.forward(x), reference.forward(x))
    got, want = layer.backward(grad), reference.backward(grad)
    np.testing.assert_array_equal(got, want)  # -0.0 == +0.0
    assert np.signbit(got).sum() > np.signbit(want).sum()


def test_no_trap_on_a_clean_step():
    sanitizer = SanitizerBackend(mode="record")
    with use_backend(sanitizer):
        _train((64, 32), 1)
    assert sanitizer.traps == []


@pytest.mark.filterwarnings("ignore:invalid value encountered in multiply")
@pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
def test_nonfinite_gradient_behind_a_closed_gate_traps(bad):
    """``where`` turned it into 0.0; the product hands numsan a NaN."""
    x = np.array([[-1.0, 2.0]])
    grad = np.array([[bad, 1.0]])
    sanitizer = SanitizerBackend(mode="record")
    layer = ReLU()
    with use_backend(sanitizer):
        layer.forward(x)
        out = layer.backward(grad)
    assert np.isnan(out[0, 0])
    assert [(t.zone, t.op, t.kind) for t in sanitizer.traps] == [
        (ZONE_MLP, "multiply", "nonfinite")
    ]
    reference = WhereReLU()
    reference.forward(x)
    assert reference.backward(grad)[0, 0] == 0.0


def test_nan_activation_is_not_masked_forward():
    sanitizer = SanitizerBackend(mode="record")
    with use_backend(sanitizer):
        out = ReLU().forward(np.array([[np.nan, 1.0]]))
    assert np.isnan(out[0, 0])
    assert [(t.op, t.kind) for t in sanitizer.traps] == [("maximum", "nonfinite")]
