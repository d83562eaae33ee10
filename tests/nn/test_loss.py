"""Tests for BCE-with-logits loss."""

import numpy as np
import pytest

from repro.nn.loss import BCEWithLogitsLoss
from tests.conftest import assert_grad_close, numerical_gradient


class TestForward:
    def test_known_value(self):
        loss = BCEWithLogitsLoss()
        # logit 0 -> p=0.5 -> loss = ln 2 regardless of label
        value = loss.forward(np.zeros(4), np.array([0.0, 1.0, 0.0, 1.0]))
        assert value == pytest.approx(np.log(2.0))

    def test_perfect_prediction_low_loss(self):
        loss = BCEWithLogitsLoss()
        value = loss.forward(np.array([50.0, -50.0]), np.array([1.0, 0.0]))
        assert value < 1e-10

    def test_extreme_logits_finite(self):
        loss = BCEWithLogitsLoss()
        value = loss.forward(np.array([1e4, -1e4]), np.array([0.0, 1.0]))
        assert np.isfinite(value)

    def test_invalid_targets(self):
        with pytest.raises(ValueError):
            BCEWithLogitsLoss().forward(np.zeros(2), np.array([0.0, 2.0]))

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            BCEWithLogitsLoss().forward(np.zeros(2), np.zeros(3))

    def test_empty_batch(self):
        with pytest.raises(ValueError):
            BCEWithLogitsLoss().forward(np.zeros(0), np.zeros(0))


class TestBackward:
    def test_before_forward(self):
        with pytest.raises(RuntimeError):
            BCEWithLogitsLoss().backward()

    def test_numerical_gradient(self, rng):
        loss = BCEWithLogitsLoss(dtype=np.float64)
        logits = rng.standard_normal(6)
        targets = (rng.random(6) > 0.5).astype(float)
        loss.forward(logits, targets)
        analytic = loss.backward()

        def scalar(z):
            fresh = BCEWithLogitsLoss(dtype=np.float64)
            return fresh.forward(z, targets)

        numeric = numerical_gradient(scalar, logits.copy())
        assert_grad_close(analytic, numeric)

    def test_gradient_sign(self):
        loss = BCEWithLogitsLoss()
        loss.forward(np.array([0.0]), np.array([1.0]))
        grad = loss.backward()
        assert grad[0] < 0  # push the logit up toward the positive label


class TestPredictProba:
    def test_matches_sigmoid(self, rng):
        z = rng.standard_normal(10)
        np.testing.assert_allclose(
            BCEWithLogitsLoss.predict_proba(z), 1.0 / (1.0 + np.exp(-z))
        )
