"""Tests for the MLP stack."""

import numpy as np
import pytest

from repro.nn.mlp import MLP
from tests.conftest import assert_grad_close, numerical_gradient


class TestConstruction:
    def test_layer_count(self):
        mlp = MLP([4, 8, 2], seed=0)
        # linear, relu, linear
        assert len(mlp._stack) == 3

    def test_sigmoid_output(self):
        mlp = MLP([4, 2], sigmoid_output=True, seed=0)
        out = mlp.forward(np.zeros((1, 4)))
        assert 0.0 < out[0, 0] < 1.0

    def test_too_few_sizes(self):
        with pytest.raises(ValueError):
            MLP([4])

    def test_properties(self):
        mlp = MLP([13, 64, 16], seed=0)
        assert mlp.in_features == 13
        assert mlp.out_features == 16

    def test_same_seed_same_weights(self, rng):
        a = MLP([4, 8, 2], seed=5)
        b = MLP([4, 8, 2], seed=5)
        x = rng.standard_normal((3, 4))
        np.testing.assert_array_equal(a.forward(x), b.forward(x))


class TestForwardBackward:
    def test_shape(self, rng):
        mlp = MLP([5, 7, 3], seed=0)
        assert mlp.forward(rng.standard_normal((4, 5))).shape == (4, 3)

    def test_input_gradient_numerical(self, rng):
        mlp = MLP([4, 6, 2], seed=3, dtype=np.float64)
        x = rng.standard_normal((3, 4)) + 0.05
        g = rng.standard_normal((3, 2))
        mlp.forward(x)
        analytic = mlp.backward(g)
        mlp.zero_grad()

        def scalar(xi):
            out = float((mlp.forward(xi) * g).sum())
            return out

        numeric = numerical_gradient(scalar, x.copy())
        assert_grad_close(analytic, numeric, rtol=1e-4)

    def test_parameter_gradients_numerical(self, rng):
        mlp = MLP([3, 4, 2], seed=1, dtype=np.float64)
        x = rng.standard_normal((2, 3))
        g = rng.standard_normal((2, 2))
        mlp.forward(x)
        mlp.backward(g)
        analytic = {name: p.grad.copy() for name, p in mlp.named_parameters()}
        mlp.zero_grad()

        for name, param in mlp.named_parameters():
            p0 = param.data.copy()

            def scalar(pv):
                param.data = pv
                return float((mlp.forward(x) * g).sum())

            numeric = numerical_gradient(scalar, p0.copy())
            param.data = p0
            assert_grad_close(analytic[name], numeric, rtol=1e-4)

    def test_training_reduces_loss(self, rng):
        # tiny regression sanity: MLP can fit a linear map
        mlp = MLP([2, 16, 1], seed=0)
        x = rng.standard_normal((64, 2))
        y = (x @ np.array([[1.0], [-2.0]]))
        from repro.nn.optim import SGD

        sgd = SGD(mlp.parameters(), lr=0.05)
        losses = []
        for _ in range(100):
            pred = mlp.forward(x)
            diff = pred - y
            losses.append(float((diff**2).mean()))
            mlp.backward(2 * diff / diff.size)
            sgd.step()
            mlp.zero_grad()
        assert losses[-1] < 0.2 * losses[0]
