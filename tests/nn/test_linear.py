"""Tests for the Linear layer, including numerical gradient checks."""

import numpy as np
import pytest

from repro.nn.linear import Linear
from tests.conftest import assert_grad_close, numerical_gradient


class TestForward:
    def test_shape(self, rng):
        layer = Linear(4, 3, seed=0)
        out = layer.forward(rng.standard_normal((5, 4)))
        assert out.shape == (5, 3)

    def test_matches_manual(self, rng):
        layer = Linear(4, 3, seed=0)
        x = rng.standard_normal((2, 4))
        # the layer takes its input in at its own dtype (float32 here)
        expected = x.astype(layer.dtype) @ layer.weight.data.T + layer.bias.data
        np.testing.assert_allclose(layer.forward(x), expected)

    def test_no_bias(self, rng):
        layer = Linear(4, 3, bias=False, seed=0)
        assert layer.bias is None
        x = rng.standard_normal((2, 4))
        np.testing.assert_allclose(
            layer.forward(x), x.astype(layer.dtype) @ layer.weight.data.T
        )

    def test_bad_shape(self, rng):
        layer = Linear(4, 3, seed=0)
        with pytest.raises(ValueError):
            layer.forward(rng.standard_normal((2, 5)))

    def test_bad_construction(self):
        with pytest.raises(ValueError):
            Linear(0, 3)

    def test_init_bound(self):
        layer = Linear(100, 50, seed=0)
        bound = 1.0 / np.sqrt(100)
        assert np.abs(layer.weight.data).max() <= bound


class TestBackward:
    def test_requires_forward(self):
        layer = Linear(2, 2, seed=0)
        with pytest.raises(RuntimeError):
            layer.backward(np.zeros((1, 2)))

    def test_input_gradient_numerical(self, rng):
        layer = Linear(4, 3, seed=1, dtype=np.float64)
        x = rng.standard_normal((3, 4))
        g_out = rng.standard_normal((3, 3))

        def scalar(x_in):
            return float((layer.forward(x_in) * g_out).sum())

        analytic = None
        layer.forward(x)
        analytic = layer.backward(g_out)
        layer.zero_grad()
        numeric = numerical_gradient(scalar, x.copy())
        assert_grad_close(analytic, numeric)

    def test_weight_gradient_numerical(self, rng):
        layer = Linear(3, 2, seed=2, dtype=np.float64)
        x = rng.standard_normal((4, 3))
        g_out = rng.standard_normal((4, 2))
        layer.forward(x)
        layer.backward(g_out)
        analytic_w = layer.weight.grad.copy()
        analytic_b = layer.bias.grad.copy()
        layer.zero_grad()

        w0 = layer.weight.data.copy()

        def scalar_w(w):
            layer.weight.data = w
            out = float((layer.forward(x) * g_out).sum())
            layer._cached_input = None
            return out

        numeric_w = numerical_gradient(scalar_w, w0.copy())
        layer.weight.data = w0
        assert_grad_close(analytic_w, numeric_w)

        b0 = layer.bias.data.copy()

        def scalar_b(b):
            layer.bias.data = b
            out = float((layer.forward(x) * g_out).sum())
            layer._cached_input = None
            return out

        numeric_b = numerical_gradient(scalar_b, b0.copy())
        layer.bias.data = b0
        assert_grad_close(analytic_b, numeric_b)

    def test_grad_accumulates(self, rng):
        layer = Linear(3, 2, seed=0)
        x = rng.standard_normal((2, 3))
        g = rng.standard_normal((2, 2))
        layer.forward(x)
        layer.backward(g)
        first = layer.weight.grad.copy()
        layer.forward(x)
        layer.backward(g)
        np.testing.assert_allclose(layer.weight.grad, 2 * first)

    def test_shape_mismatch(self, rng):
        layer = Linear(3, 2, seed=0)
        layer.forward(rng.standard_normal((2, 3)))
        with pytest.raises(ValueError):
            layer.backward(rng.standard_normal((2, 3)))


class TestOneOutputBackward:
    """A one-output layer's input gradient is a rank-1 (outer) product."""

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_input_gradient_is_bit_identical_to_the_gemm(self, rng, dtype):
        from repro.backend import Interposer, CostCounter, use_backend

        layer = Linear(256, 1, seed=3, dtype=dtype)
        x = rng.standard_normal((2048, 256)).astype(dtype)
        grad = rng.standard_normal((2048, 1)).astype(dtype)
        counter = CostCounter()
        with use_backend(Interposer(observers=[counter])):
            layer.forward(x)
            grad_input = layer.backward(grad)
        expected = np.matmul(grad, layer.weight.data)
        assert grad_input.dtype == dtype and grad_input.flags.c_contiguous
        assert grad_input.tobytes() == expected.tobytes()
        assert grad_input.tobytes() == (grad * layer.weight.data).tobytes()
        # Still one matmul at a GEMM's price: the op tables are unchanged.
        calls = {op: s.calls for (_, op), s in counter.op_stats.items()}
        assert calls["matmul"] == 3
