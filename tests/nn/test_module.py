"""Tests for the Module/Parameter base classes."""

import numpy as np
import pytest

from repro.nn.linear import Linear
from repro.nn.mlp import MLP
from repro.nn.module import Module, Parameter


class TestParameter:
    def test_dtype_coercion(self):
        p = Parameter(np.array([1, 2], dtype=np.int32))
        assert p.data.dtype == np.float32  # the default model dtype
        p = Parameter(np.array([1, 2], dtype=np.int32), dtype=np.float64)
        assert p.data.dtype == np.float64

    def test_accumulate(self):
        p = Parameter(np.zeros(3))
        p.accumulate_grad(np.ones(3))
        p.accumulate_grad(np.ones(3))
        np.testing.assert_array_equal(p.grad, [2.0, 2.0, 2.0])

    def test_accumulate_shape_mismatch(self):
        p = Parameter(np.zeros(3), name="w")
        with pytest.raises(ValueError, match="w"):
            p.accumulate_grad(np.ones(4))

    def test_zero_grad(self):
        p = Parameter(np.zeros(2))
        p.accumulate_grad(np.ones(2))
        p.zero_grad()
        assert p.grad is None

    def test_size_shape(self):
        p = Parameter(np.zeros((2, 3)))
        assert p.size == 6
        assert p.shape == (2, 3)


class TestModuleTree:
    def test_parameter_traversal(self):
        mlp = MLP([3, 4, 2], seed=0)
        params = list(mlp.parameters())
        # two linear layers, each weight+bias
        assert len(params) == 4

    def test_named_parameters(self):
        mlp = MLP([3, 4, 2], seed=0)
        names = dict(mlp.named_parameters())
        assert "linear0.weight" in names
        assert "linear1.bias" in names

    def test_num_parameters(self):
        layer = Linear(3, 2, seed=0)
        assert layer.num_parameters() == 3 * 2 + 2

    def test_zero_grad_recursive(self):
        mlp = MLP([3, 4, 2], seed=0)
        for p in mlp.parameters():
            p.accumulate_grad(np.zeros(p.shape))
        mlp.zero_grad()
        assert all(p.grad is None for p in mlp.parameters())

    def test_train_eval_mode(self):
        mlp = MLP([3, 4, 2], seed=0)
        mlp.eval()
        assert not mlp.training
        assert all(not c.training for c in mlp.children())
        mlp.train()
        assert mlp.training

    def test_parameter_naming(self):
        layer = Linear(2, 2, seed=0)
        assert layer.weight.name == "Linear.weight"

    def test_base_forward_raises(self):
        with pytest.raises(NotImplementedError):
            Module().forward()
