"""Multi-layer perceptron stack (DLRM bottom and top MLPs)."""

from __future__ import annotations

from typing import List, Sequence

import numpy as np

from repro.backend.protocol import DEFAULT_DTYPE, DTypeLike
from repro.nn.activations import ReLU, Sigmoid
from repro.nn.linear import Linear
from repro.nn.module import Module
from repro.utils.rng import RngLike, spawn_rngs

__all__ = ["MLP"]


class MLP(Module):
    """A stack of ``Linear`` layers with ReLU between them.

    Mirrors the reference DLRM construction: every hidden layer is
    followed by ReLU; the output layer is followed by Sigmoid if
    ``sigmoid_output=True`` (DLRM's top MLP ends in a sigmoid when the
    loss is plain BCE — with :class:`BCEWithLogitsLoss` leave it off).

    Parameters
    ----------
    layer_sizes:
        Widths including input and output, e.g. ``[13, 512, 256, 64]``
        builds three linear layers.
    sigmoid_output:
        Append a sigmoid after the last linear layer.
    seed:
        RNG (split across layers) for initialization.
    dtype:
        Floating dtype shared by all layers (default
        :data:`~repro.backend.DEFAULT_DTYPE`).
    """

    def __init__(
        self,
        layer_sizes: Sequence[int],
        sigmoid_output: bool = False,
        seed: RngLike = 0,
        dtype: DTypeLike = DEFAULT_DTYPE,
    ) -> None:
        super().__init__()
        sizes = list(layer_sizes)
        if len(sizes) < 2:
            raise ValueError(
                f"layer_sizes needs at least input and output widths, got {sizes}"
            )
        self.layer_sizes = sizes
        self.dtype = np.dtype(dtype)
        rngs = spawn_rngs(seed, len(sizes) - 1)
        self._stack: List[Module] = []
        for i, (fan_in, fan_out) in enumerate(zip(sizes[:-1], sizes[1:])):
            layer = Linear(fan_in, fan_out, seed=rngs[i], dtype=self.dtype)
            self.register_module(f"linear{i}", layer)
            self._stack.append(layer)
            is_last = i == len(sizes) - 2
            if not is_last:
                act: Module = ReLU()
            elif sigmoid_output:
                act = Sigmoid()
            else:
                continue
            self.register_module(f"act{i}", act)
            self._stack.append(act)

    @property
    def in_features(self) -> int:
        return self.layer_sizes[0]

    @property
    def out_features(self) -> int:
        return self.layer_sizes[-1]

    def forward(self, inputs: np.ndarray) -> np.ndarray:
        out = np.asarray(inputs, dtype=self.dtype)
        for layer in self._stack:
            out = layer.forward(out)
        return out

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        grad = np.asarray(grad_output, dtype=self.dtype)
        for layer in reversed(self._stack):
            grad = layer.backward(grad)
        return grad
