"""Elementwise activation layers used by DLRM MLP stacks."""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.backend import DEFAULT_DTYPE, ZONE_MLP, get_backend
from repro.nn.module import Module

__all__ = ["ReLU", "Sigmoid"]


def _as_float(a: np.ndarray) -> np.ndarray:
    """Coerce to a floating array, *preserving* an existing float dtype.

    Activations are dtype-transparent: a float32 MLP stays float32
    through them; integer/bool inputs promote to
    :data:`~repro.backend.DEFAULT_DTYPE`.
    """
    a = np.asarray(a)
    if not np.issubdtype(a.dtype, np.floating):
        a = a.astype(DEFAULT_DTYPE)
    return a


class ReLU(Module):
    """Rectified linear unit, ``max(x, 0)``."""

    def __init__(self) -> None:
        super().__init__()
        self._mask: Optional[np.ndarray] = None

    def forward(self, inputs: np.ndarray) -> np.ndarray:
        inputs = _as_float(inputs)
        bk = get_backend()
        self._mask = inputs > 0
        with bk.zone(ZONE_MLP):
            return bk.maximum(inputs, 0.0)

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        if self._mask is None:
            raise RuntimeError("backward called before forward")
        bk = get_backend()
        with bk.zone(ZONE_MLP):
            # A product, not a select: np.where on a random mask pays a
            # branch misprediction per element (DESIGN.md §8).
            grad = bk.multiply(_as_float(grad_output), self._mask)
        self._mask = None
        return grad


class Sigmoid(Module):
    """Logistic sigmoid, ``1 / (1 + exp(-x))``.

    The forward output is cached so the backward pass reuses
    ``s * (1 - s)`` without recomputing the exponential.
    """

    def __init__(self) -> None:
        super().__init__()
        self._output: Optional[np.ndarray] = None

    def forward(self, inputs: np.ndarray) -> np.ndarray:
        inputs = _as_float(inputs)
        bk = get_backend()
        with bk.zone(ZONE_MLP):
            # Numerically stable piecewise evaluation avoids overflow for
            # large negative inputs.
            out = bk.empty(inputs.shape, dtype=inputs.dtype)
            positive = inputs >= 0
            out[positive] = 1.0 / (1.0 + bk.exp(-inputs[positive]))
            exp_x = bk.exp(inputs[~positive])
            out[~positive] = exp_x / (1.0 + exp_x)
        self._output = out
        return out

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        if self._output is None:
            raise RuntimeError("backward called before forward")
        s = self._output
        grad = _as_float(grad_output) * s * (1.0 - s)
        self._output = None
        return grad
