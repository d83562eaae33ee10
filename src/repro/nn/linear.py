"""Dense linear (fully connected) layer."""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.backend import DEFAULT_DTYPE, ZONE_MLP, get_backend
from repro.backend.protocol import DTypeLike
from repro.nn.module import Module, Parameter
from repro.utils.rng import RngLike, ensure_rng

__all__ = ["Linear"]


class Linear(Module):
    """Affine transform ``y = x @ W^T + b``.

    Weights use the same Kaiming-uniform fan-in initialization as
    ``torch.nn.Linear`` so MLP behaviour matches the reference DLRM
    implementation's defaults.

    Parameters
    ----------
    in_features, out_features:
        Input/output widths.
    bias:
        Include the additive bias term (DLRM always does).
    seed:
        RNG for initialization.
    dtype:
        Parameter / activation floating dtype (default
        :data:`~repro.backend.DEFAULT_DTYPE`).
        Forward and backward coerce to this dtype, so a float32 layer
        never silently upcasts.
    """

    def __init__(
        self,
        in_features: int,
        out_features: int,
        bias: bool = True,
        seed: RngLike = 0,
        dtype: DTypeLike = DEFAULT_DTYPE,
    ) -> None:
        super().__init__()
        if in_features < 1 or out_features < 1:
            raise ValueError(
                f"in_features and out_features must be >= 1, got "
                f"({in_features}, {out_features})"
            )
        self.in_features = in_features
        self.out_features = out_features
        self.dtype = np.dtype(dtype)
        rng = ensure_rng(seed)
        bound = 1.0 / np.sqrt(in_features)
        self.weight = self.register_parameter(
            "weight",
            Parameter(
                rng.uniform(-bound, bound, size=(out_features, in_features)),
                dtype=self.dtype,
            ),
        )
        self.bias: Optional[Parameter] = None
        if bias:
            self.bias = self.register_parameter(
                "bias",
                Parameter(
                    rng.uniform(-bound, bound, size=(out_features,)),
                    dtype=self.dtype,
                ),
            )
        self._cached_input: Optional[np.ndarray] = None

    def forward(self, inputs: np.ndarray) -> np.ndarray:
        """Compute ``inputs @ W^T + b`` for a ``(batch, in_features)`` array."""
        bk = get_backend()
        inputs = bk.asarray(inputs, dtype=self.dtype)
        if inputs.ndim != 2 or inputs.shape[1] != self.in_features:
            raise ValueError(
                f"expected input of shape (batch, {self.in_features}), "
                f"got {inputs.shape}"
            )
        self._cached_input = inputs
        with bk.zone(ZONE_MLP):
            out = bk.matmul(inputs, self.weight.data.T)
            if self.bias is not None:
                out += self.bias.data
        return out

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        """Accumulate parameter grads; return gradient w.r.t. the input."""
        if self._cached_input is None:
            raise RuntimeError("backward called before forward")
        bk = get_backend()
        grad_output = bk.asarray(grad_output, dtype=self.dtype)
        inputs = self._cached_input
        if grad_output.shape != (inputs.shape[0], self.out_features):
            raise ValueError(
                f"expected grad_output of shape "
                f"({inputs.shape[0]}, {self.out_features}), got {grad_output.shape}"
            )
        with bk.zone(ZONE_MLP):
            self.weight.accumulate_grad(bk.matmul(grad_output.T, inputs))
            if self.bias is not None:
                self.bias.accumulate_grad(grad_output.sum(axis=0))
            # With one output (the top MLP's last layer) this is a rank-1
            # product, which the backend runs as a broadcast outer product.
            grad_input = bk.matmul(grad_output, self.weight.data)
        self._cached_input = None
        return grad_input
