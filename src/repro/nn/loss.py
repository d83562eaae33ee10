"""Binary cross-entropy loss for click-through-rate prediction."""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from repro.backend import DEFAULT_DTYPE
from repro.backend.protocol import DTypeLike
from repro.nn.activations import _as_float
from repro.nn.module import Module

__all__ = ["BCEWithLogitsLoss"]


class BCEWithLogitsLoss(Module):
    """Numerically stable sigmoid + binary cross-entropy.

    Combines the final sigmoid with the loss the way
    ``torch.nn.BCEWithLogitsLoss`` does:

    ``loss = mean( max(z, 0) - z * y + log(1 + exp(-|z|)) )``

    which never overflows.  ``forward`` returns the scalar loss;
    ``backward`` returns the gradient w.r.t. the logits, already
    divided by the batch size (mean reduction).

    ``dtype`` is the model's: logits and targets are taken in at it (a
    batch's float64 labels are cast here, once), and so is the gradient.
    """

    def __init__(self, dtype: DTypeLike = DEFAULT_DTYPE) -> None:
        super().__init__()
        self.dtype = np.dtype(dtype)
        self._cached: Optional[Tuple[np.ndarray, np.ndarray]] = None

    def forward(self, logits: np.ndarray, targets: np.ndarray) -> float:
        logits = np.asarray(logits, dtype=self.dtype).reshape(-1)
        targets = np.asarray(targets, dtype=self.dtype).reshape(-1)
        if logits.shape != targets.shape:
            raise ValueError(
                f"logits shape {logits.shape} != targets shape {targets.shape}"
            )
        if logits.size == 0:
            raise ValueError("empty batch")
        if targets.size and (targets.min() < 0 or targets.max() > 1):
            raise ValueError("targets must lie in [0, 1]")
        self._cached = (logits, targets)
        loss = (
            np.maximum(logits, 0.0)
            - logits * targets
            + np.log1p(np.exp(-np.abs(logits)))
        )
        return float(loss.mean())

    def backward(self) -> np.ndarray:
        """Gradient of the mean loss w.r.t. the logits: ``(sigmoid(z) - y)/B``."""
        if self._cached is None:
            raise RuntimeError("backward called before forward")
        logits, targets = self._cached
        probs = _stable_sigmoid(logits)
        grad = (probs - targets) / logits.size
        self._cached = None
        return grad

    @staticmethod
    def predict_proba(logits: np.ndarray) -> np.ndarray:
        """Convenience: convert logits to click probabilities (same dtype)."""
        return _stable_sigmoid(_as_float(logits).reshape(-1))


def _stable_sigmoid(x: np.ndarray) -> np.ndarray:
    out = np.empty_like(x)
    positive = x >= 0
    out[positive] = 1.0 / (1.0 + np.exp(-x[positive]))
    exp_x = np.exp(x[~positive])
    out[~positive] = exp_x / (1.0 + exp_x)
    return out
