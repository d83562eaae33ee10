"""REP003 mutants: float64 spelled out where the model's dtype belongs."""

import numpy as np


def stack(num: int, dim: int) -> np.ndarray:
    return np.empty((num, 2, dim), dtype=np.float64)  # REP003


def grads(grad_logits: np.ndarray) -> np.ndarray:
    return grad_logits.astype(np.float64)  # REP003


def params(stored: np.ndarray) -> np.ndarray:
    return np.asarray(stored, dtype=np.float64)  # REP003
