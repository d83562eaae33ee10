"""REP003 twin: the model's dtype, and float64 only with a pragma saying why."""

import numpy as np


def stack(num: int, dim: int, dtype: np.dtype) -> np.ndarray:
    return np.empty((num, 2, dim), dtype=dtype)


def params(stored: np.ndarray, live: np.ndarray) -> np.ndarray:
    return np.asarray(stored, dtype=live.dtype)


def ranks(n: int) -> np.ndarray:
    return np.arange(1, n + 1, dtype=np.float64)  # reprolint: disable=REP003 (AUC rank sums)
