"""REP005 mutant: a contraction that bypasses the active backend."""

import numpy as np


def rows(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    return np.matmul(a, b)  # REP005
