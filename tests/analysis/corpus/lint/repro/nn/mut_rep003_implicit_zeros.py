"""REP003 mutant: a kernel allocation at numpy's implicit float64."""

import numpy as np


def buffer(rows: int, dim: int) -> np.ndarray:
    return np.zeros((rows, dim))  # REP003
