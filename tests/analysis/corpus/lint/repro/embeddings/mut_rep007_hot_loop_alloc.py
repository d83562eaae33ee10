"""REP007 mutant: a loop-invariant buffer is allocated every iteration."""

import numpy as np

from repro.backend import get_backend
from repro.backend.protocol import ZONE_TT_BACKWARD


def suffix_products(row_grads: np.ndarray) -> np.ndarray:
    bk = get_backend()
    with bk.zone(ZONE_TT_BACKWARD):
        right = None
        for k in range(4):
            seed = bk.ones((8, 1, 1), dtype=row_grads.dtype)  # REP007
            right = bk.matmul(seed, seed.transpose(0, 2, 1))
        return right
