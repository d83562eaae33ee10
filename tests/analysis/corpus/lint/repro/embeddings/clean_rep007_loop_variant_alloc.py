"""REP007 clean twin: the allocation depends on the loop variable."""

import numpy as np

from repro.backend import get_backend
from repro.backend.protocol import ZONE_TT_BACKWARD


def staircase(row_grads: np.ndarray) -> list:
    bk = get_backend()
    out = []
    with bk.zone(ZONE_TT_BACKWARD):
        seed = bk.ones((8, 1, 1), dtype=row_grads.dtype)  # hoisted: clean
        for k in range(4):
            step = bk.zeros((k + 1, 4), dtype=row_grads.dtype)  # loop-variant
            out.append(bk.matmul(step, step.transpose(1, 0)))
        out.append(seed)
    return out
