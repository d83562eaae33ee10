"""Clean twin of mut_gather_negative: the sentinel is mapped to row 0.

The "missing feature" id is remapped before the gather, so every
constant index is a valid row of the 1000-row table.
Expected: no findings.
"""

import numpy as np

from repro.backend import ZONE_PS_GATHER, get_backend


def gather_batch():
    bk = get_backend()
    table = bk.zeros((1000, 16), dtype=np.float32)
    indices = np.array([12, 0, 840])
    with bk.zone(ZONE_PS_GATHER):
        return bk.gather_rows(table, indices)
