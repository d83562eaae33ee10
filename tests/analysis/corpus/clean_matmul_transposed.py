"""Clean twin of mut_matmul_inner: the MLP multiplies by ``weight.T``.

(64, 16) @ (16, 32): the inner dimensions agree.
Expected: no findings.
"""

import numpy as np

from repro.backend import ZONE_MLP, get_backend


def forward():
    bk = get_backend()
    inputs = bk.zeros((64, 16), dtype=np.float32)
    weight = bk.zeros((32, 16), dtype=np.float32)
    with bk.zone(ZONE_MLP):
        return bk.matmul(inputs, weight.T)
