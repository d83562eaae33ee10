"""Clean twin of mut_broadcast: both optimizer buffers are 16 wide.

The same elementwise update with the momentum buffer sized to the
gradient, so the concrete shapes (128, 16) + (128, 16) broadcast.
Expected: no findings.
"""

import numpy as np

from repro.backend import ZONE_OPTIMIZER, get_backend


def momentum_update():
    bk = get_backend()
    grad = bk.zeros((128, 16), dtype=np.float32)
    momentum = bk.zeros((128, 16), dtype=np.float32)
    with bk.zone(ZONE_OPTIMIZER):
        return grad + momentum
