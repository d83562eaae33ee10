"""Clean twin of mut_float64_literal: the fused-update zone stays float32.

Both buffers are allocated float32 inside the zone, so the zone holds
one concrete float dtype.  Expected: no findings.
"""

import numpy as np

from repro.backend import ZONE_FUSED_UPDATE, get_backend


def fused_update():
    bk = get_backend()
    with bk.zone(ZONE_FUSED_UPDATE):
        grad = bk.zeros((128, 16), dtype=np.float32)
        velocity = bk.zeros((128, 16), dtype=np.float32)
        return grad + velocity
