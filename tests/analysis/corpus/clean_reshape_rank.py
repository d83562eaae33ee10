"""Clean twin of mut_reshape_elements: the fold uses this stage's rank.

(64, 6) folds into (64, 2, 3): 2 cols x rank 3 = 6, 384 elements on
both sides.  Expected: no findings.
"""

import numpy as np

from repro.backend import ZONE_EFFTT_FORWARD, get_backend


def fold_partial():
    bk = get_backend()
    partial = bk.zeros((64, 6), dtype=np.float32)
    with bk.zone(ZONE_EFFTT_FORWARD):
        return partial.reshape(64, 2, 3)
