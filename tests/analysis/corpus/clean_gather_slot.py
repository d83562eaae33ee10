"""Clean twin of mut_gather_oob: the lookup uses cache slots.

Every index is a slot of the 256-row hot cache, not a raw row id.
Expected: no findings.
"""

import numpy as np

from repro.backend import ZONE_SERVING_LOOKUP, get_backend


def cached_lookup():
    bk = get_backend()
    hot_cache = bk.zeros((256, 16), dtype=np.float32)
    slots = np.array([3, 255, 17])
    with bk.zone(ZONE_SERVING_LOOKUP):
        return bk.gather_rows(hot_cache, slots)
