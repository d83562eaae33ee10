"""Clean twin of mut_scatter_shape: one 16-wide update row per index.

The (3, 16) update matrix matches three indices and the table's row
width.  Expected: no findings.
"""

import numpy as np

from repro.backend import ZONE_PS_APPLY, get_backend


def apply_sparse_update():
    bk = get_backend()
    table = bk.zeros((1000, 16), dtype=np.float32)
    indices = np.array([4, 9, 21])
    updates = bk.zeros((3, 16), dtype=np.float32)
    with bk.zone(ZONE_PS_APPLY):
        bk.scatter_add_rows(table, indices, updates)
