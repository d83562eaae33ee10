"""Seeded mutation: einsum term dropped the rank dimension.

The left partial of the TT chain is rank-3 — (L, cols_so_far, R_k) —
but the mutated subscript names only ``"la"``, silently treating the
partial as if the rank axis had already been contracted away.
Expected: SHP002 einsum-rank.
"""

import numpy as np

from repro.backend import ZONE_TT_FORWARD, get_backend
from repro.embeddings.tt_core import TTCores, TTSpec


def chain_first_hop():
    spec = TTSpec((4, 5, 6), (2, 2, 1), (1, 3, 3, 1))
    tt = TTCores.random_init(spec, seed=0, dtype=np.float32)
    cores = tt.cores
    idx = np.array([0, 1, 2])
    bk = get_backend()
    with bk.zone(ZONE_TT_FORWARD):
        left = bk.gather_rows(cores[0], idx).reshape(3, 2, 3)
        core_slice = bk.gather_rows(cores[1], idx)
        # MUTATION: "lar" -> "la" (rank axis dropped from the term)
        return np.einsum("la,lrbs->labs", left, core_slice)
