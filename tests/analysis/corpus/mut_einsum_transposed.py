"""Seeded mutation: transposed einsum subscripts in the TT chain.

The correct contraction is ``"lar,lrbs->labs"`` — the left partial
(L, a, R_in) contracts its rank axis against the *second* axis of the
gathered core slice (L, R_in, n, R_out).  The mutation swaps the core
term to ``"lsrb"``, contracting the rank against the column axis.
Expected: SHP003 einsum-dim.
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
        # MUTATION: "lrbs" -> "lsrb" (rank contracted against columns)
        return np.einsum("lar,lsrb->labs", left, core_slice)
