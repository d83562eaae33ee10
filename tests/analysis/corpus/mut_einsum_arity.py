"""Seeded mutation: einsum signature names fewer terms than operands.

A two-term pairwise-interaction signature is called with three
operands — the kind of bug a refactor leaves behind when a fused
three-way contraction is split.  Expected: SHP001 einsum-subscripts.
"""

import numpy as np

from repro.backend import ZONE_INTERACTION, get_backend


def pairwise_scores():
    bk = get_backend()
    emb_a = bk.zeros((16, 4, 8), dtype=np.float32)
    emb_b = bk.zeros((16, 4, 8), dtype=np.float32)
    weights = bk.zeros((16, 4, 4), dtype=np.float32)
    with bk.zone(ZONE_INTERACTION):
        # MUTATION: the weights operand has no subscript term
        return np.einsum("bfd,bgd->bfg", emb_a, emb_b, weights)
