"""REP008 mutant: a pragma names a rule no analyzer has (a retired one)."""

import numpy as np


def flat_core(core: np.ndarray) -> np.ndarray:
    r_prev, m_k, n_k, r_next = core.shape[1], core.shape[0], core.shape[2], core.shape[3]
    return core.transpose(1, 0, 2, 3).reshape(  # reprolint: disable=layout-churn
        r_prev, m_k * n_k, r_next
    )
