"""REP008 clean twin: each pragma names a lint or detcheck rule, by name or id."""

import numpy as np


def flat_core(core: np.ndarray) -> np.ndarray:
    r_prev, m_k, n_k, r_next = core.shape[1], core.shape[0], core.shape[2], core.shape[3]
    out = np.zeros((r_prev, m_k * n_k, r_next))  # reprolint: disable=implicit-dtype,DET001
    out[...] = core.transpose(1, 0, 2, 3).reshape(r_prev, m_k * n_k, r_next)
    return out  # reprolint: disable=all
