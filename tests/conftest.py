"""Shared fixtures and numerical-gradient helpers for the test suite."""

from __future__ import annotations

from typing import Callable, Iterable

import numpy as np
import pytest


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(12345)


def numerical_gradient(
    fn: Callable[[np.ndarray], float],
    x: np.ndarray,
    eps: float = 1e-6,
) -> np.ndarray:
    """Central finite-difference gradient of a scalar function."""
    x = np.asarray(x, dtype=np.float64)
    grad = np.zeros_like(x)
    flat = x.reshape(-1)
    gflat = grad.reshape(-1)
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + eps
        f_plus = fn(x)
        flat[i] = orig - eps
        f_minus = fn(x)
        flat[i] = orig
        gflat[i] = (f_plus - f_minus) / (2.0 * eps)
    return grad


def assert_grad_close(
    analytic: np.ndarray,
    numeric: np.ndarray,
    rtol: float = 1e-5,
    atol: float = 1e-7,
) -> None:
    np.testing.assert_allclose(analytic, numeric, rtol=rtol, atol=atol)


def all_tt_model(config, seed=0):
    """``config``'s model with *every* table Eff-TT, however few its rows.

    ``DLRM(config)`` keeps a table dense when TT would not shrink it;
    the all-TT model is an explicit plan — the paper's threshold rule at
    0 rows — built from the same per-table seeds.
    """
    from repro.embeddings.planner import build_bags, plan_hbm_pack
    from repro.models.dlrm import DLRM, table_seeds
    from repro.reorder.stats import analytic_table_stats

    plan = plan_hbm_pack(
        analytic_table_stats(config.table_rows),
        config.embedding_dim,
        budget_bytes=1 << 62,
        tt_rank=config.tt_rank,
        tt_threshold_rows=0,
    )
    bags = build_bags(plan, table_seeds(seed, config.num_tables), config.dtype)
    return DLRM(config, seed=seed, embedding_bags=bags)


def record_cold(view):
    """The ids a ``HotRowCachedLookup`` rebuilds, as lookups run.

    Plain ids for a single-table lookup, ``(slot, id)`` pairs otherwise.
    """
    rebuilt = []
    rebuild = view._cold_rows

    def recording(slots, idx):
        if view.num_tables == 1:
            rebuilt.extend(idx.tolist())
        else:
            rebuilt.extend(zip(slots.tolist(), idx.tolist()))
        return rebuild(slots, idx)

    view._cold_rows = recording
    return rebuilt


def make_request(request_id, arrival_time, dense, bags):
    """An ``InferenceRequest`` holding ``bags`` (one id array per table)."""
    from repro.serving.requests import InferenceRequest

    per_table = [np.asarray(bag, dtype=np.int64).reshape(-1) for bag in bags]
    ids = np.concatenate(per_table)
    sizes = np.array([bag.size for bag in per_table], dtype=np.int64)
    ids.setflags(write=False)
    sizes.setflags(write=False)
    return InferenceRequest(request_id, arrival_time, np.asarray(dense), ids, sizes)
