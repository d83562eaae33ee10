"""Link compression: error-feedback invariants and quantization bounds."""

from __future__ import annotations

import numpy as np
import pytest

from repro.sharding import (
    COMPRESSION_MODES,
    LinkCompressionConfig,
    PullQuantizer,
    ShardedParameterServer,
    TopKErrorFeedback,
)
from repro.sharding.compression import build_pull_quantizer, build_push_compressor

_ROWS = [50, 30]
_DIM = 4


def _grads(rng, n):
    """Row gradients as a float32 model pushes them (the residuals' dtype)."""
    return rng.standard_normal((n, _DIM)).astype(np.float32)


def test_config_modes_and_validation():
    assert LinkCompressionConfig().bitwise
    cfg = LinkCompressionConfig(mode="both", topk_fraction=0.25)
    assert cfg.push_topk and cfg.pull_quant and not cfg.bitwise
    assert set(COMPRESSION_MODES) == {"none", "topk", "quant", "both"}
    with pytest.raises(ValueError):
        LinkCompressionConfig(mode="zip")
    with pytest.raises(ValueError):
        LinkCompressionConfig(mode="topk", topk_fraction=0.0)
    with pytest.raises(ValueError):
        LinkCompressionConfig(mode="topk", topk_fraction=1.5)


def test_factories_gate_on_mode():
    off = LinkCompressionConfig()
    on = LinkCompressionConfig(mode="both")
    assert build_push_compressor(off, _ROWS, _DIM) is None
    assert build_pull_quantizer(off, _DIM) is None
    assert build_push_compressor(on, _ROWS, _DIM) is not None
    assert build_pull_quantizer(on, _DIM) is not None


def test_error_feedback_conserves_gradient_mass():
    """sent + residual_after == residual_before + grads, exactly.

    The EF invariant: nothing is lost, only delayed.  Holds bitwise
    because dropped rows are *moved* into the residual, not recomputed.
    """
    ef = TopKErrorFeedback(_ROWS, _DIM, fraction=0.3)
    rng = np.random.default_rng(0)
    for step in range(5):
        uidx = np.unique(rng.integers(0, _ROWS[0], size=20))
        grads = _grads(rng, uidx.size)
        before = ef.residuals[0].copy()
        sent = np.zeros_like(before)
        push = ef.compress(0, uidx, grads)
        sent[push.unique_indices] = push.row_grads
        after = ef.residuals[0]
        total = before.copy()
        total[uidx] += grads
        assert np.array_equal(sent + after, total)
        # Sent rows leave no residual behind.
        assert np.all(after[push.unique_indices] == 0.0)


def test_topk_selection_is_deterministic_and_sorted():
    ef1 = TopKErrorFeedback(_ROWS, _DIM, fraction=0.25)
    ef2 = TopKErrorFeedback(_ROWS, _DIM, fraction=0.25)
    rng = np.random.default_rng(1)
    uidx = np.unique(rng.integers(0, _ROWS[1], size=16))
    grads = _grads(rng, uidx.size)
    p1 = ef1.compress(1, uidx, grads)
    p2 = ef2.compress(1, uidx, grads)
    assert np.array_equal(p1.unique_indices, p2.unique_indices)
    assert np.array_equal(p1.row_grads, p2.row_grads)
    # Kept indices come back ascending (the PS apply contract).
    assert np.all(np.diff(p1.unique_indices) > 0)
    # ceil(fraction * n), at least one row.
    expected = max(1, int(np.ceil(0.25 * uidx.size)))
    assert p1.unique_indices.size == expected


def test_topk_keeps_largest_rows():
    ef = TopKErrorFeedback([10], _DIM, fraction=0.2)
    grads = np.ones((5, _DIM))
    grads[3] = 100.0  # dominant row
    push = ef.compress(0, np.arange(5), grads)
    assert push.unique_indices.size == 1
    assert push.unique_indices[0] == 3


def test_push_wire_byte_accounting():
    server = ShardedParameterServer(
        [100], _DIM, lr=0.1,
        compression=LinkCompressionConfig(mode="topk", topk_fraction=0.5),
    )
    server.apply_gradients(0, np.arange(10), np.ones((10, _DIM)))
    stats = server.link_stats
    row_bytes = _DIM * 4 + 8  # float32 payload + int64 row id
    assert stats.push_raw.tolist() == [10 * row_bytes]
    assert stats.push_wire.tolist() == [5 * row_bytes]  # ceil(0.5 * 10) sent


def test_ef_state_roundtrip_and_validation():
    ef = TopKErrorFeedback(_ROWS, _DIM, fraction=0.3)
    rng = np.random.default_rng(2)
    uidx = np.unique(rng.integers(0, _ROWS[0], size=12))
    ef.compress(0, uidx, _grads(rng, uidx.size))
    state = ef.state_arrays()
    assert set(state) == {"ef0", "ef1"}

    fresh = TopKErrorFeedback(_ROWS, _DIM, fraction=0.3)
    fresh.load_state_arrays({k: np.array(v, copy=True) for k, v in state.items()})
    for k in state:
        assert np.array_equal(fresh.state_arrays()[k], state[k])
    with pytest.raises(KeyError):
        fresh.load_state_arrays({"ef0": state["ef0"]})
    with pytest.raises(ValueError):
        fresh.load_state_arrays(
            {"ef0": state["ef0"], "ef1": np.zeros((1, 1))}
        )


def test_pull_quantizer_error_bound():
    """int8 symmetric rounding: per-element error <= scale / 2."""
    quant = PullQuantizer(_DIM)
    rng = np.random.default_rng(3)
    rows = rng.standard_normal((32, _DIM))
    out = quant.apply(rows)
    scale = np.abs(rows).max(axis=1, keepdims=True) / 127.0
    assert np.all(np.abs(out - rows) <= scale / 2 + 1e-12)
    assert out.dtype == np.float64  # the rows' own dtype
    assert quant.apply(rows.astype(np.float32)).dtype == np.float32
    server = ShardedParameterServer(
        [32], _DIM, lr=0.1, compression=LinkCompressionConfig(mode="quant")
    )
    server.gather(0, np.arange(32))
    stats = server.link_stats
    # float32 values (4 B each) or int8 values plus a float32 scale,
    # each with its int64 row id
    assert stats.pull_raw.tolist() == [32 * (_DIM * 4 + 8)]
    assert stats.pull_wire.tolist() == [32 * (_DIM * 1 + 4 + 8)]


def test_pull_quantizer_is_per_row():
    """A row quantizes to the same bits alone or inside any batch, so
    quantizing a whole gather equals quantizing it shard by shard."""
    quant = PullQuantizer(_DIM)
    rows = np.random.default_rng(4).standard_normal((17, _DIM))
    whole = quant.apply(rows)
    for r in range(rows.shape[0]):
        assert np.array_equal(quant.apply(rows[r : r + 1])[0], whole[r])


def test_pull_quantizer_zero_rows_pass_through():
    quant = PullQuantizer(_DIM)
    rows = np.zeros((3, _DIM))
    out = quant.apply(rows)
    assert np.array_equal(out, rows)
