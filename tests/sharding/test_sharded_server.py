"""ShardedParameterServer: bitwise equal to a plain-numpy reference server.

:class:`ReferenceServer` is the whole data path with no sharding in it:
``spawn_rngs`` init, ``np.unique`` plus a fancy-index gather, and
``table[u] -= lr * g``.  The link compressors ride along when asked for,
so every compression mode has a reference too.  The server must match
it to the bit for any shard count; the shards only add accounting,
which is checked against the per-shard formula (rows routed to a shard
× that link's per-row bytes).
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sharding import (
    LinkCompressionConfig,
    PullQuantizer,
    ShardedParameterServer,
    TopKErrorFeedback,
)
from repro.system.parameter_server import PrefetchedRows
from repro.utils.rng import spawn_rngs

_ROWS = [97, 40]
_DIM = 4
_SEED = 3
#: Bytes per table value: the server's default dtype is float32.
_ITEM = 4


class ReferenceServer:
    """One plain table per server table; the oracle for every shard count."""

    def __init__(self, table_rows, dim, lr, seed, compression=None, dtype=np.float32):
        self.lr = lr
        self.tables = []
        for rows, rng in zip(table_rows, spawn_rngs(seed, len(table_rows))):
            bound = 1.0 / np.sqrt(rows)
            # drawn in float64, cast once
            self.tables.append(
                rng.uniform(-bound, bound, size=(rows, dim)).astype(dtype)
            )
        cfg = compression or LinkCompressionConfig()
        self.push = (
            TopKErrorFeedback(list(table_rows), dim, cfg.topk_fraction, dtype)
            if cfg.push_topk else None
        )
        self.pull = PullQuantizer(dim) if cfg.pull_quant else None
        self.update_count = 0
        self.sent = np.empty(0, dtype=np.int64)  # rows the last push sent

    def gather(self, t, indices):
        unique = np.unique(indices)
        rows = self.tables[t][unique]
        if self.pull is not None:
            rows = self.pull.apply(rows)
        return PrefetchedRows(table_idx=t, unique_indices=unique, rows=rows)

    def apply_gradients(self, t, unique, grads):
        grads = np.asarray(grads, dtype=self.tables[t].dtype)
        if self.push is not None:
            sent = self.push.compress(t, unique, grads)
            unique, grads = sent.unique_indices, sent.row_grads
        self.tables[t][unique] -= self.lr * grads
        self.update_count += 1
        self.sent = unique


def _servers(num_shards, compression=None):
    ref = ReferenceServer(_ROWS, _DIM, lr=0.05, seed=_SEED, compression=compression)
    sharded = ShardedParameterServer(
        _ROWS, _DIM, lr=0.05, num_shards=num_shards, seed=_SEED,
        compression=compression,
    )
    return ref, sharded


@pytest.mark.parametrize("num_shards", [1, 2, 8])
def test_init_matches_host_server_bitwise(num_shards):
    ref, sharded = _servers(num_shards)
    for t in range(len(_ROWS)):
        assert np.array_equal(sharded.tables[t], ref.tables[t])
        assert sharded.tables[t].flags.c_contiguous


@pytest.mark.parametrize("num_shards", [1, 2, 8])
def test_gather_apply_cycle_matches_host_bitwise(num_shards):
    ref, sharded = _servers(num_shards)
    rng = np.random.default_rng(0)
    for step in range(4):
        for t, rows in enumerate(_ROWS):
            idx = rng.integers(0, rows, size=16)
            a = ref.gather(t, idx)
            b = sharded.gather(t, idx)
            assert np.array_equal(a.unique_indices, b.unique_indices)
            assert np.array_equal(a.rows, b.rows)
            grads = rng.standard_normal((a.unique_indices.size, _DIM))
            ref.apply_gradients(t, a.unique_indices, grads)
            sharded.apply_gradients(t, b.unique_indices, grads)
    for t in range(len(_ROWS)):
        assert np.array_equal(sharded.tables[t], ref.tables[t])


def test_table_view_global_indexing():
    """``tables[t]`` is the whole table; shard ``s`` of it is the
    ``table{t}/shard{s}`` state array, the live view ``tables[t][s::N]``."""
    _, sharded = _servers(3)
    table = sharded.tables[0]
    assert table.shape == (_ROWS[0], _DIM)
    assert len(sharded.tables) == len(_ROWS)
    state = sharded.state_arrays()
    blocks = [state[f"table0/shard{s}"] for s in range(3)]
    assert [b.shape[0] for b in blocks] == [33, 32, 32]
    assert sum(b.nbytes for b in blocks) == table.nbytes
    for s, block in enumerate(blocks):
        for local in range(block.shape[0]):
            assert np.array_equal(block[local], table[local * 3 + s])
        assert np.shares_memory(block, table)


def test_exactly_once_accounting():
    _, sharded = _servers(2)
    # Rows 0 and 2 both live on shard 0; shard 1 receives nothing.
    sharded.apply_gradients(0, np.array([0, 2]), np.ones((2, _DIM)))
    assert sharded.update_count == 1
    assert sharded.shard_apply_counts.tolist() == [1, 0]
    sharded.apply_gradients(0, np.array([1, 2]), np.ones((2, _DIM)))
    assert sharded.update_count == 2
    assert sharded.shard_apply_counts.tolist() == [2, 1]


def test_link_stats_meter_uncompressed_traffic():
    _, sharded = _servers(2)
    sharded.gather(0, np.array([0, 1, 2, 3]))
    stats = sharded.link_stats
    row_bytes = _DIM * _ITEM + 8  # payload + row id
    assert stats.pull_raw.sum() == 4 * row_bytes
    assert np.array_equal(stats.pull_raw, stats.pull_wire)
    sharded.apply_gradients(0, np.arange(4), np.ones((4, _DIM)))
    assert stats.push_raw.sum() == 4 * row_bytes
    assert stats.compression_ratio == 1.0
    summary = stats.summary()
    assert summary["pull_raw_bytes"] == 4 * row_bytes


def test_compression_meters_wire_savings_and_bounded_error():
    ref, _ = _servers(2)
    _, sharded = _servers(
        2, compression=LinkCompressionConfig(mode="both", topk_fraction=0.5)
    )
    rng = np.random.default_rng(1)
    # First gather happens before any apply, so the only divergence
    # from the exact server is int8 rounding: <= scale/2 per element.
    idx = rng.integers(0, _ROWS[0], size=16)
    a = ref.gather(0, idx)
    b = sharded.gather(0, idx)
    scale = np.abs(a.rows).max(axis=1, keepdims=True) / 127.0
    assert np.all(np.abs(a.rows - b.rows) <= scale / 2 + 1e-12)
    # Keep training: top-k drops gradient mass into the residual, so
    # tables drift — but only within the banked-gradient envelope.
    grads = rng.standard_normal((a.unique_indices.size, _DIM))
    ref.apply_gradients(0, a.unique_indices, grads)
    sharded.apply_gradients(0, b.unique_indices, grads)
    for _ in range(2):
        idx = rng.integers(0, _ROWS[0], size=16)
        a = ref.gather(0, idx)
        b = sharded.gather(0, idx)
        grads = rng.standard_normal((a.unique_indices.size, _DIM))
        ref.apply_gradients(0, a.unique_indices, grads)
        sharded.apply_gradients(0, b.unique_indices, grads)
    stats = sharded.link_stats
    assert stats.total_wire < stats.total_raw
    assert stats.compression_ratio > 1.0
    assert np.allclose(sharded.tables[0], ref.tables[0], atol=0.5)


def test_state_roundtrip_including_ef_residuals():
    cfg = LinkCompressionConfig(mode="topk", topk_fraction=0.3)
    _, src = _servers(2, compression=cfg)
    rng = np.random.default_rng(2)
    for _ in range(3):
        idx = rng.integers(0, _ROWS[0], size=12)
        got = src.gather(0, idx)
        src.apply_gradients(
            0, got.unique_indices,
            rng.standard_normal((got.unique_indices.size, _DIM)),
        )
    state = {k: np.array(v, copy=True) for k, v in src.state_arrays().items()}
    assert "table0/shard0" in state and "ef0" in state

    _, dst = _servers(2, compression=cfg)
    dst.load_state_arrays(state)
    for k, v in dst.state_arrays().items():
        assert np.array_equal(v, state[k])
    for a, b in zip(src.tables, dst.tables):
        assert np.array_equal(a, b)


def test_load_state_arrays_validates_before_writing():
    cfg = LinkCompressionConfig(mode="topk", topk_fraction=0.3)
    _, sharded = _servers(2, compression=cfg)
    state = {k: np.array(v, copy=True) for k, v in sharded.state_arrays().items()}
    for key in state:
        state[key] += 1.0
    before = [table.copy() for table in sharded.tables]
    with pytest.raises(KeyError):
        sharded.load_state_arrays({"table0/shard0": state["table0/shard0"]})
    bad = dict(state)
    bad["table1/shard1"] = np.zeros((1, 1))
    with pytest.raises(ValueError):
        sharded.load_state_arrays(bad)
    # A bad residual is caught before any table is written.
    tables = {
        f"table{t}/shard{s}": table[s::2] + 1.0
        for t, table in enumerate(sharded.tables)
        for s in range(2)
    }
    with pytest.raises(ValueError):
        sharded.load_state_arrays(
            {**tables, "ef0": np.ones((_ROWS[0], _DIM)), "ef1": np.ones((1, 1))}
        )
    # Failed loads leave the server untouched, residuals included.
    for a, b in zip(sharded.tables, before):
        assert np.array_equal(a, b)
    assert not sharded.state_arrays()["ef0"].any()


def test_gather_validates_indices():
    _, sharded = _servers(2)
    with pytest.raises(ValueError):
        sharded.gather(0, np.array([_ROWS[0]]))
    with pytest.raises(ValueError):
        ShardedParameterServer(_ROWS, _DIM, lr=0.0, num_shards=2)


@pytest.mark.parametrize("num_shards", [1, 3, 8])
@pytest.mark.parametrize(
    "ids, grad_rows",
    [([0, -1], 2), ([0, _ROWS[0]], 2), ([0, 5], 3)],
    ids=["negative", "rows", "grad-shape"],
)
def test_apply_gradients_validates_before_writing(num_shards, ids, grad_rows):
    _, sharded = _servers(num_shards)
    before = [table.copy() for table in sharded.tables]
    with pytest.raises(ValueError):
        sharded.apply_gradients(0, np.array(ids), np.ones((grad_rows, _DIM)))
    for a, b in zip(sharded.tables, before):
        assert np.array_equal(a, b)
    assert sharded.update_count == 0
    assert not sharded.shard_apply_counts.any()
    assert sharded.link_stats.total_raw == 0


def test_nbytes_matches_host():
    ref, sharded = _servers(4)
    assert sharded.nbytes() == sum(table.nbytes for table in ref.tables)
    assert sharded.num_tables == len(ref.tables)


_MODES = {
    "none": None,
    "quant": LinkCompressionConfig(mode="quant"),
    "topk": LinkCompressionConfig(mode="topk", topk_fraction=0.3),
    "both": LinkCompressionConfig(mode="both", topk_fraction=0.5),
}
_steps = st.lists(
    st.tuples(
        st.integers(0, len(_ROWS) - 1),
        st.lists(st.integers(0, min(_ROWS) - 1), max_size=24),
    ),
    min_size=1,
    max_size=6,
)


@given(
    num_shards=st.integers(1, 8),
    mode=st.sampled_from(sorted(_MODES)),
    steps=_steps,
    seed=st.integers(0, 2**16),
)
@settings(max_examples=120, deadline=None)
def test_server_is_the_reference_plus_per_shard_accounting(
    num_shards, mode, steps, seed
):
    ref, sharded = _servers(num_shards, compression=_MODES[mode])
    cfg = sharded.compression
    rng = np.random.default_rng(seed)
    row = _DIM * _ITEM + 8
    pull_row = (_DIM + _ITEM if cfg.pull_quant else _DIM * _ITEM) + 8
    expected = {name: np.zeros(num_shards, dtype=np.int64)
                for name in ("pull_raw", "pull_wire", "push_raw", "push_wire")}
    applies = np.zeros(num_shards, dtype=np.int64)

    def per_shard(ids):
        return np.bincount(np.asarray(ids) % num_shards, minlength=num_shards)

    for t, ids in steps:
        idx = np.array(ids, dtype=np.int64)
        a = ref.gather(t, idx)
        b = sharded.gather(t, idx)
        assert np.array_equal(a.unique_indices, b.unique_indices)
        assert np.array_equal(a.rows, b.rows)
        expected["pull_raw"] += per_shard(a.unique_indices) * row
        expected["pull_wire"] += per_shard(a.unique_indices) * pull_row

        grads = rng.standard_normal((a.unique_indices.size, _DIM))
        ref.apply_gradients(t, a.unique_indices, grads)
        sharded.apply_gradients(t, b.unique_indices, grads)
        expected["push_raw"] += per_shard(a.unique_indices) * row
        expected["push_wire"] += per_shard(ref.sent) * row
        applies += per_shard(ref.sent) > 0

    state = sharded.state_arrays()
    for t, table in enumerate(ref.tables):
        assert np.array_equal(sharded.tables[t], table)
        for s in range(num_shards):
            assert np.array_equal(state[f"table{t}/shard{s}"], table[s::num_shards])
    for name, want in expected.items():
        assert np.array_equal(getattr(sharded.link_stats, name), want), name
    assert np.array_equal(sharded.shard_apply_counts, applies)
    assert sharded.update_count == ref.update_count == len(steps)
