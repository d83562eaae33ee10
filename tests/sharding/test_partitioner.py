"""Mod-N row routing: layout, inverses, and order preservation."""

from __future__ import annotations

import numpy as np
import pytest

from repro.sharding import ShardPartitioner


@pytest.mark.parametrize("num_shards", [1, 2, 3, 8])
@pytest.mark.parametrize("num_rows", [0, 1, 7, 64, 1001])
def test_shard_rows_partition_the_table(num_shards, num_rows):
    part = ShardPartitioner(num_shards)
    per_shard = [part.shard_rows(num_rows, s) for s in range(num_shards)]
    assert sum(per_shard) == num_rows
    # Shard s of a table is its strided view table[s::N].
    table = np.zeros((num_rows, 2))
    assert [table[s::num_shards].shape[0] for s in range(num_shards)] == per_shard


def test_split_table_block_layout():
    """Row ``l`` of shard ``s``'s view ``table[s::N]`` is table row
    ``l*N + s``, the row :meth:`route` sends to ``(s, l)``."""
    part = ShardPartitioner(3)
    table = np.arange(14, dtype=np.float64).reshape(7, 2)
    blocks = [table[s::3] for s in range(3)]
    for s, block in enumerate(blocks):
        local = np.arange(block.shape[0])
        rows = part.to_global(s, local)
        assert np.array_equal(rows, local * 3 + s)
        shard_ids, back = part.route(rows)
        assert np.all(shard_ids == s) and np.array_equal(back, local)
        for l in local:
            assert np.array_equal(block[l], table[l * 3 + s])


def test_route_and_to_global_are_inverse():
    part = ShardPartitioner(4)
    rng = np.random.default_rng(0)
    idx = rng.integers(0, 1000, size=256)
    shard_ids, local = part.route(idx)
    assert np.all((0 <= shard_ids) & (shard_ids < 4))
    for s in range(4):
        mask = shard_ids == s
        back = part.to_global(s, local[mask])
        assert np.array_equal(back, idx[mask])


def test_route_preserves_sorted_order_within_shard():
    """Sorted globals restricted to one shard have sorted locals: a
    shard sees its rows of a gather in ascending order."""
    part = ShardPartitioner(5)
    unique = np.unique(np.random.default_rng(1).integers(0, 500, size=300))
    shard_ids, local = part.route(unique)
    for mask in part.shard_masks(shard_ids):
        locals_s = local[mask]
        assert np.all(np.diff(locals_s) > 0)


def test_invalid_arguments():
    with pytest.raises(ValueError):
        ShardPartitioner(0)
    part = ShardPartitioner(2)
    with pytest.raises(ValueError):
        part.shard_rows(10, 2)
    with pytest.raises(ValueError):
        part.to_global(-1, np.array([0]))
