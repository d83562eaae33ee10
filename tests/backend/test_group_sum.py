"""``RowGroups.sum_rows``: each group's rows added left to right.

The reference is a Python loop over every group's rows in list order,
one addition at a time, and the kernel must equal it bit for bit:
depth-wise rounds for groups of up to ``SUM_DEPTH`` rows, one
``np.add.reduce`` per longer group.  Against the sorted copy plus
``np.add.reduceat`` it replaced on the host path the sums agree to
rounding only: within 1e-5 (float32) / 1e-12 (float64) of the sum of
the magnitudes added.
"""

import numpy as np
import pytest

from repro.backend.groups import SUM_DEPTH, RowGroups, group_rows
from repro.embeddings.reuse_buffer import build_reuse_plan

RTOL = {np.float32: 1e-5, np.float64: 1e-12}


def loop_sum(indices, values):
    """Sum rows sharing an id, left to right, ids ascending."""
    out = []
    for row_id in np.unique(indices):
        rows = np.flatnonzero(indices == row_id)
        acc = values[rows[0]].copy()
        for r in rows[1:]:
            acc = acc + values[r]
        out.append(acc)
    return np.stack(out)


def reduceat_sum(indices, values):
    groups = group_rows(indices)
    return np.add.reduceat(values[groups.order], groups.starts, axis=0)


def _ids(rng, sizes):
    """Ids 0.. with the given group sizes, shuffled."""
    ids = np.repeat(np.arange(len(sizes)) * 3, sizes)
    return rng.permutation(ids)


CASES = {
    "singletons": [1] * 40,
    "up_to_depth": list(range(1, SUM_DEPTH + 1)) * 3,
    "depth_edges": [SUM_DEPTH - 1, SUM_DEPTH, SUM_DEPTH + 1, 1, 2],
    "hundreds": [300, 1, 7, 450, 2, 9, 128],
    "one_group": [257],
    "one_row": [1],
}


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("name", sorted(CASES))
def test_equals_left_to_right_loop_bitwise(name, dtype):
    rng = np.random.default_rng(sorted(CASES).index(name))
    ids = _ids(rng, CASES[name])
    values = rng.standard_normal((ids.size, 64)).astype(dtype)
    out = group_rows(ids, bound=ids.max() + 1).sum_rows(values)
    assert out.dtype == dtype
    assert np.array_equal(out, loop_sum(ids, values))
    # Relative to the magnitudes added: a sum that cancels to near zero
    # has no relative precision of its own.
    scale = loop_sum(ids, np.abs(values))
    assert np.all(
        np.abs(out - reduceat_sum(ids, values)) <= RTOL[dtype] * scale
    )


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_presorted_ids_read_in_place(dtype):
    rng = np.random.default_rng(7)
    ids = np.sort(_ids(rng, CASES["hundreds"] + CASES["up_to_depth"]))
    values = rng.standard_normal((ids.size, 16)).astype(dtype)
    groups = group_rows(ids)
    assert groups.presorted
    assert np.array_equal(groups.sum_rows(values), loop_sum(ids, values))


@pytest.mark.parametrize("width", [1, 2, 3])
def test_narrow_rows_still_sum_left_to_right(width):
    """numpy sums one column pairwise; a 1-wide row must not take that path."""
    rng = np.random.default_rng(width)
    ids = _ids(rng, [200, 3, SUM_DEPTH + 5])
    values = rng.standard_normal((ids.size, width)).astype(np.float32)
    out = group_rows(ids).sum_rows(values)
    assert np.array_equal(out, loop_sum(ids, values))
    flat = group_rows(ids).sum_rows(values[:, 0])
    assert flat.shape == (3,)
    assert np.array_equal(flat, loop_sum(ids, values[:, :1])[:, 0])


def test_trailing_shape_and_empty_list():
    rng = np.random.default_rng(3)
    ids = _ids(rng, [4, 12, 1])
    values = rng.standard_normal((ids.size, 2, 5))
    out = group_rows(ids).sum_rows(values)
    assert out.shape == (3, 2, 5)
    expected = loop_sum(ids, values.reshape(ids.size, 10)).reshape(3, 2, 5)
    assert np.array_equal(out, expected)
    empty = group_rows(np.empty(0, dtype=np.int64)).sum_rows(np.empty((0, 8)))
    assert empty.shape == (0, 8)


def test_strided_values_are_read_where_they_lie():
    """A host bag's gradient is a view into the interaction's stack."""
    rng = np.random.default_rng(11)
    ids = _ids(rng, CASES["hundreds"])
    stack = rng.standard_normal((ids.size, 5, 16)).astype(np.float32)
    view = stack[:, 2, :]
    assert not view.flags.c_contiguous
    out = group_rows(ids).sum_rows(view)
    assert np.array_equal(out, loop_sum(ids, np.ascontiguousarray(view)))


def record_loop_sum(groups, values):
    """Each group's rows in the order ``groups.order`` lists them, added
    left to right by a Python loop."""
    out = []
    bounds = groups.boundaries
    for j in range(groups.num_groups):
        rows = groups.order[bounds[j]:bounds[j + 1]]
        acc = values[rows[0]].copy()
        for r in rows[1:]:
            acc = acc + values[r]
        out.append(acc)
    return np.stack(out)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_any_order_and_group_ids_sum_left_to_right(dtype):
    """The ``ReusePlan.prefix_sum`` shape: ``order`` is no sort of the
    rows and the groups are not in id order."""
    rng = np.random.default_rng(5)
    sizes = np.array([3, SUM_DEPTH + 4, 1, 2, 40, SUM_DEPTH])
    order = rng.permutation(int(sizes.sum()))
    groups = RowGroups(
        order=order,
        ids=np.array([4, 0, 5, 2, 1, 3]),
        starts=np.cumsum(sizes) - sizes,
    )
    values = rng.standard_normal((order.size, 2, 32)).astype(dtype)
    out = groups.sum_rows(values)
    assert out.shape == (sizes.size, 2, 32)
    assert np.array_equal(out, record_loop_sum(groups, values))


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_reuse_plan_records_sum_left_to_right(dtype):
    rng = np.random.default_rng(6)
    row_shape = (12, 10, 9)
    idx = np.minimum(rng.zipf(1.2, size=3000) - 1, 12 * 10 * 9 - 1)
    plan = build_reuse_plan(idx, row_shape)
    prefix = plan.prefix_sum
    assert not np.all(np.diff(prefix.order) > 0)
    assert not np.all(np.diff(prefix.ids) > 0)
    for groups, count in (
        (prefix, plan.num_unique_rows),
        (plan.first_core_sum, plan.num_unique_prefixes),
    ):
        values = rng.standard_normal((count, 24)).astype(dtype)
        assert np.array_equal(
            groups.sum_rows(values), record_loop_sum(groups, values)
        )
