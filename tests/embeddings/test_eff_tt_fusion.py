"""Fusion guard: the aggregated Eff-TT path never materialises a slice tensor.

Before the segment-GEMM kernels, one step of a rank-32 table gathered the
middle core's slices per unique row — ``(U, R, n, R)`` — twice, wrote a
per-row slice gradient of the same size, and re-sorted it in the fused
update.  These tests watch a step from the outside, through an
:class:`~repro.backend.Interposer` observer, and fail if any of that
comes back.
"""

import numpy as np
import pytest

from repro.backend import (
    ZONE_EFFTT_BACKWARD,
    ZONE_EFFTT_FORWARD,
    ZONE_FUSED_UPDATE,
    CostCounter,
    Interposer,
    NumpyBackend,
    Observer,
    use_backend,
)
from repro.embeddings.base import expand_bag_ids
from repro.embeddings.eff_tt_embedding import EffTTEmbeddingBag

ROWS, DIM, RANK, LOOKUPS = 20262, 64, 32, 2048
EFFTT_ZONES = (ZONE_EFFTT_FORWARD, ZONE_EFFTT_BACKWARD, ZONE_FUSED_UPDATE)
# efftt_backward + fused_update bytes of this exact step at the commit
# before the segment-GEMM kernels (CostCounter, same formulas for the
# ops both commits share).
PARENT_BACKWARD_PLUS_UPDATE_BYTES = 146_949_920


class ArraySizes(Observer):
    """Largest array any op read or produced, per kernel zone."""

    def __init__(self):
        self.largest = {}
        self.scatter_indices = []

    def _see(self, zone, op, arrays):
        for array in arrays:
            if isinstance(array, np.ndarray) and array.size > self.largest.get(
                zone, (0, "")
            )[0]:
                self.largest[zone] = (array.size, op)

    def before(self, zone, op, args):
        self._see(zone, op, args)
        if op == "scatter_add_rows":
            self.scatter_indices.append((zone, np.array(args[1])))

    def after(self, zone, op, args, out):
        self._see(zone, op, [out])


def _zipf_step(bag, sizes=None, counter=None):
    rng = np.random.default_rng(1234)
    idx = np.minimum(rng.zipf(1.2, size=LOOKUPS) - 1, ROWS - 1).astype(np.int64)
    observers = [ob for ob in (sizes, counter) if ob is not None]
    with use_backend(Interposer(observers=observers)):
        out = bag.forward(idx)
        bag.backward(rng.standard_normal(out.shape))
        bag.step(lr=0.05)
    return bag.last_plan


def test_no_op_touches_a_per_row_slice_tensor():
    bag = EffTTEmbeddingBag(ROWS, DIM, tt_rank=RANK, seed=3)
    sizes, counter = ArraySizes(), CostCounter()
    plan = _zipf_step(bag, sizes, counter)
    _, r_in, n_k, r_out = bag.tt.cores[1].shape
    assert (r_in, r_out) == (RANK, RANK)
    slice_tensor = plan.num_unique_rows * r_in * n_k * r_out
    assert plan.num_unique_rows > 300  # the guard is vacuous on a tiny U
    assert set(EFFTT_ZONES) <= set(sizes.largest)
    for zone in EFFTT_ZONES:
        size, op = sizes.largest[zone]
        assert size < slice_tensor, (
            f"{op} in {zone} moves {size} elements: a (U, R, n, R) slice "
            f"tensor ({slice_tensor}) is back"
        )
    moved = sum(
        counter.zone_stats[zone].bytes
        for zone in (ZONE_EFFTT_BACKWARD, ZONE_FUSED_UPDATE)
    )
    assert moved < PARENT_BACKWARD_PLUS_UPDATE_BYTES / 5


@pytest.mark.parametrize("fused", [True, False])
def test_each_index_list_is_sorted_once_per_step(fused):
    # With the groups on the plan nothing downstream has duplicates left
    # to find: every scatter the backward and the update issue is
    # already coalesced.
    bag = EffTTEmbeddingBag(ROWS, DIM, tt_rank=RANK, seed=3, enable_fused_update=fused)
    sizes = ArraySizes()
    _zipf_step(bag, sizes)
    assert sizes.scatter_indices
    for zone, indices in sizes.scatter_indices:
        assert np.unique(indices).size == indices.size, zone
        assert np.all(np.diff(indices) > 0), zone


def test_aggregation_equals_the_scatter_it_replaced():
    # Multi-hot bags, so the bag expansion is not the identity.
    bag = EffTTEmbeddingBag(ROWS, DIM, tt_rank=RANK, seed=3)
    rng = np.random.default_rng(8)
    idx = np.minimum(rng.zipf(1.2, size=LOOKUPS) - 1, ROWS - 1).astype(np.int64)
    boundaries = np.arange(0, LOOKUPS + 1, 4)
    out = bag.forward(idx, boundaries)
    plan = bag.last_plan
    grad = rng.standard_normal(out.shape)
    bag_ids = expand_bag_ids(boundaries)
    expected = np.zeros((plan.num_unique_rows, DIM))
    NumpyBackend().scatter_add_rows(expected, plan.row_inverse, grad[bag_ids])
    # Both sides sum each row's occurrences left to right in list order
    # (``RowGroups.sum_rows``), so they agree bit for bit.
    sorted_rows = bag._occurrence_grads(grad, bag_ids)
    np.testing.assert_array_equal(
        plan.occurrence_groups.laid_out().sum_rows(sorted_rows), expected
    )
