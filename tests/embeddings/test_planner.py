"""The bytes contract: a plan's bytes are the built bag's bytes."""

import pytest

from repro.embeddings.planner import SERVER_KIND, table_bytes
from repro.embeddings.registry import BAG_CLASSES, build_bag
from repro.system.parameter_server import HostBackedEmbeddingBag

#: Criteo-Kaggle cardinalities at scale 3e-5 (3 / 66 / 303) and full
#: scale (5,683 / 12,517): every one clamps a TT rank at 128, the small
#: ones at 8 already.
ROWS = (3, 66, 303, 5_683, 12_517)
DIM = 64

#: constructor keywords per kind, defaults first
PARAMS = {
    "dense": [{}],
    "tt": [{}] + [{"tt_rank": r} for r in (8, 32, 128)],
    "eff_tt": [{}] + [{"tt_rank": r} for r in (8, 32, 128)],
    "hash": [{}, {"compress_rate": 0.1}, {"num_buckets": 3}],
    "robe": [{}, {"compress_rate": 0.1}, {"array_size": 100}],
    "pq": [{}, {"num_subspaces": 2}, {"num_subspaces": 4, "num_codes": 3}],
}


def test_every_registered_kind_is_covered():
    assert sorted(PARAMS) == sorted(BAG_CLASSES)


@pytest.mark.parametrize("rows", ROWS)
@pytest.mark.parametrize("kind", sorted(BAG_CLASSES))
def test_table_bytes_is_the_built_bags_memory_bytes(kind, rows):
    for params in PARAMS[kind]:
        for dtype, dtype_bytes in (("float64", 8), ("float32", 4)):
            bag = build_bag(kind, rows, DIM, seed=0, dtype=dtype, **params)
            assert table_bytes(
                kind, rows, DIM, dtype_bytes, **params
            ) == bag.memory_bytes(), (params, dtype)


def test_rank_clamp_example_from_the_issue():
    # 3 rows, dim 64, rank 32: the unclamped (1, r, r, 1) formula the
    # sharded planner used to apply says 34,304 B at fp32; the bag holds
    # 1,344.
    assert table_bytes("eff_tt", 3, 64, tt_rank=32) == 1_344


def test_server_kind_is_the_host_views_kind():
    assert SERVER_KIND == HostBackedEmbeddingBag.kind
    assert SERVER_KIND not in BAG_CLASSES
