"""Extension: serving-time latency with the hot-row cache.

Training wants the TT form (small, updatable); serving wants latency.
Materializing the hot rows (paper Figure 4a: a few % of rows serve the
bulk of lookups) turns most serving lookups into plain gathers.  This
bench sweeps the cache coverage and reports measured lookup latency,
hit rate, and the memory the cache costs on top of the TT cores.
"""

from __future__ import annotations

import numpy as np
import pytest

from conftest import emit, run_once
from repro.bench.harness import format_table
from repro.data.synthetic import ZipfSampler
from repro.embeddings.eff_tt_embedding import EffTTEmbeddingBag
from repro.embeddings.inference import HotRowCachedLookup
from repro.utils.timer import measure_median

NUM_ROWS = 1_000_000
DIM = 32
TT_RANK = 32
BATCH = 4096
COVERAGES = (0.0, 0.001, 0.01, 0.05)


def _requests(num_batches=4):
    sampler = ZipfSampler(NUM_ROWS, alpha=1.05, seed=0)
    return [
        sampler.sample(BATCH, np.random.default_rng(i))
        for i in range(num_batches)
    ], sampler


def _hot_rows(sampler: ZipfSampler, coverage: float) -> np.ndarray:
    count = max(0, int(NUM_ROWS * coverage))
    if count == 0:
        return np.array([], dtype=np.int64)
    # the sampler knows its own popularity permutation
    return sampler._rank_to_row[:count]  # most popular rows


def _hit_rate(view: HotRowCachedLookup, batches) -> float:
    """Hot ids over all ids of the batches ``view`` served."""
    total = sum(batch.size for batch in batches)
    return sum(view.count_hot(batch) for batch in batches) / total


def build_serving_table() -> str:
    requests, sampler = _requests()
    bag = EffTTEmbeddingBag(NUM_ROWS, DIM, tt_rank=TT_RANK, seed=0)
    rows = []
    for coverage in COVERAGES:
        view = HotRowCachedLookup(bag, hot_rows=_hot_rows(sampler, coverage))
        served = []

        def serve():
            batch = requests[len(served) % len(requests)]
            view.lookup_rows(batch)
            served.append(batch)

        latency = measure_median(serve, repeats=3, warmup=1)
        rows.append(
            [
                f"{coverage:.3f}",
                view.num_hot_rows,
                f"{_hit_rate(view, served):.1%}",
                round(latency * 1e3, 2),
                f"{view.cache_nbytes / 1e6:.1f}",
            ]
        )
    return format_table(
        [
            "cache coverage",
            "hot rows",
            "hit rate",
            "lookup ms / 4K batch",
            "cache MB",
        ],
        rows,
        title=(
            "Serving: hot-row cache over the Eff-TT table "
            "(1M rows, Zipf 1.05 requests)"
        ),
    )


def test_serving_lookup_kernel(benchmark):
    requests, sampler = _requests()
    bag = EffTTEmbeddingBag(NUM_ROWS, DIM, tt_rank=TT_RANK, seed=0)
    view = HotRowCachedLookup(bag, hot_rows=_hot_rows(sampler, 0.01))
    state = {"i": 0}

    def serve():
        view.lookup_rows(requests[state["i"] % len(requests)])
        state["i"] += 1

    benchmark(serve)


def test_serving_shapes(benchmark):
    emit("inference_serving", run_once(benchmark, build_serving_table))
    requests, sampler = _requests()
    bag = EffTTEmbeddingBag(NUM_ROWS, DIM, tt_rank=TT_RANK, seed=0)
    cold = HotRowCachedLookup(bag, hot_rows=np.array([], dtype=np.int64))
    warm = HotRowCachedLookup(bag, hot_rows=_hot_rows(sampler, 0.05))
    for req in requests:
        cold.lookup_rows(req)
        warm.lookup_rows(req)
    # skew: a 5% cache serves the majority of requests
    assert _hit_rate(warm, requests) > 0.5
    assert _hit_rate(cold, requests) == 0.0
    # correctness: both serve identical values
    np.testing.assert_allclose(
        cold.lookup_rows(requests[0]),
        warm.lookup_rows(requests[0]),
        atol=1e-12,
    )


if __name__ == "__main__":
    print(build_serving_table())
