"""Insertion-order invariance regressions for the detcheck self-fixes.

Each test permutes an input ordering that *used* to leak into an
artifact — placement plans, measured table statistics, checkpoint
payload bytes, framework time totals — and asserts the artifact is
bitwise identical regardless.  These pin the canonicalization fixes
(sorted iteration, ``np.bincount``, ``math.fsum``) that make detcheck's
DET002/DET003 rules pass on the shipped tree.
"""

import hashlib
import random

import numpy as np

from repro.embeddings.planner import plan_fixed_fraction
from repro.frameworks.base import TimeBreakdown
from repro.models.config import DLRMConfig
from repro.models.dlrm import DLRM
from repro.models.serialization import save_checkpoint
from repro.reorder.stats import TableStats, measure_table_stats
from repro.resilience.checkpoint import CheckpointStore

_BUDGET = 1 << 20  # 1 MiB device budget: forces a mix of placements


def _stats_pool():
    rows = [64, 512, 4096, 50_000, 200_000, 1_000_000]
    alphas = [0.0, 0.4, 0.8, 1.05, 1.2, 0.6]
    return [
        TableStats.from_spec(t, n, a)
        for t, (n, a) in enumerate(zip(rows, alphas))
    ]


def test_placement_plan_insertion_order_invariant():
    stats = _stats_pool()
    baseline = plan_fixed_fraction(stats, 16, _BUDGET, num_devices=4)
    assert len({t.kind for t in baseline.tables}) > 1  # a mix, as sized

    rng = random.Random(13)
    for _ in range(5):
        shuffled = list(stats)
        rng.shuffle(shuffled)
        # Decisions are per-table pure functions of the stats and the
        # plan lists them in table order: any ordering, the same plan.
        assert plan_fixed_fraction(
            shuffled, 16, _BUDGET, num_devices=4
        ) == baseline


def test_measured_table_stats_stream_order_invariant():
    rng = np.random.default_rng(7)
    num_rows = 1000
    stream = rng.zipf(1.3, size=5000) % num_rows
    baseline = measure_table_stats(stream, num_rows, table_idx=3)

    for seed in range(4):
        perm = np.random.default_rng(seed).permutation(stream.size)
        permuted = measure_table_stats(stream[perm], num_rows, table_idx=3)
        # Frozen-dataclass equality compares every float field exactly:
        # the histogram path (np.bincount) ignores stream order.
        assert permuted == baseline


def _arrays_fixture():
    rng = np.random.default_rng(11)
    return {
        f"bag{t}/weight": rng.standard_normal((8, 4))
        for t in range(5)
    } | {"mlp/top0": rng.standard_normal((4, 4)), "step": np.array([17])}


def test_checkpoint_payload_bytes_insertion_order_invariant(tmp_path):
    arrays = _arrays_fixture()
    names = list(arrays)

    digests = set()
    for seed in range(3):
        order = list(names)
        random.Random(seed).shuffle(order)
        store = CheckpointStore(str(tmp_path / f"store{seed}"), keep_last=2)
        assert store.save(42, {name: arrays[name] for name in order})
        blob = (tmp_path / f"store{seed}" / "ckpt-00000042.npz").read_bytes()
        digests.add(hashlib.sha256(blob).hexdigest())
    assert len(digests) == 1, "payload bytes leaked dict insertion order"


def test_model_checkpoint_bytes_stable(tmp_path):
    cfg = DLRMConfig(
        num_dense=4,
        table_rows=(64, 128),
        embedding_dim=8,
        bottom_mlp=(8,),
        top_mlp=(8,),
    )
    paths = []
    for i in range(2):
        model = DLRM(cfg, seed=5)
        path = tmp_path / f"model{i}.npz"
        save_checkpoint(model, str(path))
        paths.append(path.read_bytes())
    assert paths[0] == paths[1]


def test_time_breakdown_total_insertion_order_invariant():
    # Naive left-to-right float addition gives 0.0 or 1.0 for these
    # components depending on insertion order; math.fsum gives the
    # correctly rounded 2.0 from every order.
    parts = {"fwd": 1.0, "spike": 1e100, "bwd": 1.0, "dip": -1e100}
    totals = set()
    for seed in range(6):
        order = list(parts)
        random.Random(seed).shuffle(order)
        tb = TimeBreakdown(
            framework="el-rec",
            device="v100",
            num_gpus=1,
            components={k: parts[k] for k in order},
        )
        totals.add(tb.total)
    assert totals == {2.0}
