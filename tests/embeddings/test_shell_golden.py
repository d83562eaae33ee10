"""Bit-preservation gate for the shared sum-pooling shell and its codecs.

``golden_shell_parent.json`` holds what the tree *before* the shell
refactor (the six hand-rolled bags) produced for :func:`compute_golden`:
the loss of every step of a short ``DLRM.train_step`` run, the ``fsum``
of every ``state_arrays()`` entry afterwards, and the instrumented
backend's per-zone and per-(zone, op) calls/flops/bytes — for every
strategy, Eff-TT under all eight toggle combinations and ``adagrad``,
at float64 and float32.  That file is frozen, and since two kernels
left its bits it is the *numerical* reference (DESIGN.md §8):

* the interaction layer runs on per-sample BLAS GEMMs, so every case's
  losses and state sums are held to ``rtol`` 1e-12 (float64) / 1e-5
  (float32) of the parent's, and the ``interaction`` zone's rows differ
  (``matmul`` where the parent has ``einsum`` + a ``zeros``);
* Eff-TT with reuse or aggregation on runs on the segment-GEMM kernels
  (``gather_matmul`` / ``matmul_segment_sum``), whose zone rows differ
  too.

* ``ReLU`` is a ``maximum`` forward and a mask ``multiply`` backward
  where the parent has two ``where`` calls: the ``mlp`` zone's total is
  the parent's, its per-op rows are not.

Everything else — every non-interaction zone of dense, TT-Rec, hash,
ROBE, PQ and Eff-TT with reuse and aggregation both off — must still
issue exactly the parent's backend calls, FLOPs and bytes.
``golden_shell_current.json`` pins today's values for every case
exactly: run to run the tree is bitwise.

Regenerate the second file (only from a tree whose numerics are the
reference, and only when a kernel's arithmetic is meant to change; the
parent file is never rewritten)::

    PYTHONPATH=src python tests/embeddings/test_shell_golden.py
"""

import itertools
import json
import math
from pathlib import Path

import numpy as np
import pytest

from repro.backend import (
    ZONE_INTERACTION,
    ZONE_MLP,
    InstrumentedBackend,
    use_backend,
)
from repro.data.dataloader import Batch
from repro.embeddings.dense import DenseEmbeddingBag
from repro.embeddings.eff_tt_embedding import EffTTEmbeddingBag
from repro.embeddings.hash_embedding import HashEmbeddingBag
from repro.embeddings.pq_embedding import PQEmbeddingBag
from repro.embeddings.robe_embedding import RobeEmbeddingBag
from repro.embeddings.tt_embedding import TTEmbeddingBag
from repro.models.config import DLRMConfig, EmbeddingBackend
from repro.models.dlrm import DLRM

PARENT_GOLDEN_PATH = Path(__file__).with_name("golden_shell_parent.json")
CURRENT_GOLDEN_PATH = Path(__file__).with_name("golden_shell_current.json")
PARENT_RTOL = {"float64": 1e-12, "float32": 1e-5}

TABLE_ROWS = (40, 150, 300)
DIM = 8
NUM_DENSE = 4
BATCH_SIZE = 6
STEPS = 3
LR = 0.1


def _eff_tt(reuse, aggregate, fused, optimizer="sgd"):
    def build(rows, dtype, seed):
        return EffTTEmbeddingBag(
            rows, DIM, tt_rank=4, seed=seed, dtype=dtype,
            enable_reuse=reuse, enable_grad_aggregation=aggregate,
            enable_fused_update=fused, optimizer=optimizer,
        )

    return build


CASES = {
    "dense": lambda rows, dtype, seed: DenseEmbeddingBag(
        rows, DIM, seed=seed, dtype=dtype
    ),
    "tt": lambda rows, dtype, seed: TTEmbeddingBag(
        rows, DIM, tt_rank=4, seed=seed, dtype=dtype
    ),
    "hash": lambda rows, dtype, seed: HashEmbeddingBag(
        rows, DIM, seed=seed, dtype=dtype
    ),
    "robe": lambda rows, dtype, seed: RobeEmbeddingBag(
        rows, DIM, chunk_size=4, seed=seed, dtype=dtype
    ),
    "pq": lambda rows, dtype, seed: PQEmbeddingBag(
        rows, DIM, seed=seed, dtype=dtype
    ),
    "eff_tt_adagrad": _eff_tt(True, True, True, optimizer="adagrad"),
    "eff_tt_adagrad_dense_update": _eff_tt(
        True, True, False, optimizer="adagrad"
    ),
}
for _r, _g, _f in itertools.product((True, False), repeat=3):
    CASES[f"eff_tt_reuse{int(_r)}_agg{int(_g)}_fused{int(_f)}"] = _eff_tt(
        _r, _g, _f
    )


def make_batches():
    """Multi-hot batches: duplicates within and across bags, empty bags."""
    rng = np.random.default_rng(2024)
    batches = []
    for step in range(STEPS):
        indices, offsets = [], []
        for rows in TABLE_ROWS:
            lengths = rng.integers(0, 4, size=BATCH_SIZE)
            lengths[step % BATCH_SIZE] = 0  # always one empty bag
            total = int(lengths.sum())
            # a small id range forces repeats inside and across bags
            idx = rng.integers(0, min(rows, 9), size=total).astype(np.int64)
            indices.append(idx)
            offsets.append(
                np.concatenate([[0], np.cumsum(lengths)]).astype(np.int64)
            )
        batches.append(
            Batch(
                dense=rng.standard_normal((BATCH_SIZE, NUM_DENSE)),
                sparse_indices=indices,
                sparse_offsets=offsets,
                labels=rng.integers(0, 2, size=BATCH_SIZE).astype(np.float64),
                batch_id=step,
            )
        )
    return batches


def run_case(name, dtype):
    cfg = DLRMConfig(
        num_dense=NUM_DENSE, table_rows=TABLE_ROWS, embedding_dim=DIM,
        bottom_mlp=(16,), top_mlp=(16,), backend=EmbeddingBackend.DENSE,
        dtype=np.float64,  # the goldens' model: only the bags vary in dtype
    )
    bags = [
        CASES[name](rows, dtype, 10 + t) for t, rows in enumerate(TABLE_ROWS)
    ]
    model = DLRM(cfg, seed=3, embedding_bags=bags)
    backend = InstrumentedBackend()
    with use_backend(backend):
        losses = [model.train_step(b, lr=LR).loss for b in make_batches()]
    state = {
        f"bag{t}/{key}": math.fsum(
            np.asarray(value, dtype=np.float64).reshape(-1).tolist()
        )
        for t, bag in enumerate(model.embedding_bags)
        for key, value in sorted(bag.state_arrays().items())
    }
    zones = {
        zone: [s.calls, s.flops, s.bytes]
        for zone, s in sorted(backend.zone_stats.items())
    }
    ops = {
        f"{zone}/{op}": [s.calls, s.flops, s.bytes]
        for (zone, op), s in sorted(backend.op_stats.items())
    }
    return {"losses": losses, "state": state, "zones": zones, "ops": ops}


def on_segment_gemm(name):
    """Eff-TT with reuse or aggregation on: its kernel zones left the parent's rows."""
    return name.startswith("eff_tt") and "reuse0_agg0" not in name


def compute_golden():
    return {
        f"{name}/{np.dtype(dtype).name}": run_case(name, dtype)
        for name in sorted(CASES)
        for dtype in (np.float64, np.float32)
    }


def _golden(path):
    return json.loads(path.read_text())


def _parent_rows(table, rows):
    """The rows the parent still pins: per-zone totals off the interaction,
    per-op rows off the interaction and the ``mlp`` zone (ReLU's two
    ``where`` calls became a ``maximum`` and a ``multiply`` of the same
    cost, so that zone's total is the parent's and its op rows are not)."""
    moved = {ZONE_INTERACTION, ZONE_MLP} if table == "ops" else {ZONE_INTERACTION}
    return {
        key: value for key, value in rows.items() if key.split("/")[0] not in moved
    }


@pytest.mark.parametrize("dtype", ["float64", "float32"])
@pytest.mark.parametrize("name", sorted(CASES))
def test_matches_parent_bitwise(name, dtype):
    parent = _golden(PARENT_GOLDEN_PATH)[f"{name}/{dtype}"]
    actual = run_case(name, np.dtype(dtype).type)
    rtol = PARENT_RTOL[dtype]
    np.testing.assert_allclose(actual["losses"], parent["losses"], rtol=rtol)
    assert actual["state"].keys() == parent["state"].keys()
    for key, value in actual["state"].items():
        np.testing.assert_allclose(
            value, parent["state"][key], rtol=rtol, err_msg=key
        )
    if not on_segment_gemm(name):
        for table in ("zones", "ops"):
            assert _parent_rows(table, actual[table]) == _parent_rows(
                table, parent[table]
            )
    assert actual == _golden(CURRENT_GOLDEN_PATH)[f"{name}/{dtype}"]


def test_interaction_rows_are_the_parents_flops():
    """The parent's einsum multiply-adds less the self and mirrored pairs
    the forward no longer forms: ``(F-1)^2`` dot products, not ``F^2``."""
    parent = _golden(PARENT_GOLDEN_PATH)
    features = len(TABLE_ROWS) + 1
    skipped = STEPS * 2 * BATCH_SIZE * DIM * (features**2 - (features - 1) ** 2)
    for key, pinned in _golden(CURRENT_GOLDEN_PATH).items():
        assert pinned["zones"][ZONE_INTERACTION][1] == (
            parent[key]["zones"][ZONE_INTERACTION][1] - skipped
        )
        interaction_ops = {
            op.split("/")[1] for op in pinned["ops"] if op.startswith("interaction/")
        }
        assert interaction_ops == {"matmul"}


def test_golden_covers_every_case():
    every = {
        f"{name}/{dtype}" for name in CASES for dtype in ("float64", "float32")
    }
    assert set(_golden(PARENT_GOLDEN_PATH)) == every
    assert set(_golden(CURRENT_GOLDEN_PATH)) == every


if __name__ == "__main__":
    CURRENT_GOLDEN_PATH.write_text(
        json.dumps(compute_golden(), indent=1, sort_keys=True) + "\n"
    )
