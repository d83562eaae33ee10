"""Writes the checkpoint compatibility corpus in this directory.

Run once, from the commit *before* the embedding-shell refactor (PR 13,
82ce483), so every archive here is parent-written::

    PYTHONPATH=src python tests/models/fixtures/make_fixtures.py

``v4_all_kinds.npz`` is that commit's ``save_checkpoint`` output for a
model holding one bag of every kind.  The older formats are the same
writer's output downgraded the way those formats differed: v3 = v4
layout for dense/TT bags (version number, no ``compress_rate`` in the
config); v2 = v3 without the ``__crc__`` manifest; v1 = v2 without the
``bag{t}/kind`` tags (bag types come from the config's threshold rule).
``expected.json`` records, per archive, what that commit's
``load_checkpoint`` -> ``save_checkpoint`` wrote back (the ``__crc__``
manifest: a CRC32 of every entry) and the restored model's logits on
:func:`probe_batch`.

The two ``*_efftt_small`` archives were written later, from 8ff0949 —
the last commit whose ``backend=EFF_TT`` config built a TT bag for
every table, however few its rows::

    PYTHONPATH=src python tests/models/fixtures/make_fixtures.py \
        v1_config_efftt_small v2_config_efftt_small

(names on the command line write only those archives and merge their
``expected.json`` entries).  Their 3-, 11- and 17-row Eff-TT tables are
larger than the dense tables, so the footprint rule would now keep them
dense: a v1 file must load by what it stores, not by today's rule.
"""

import io
import json
import sys
from pathlib import Path

import numpy as np

from repro.data.dataloader import Batch
from repro.embeddings.dense import DenseEmbeddingBag
from repro.embeddings.eff_tt_embedding import EffTTEmbeddingBag
from repro.embeddings.hash_embedding import HashEmbeddingBag
from repro.embeddings.pq_embedding import PQEmbeddingBag
from repro.embeddings.robe_embedding import RobeEmbeddingBag
from repro.embeddings.tt_embedding import TTEmbeddingBag
from repro.models.config import DLRMConfig, EmbeddingBackend
from repro.models.dlrm import DLRM
from repro.models.serialization import (
    entry_crc32,
    load_checkpoint,
    save_checkpoint,
)

HERE = Path(__file__).parent
TABLE_ROWS = (30, 60, 90, 120, 150, 180)
#: the ``*_efftt_small`` archives: TT >= dense at 3, 11 and 17 rows (DIM, rank 4)
SMALL_ROWS = (3, 11, 17, 600)
DIM = 8


def probe_batch(seed=7, batch_size=5, table_rows=TABLE_ROWS):
    rng = np.random.default_rng(seed)
    lengths = rng.integers(0, 3, size=(len(table_rows), batch_size))
    return Batch(
        dense=rng.standard_normal((batch_size, 4)),
        sparse_indices=[
            rng.integers(0, rows, size=int(n.sum())).astype(np.int64)
            for rows, n in zip(table_rows, lengths)
        ],
        sparse_offsets=[
            np.concatenate([[0], np.cumsum(n)]).astype(np.int64)
            for n in lengths
        ],
        labels=rng.integers(0, 2, size=batch_size).astype(np.float64),
    )


def _config(backend, threshold=0, table_rows=TABLE_ROWS):
    return DLRMConfig(
        num_dense=4, table_rows=table_rows, embedding_dim=DIM,
        bottom_mlp=(8,), top_mlp=(8,), backend=backend, tt_rank=4,
        tt_threshold_rows=threshold,
    )


def _saved(model):
    rows = model.config.table_rows
    model.train_step(probe_batch(seed=1, table_rows=rows), lr=0.1)  # move off init
    buffer = io.BytesIO()
    save_checkpoint(model, buffer)
    with np.load(io.BytesIO(buffer.getvalue()), allow_pickle=True) as npz:
        return {name: npz[name] for name in npz.files}


def _downgrade(arrays, version):
    arrays = dict(arrays)
    del arrays["__crc__"]
    arrays["__meta__"] = np.array(
        [json.dumps({"version": version})], dtype=object
    )
    config = json.loads(str(arrays["__config__"][0]))
    del config["compress_rate"]
    arrays["__config__"] = np.array([json.dumps(config)], dtype=object)
    if version == 1:
        arrays = {k: v for k, v in arrays.items() if not k.endswith("/kind")}
    if version == 3:
        crc = {k: entry_crc32(v) for k, v in sorted(arrays.items())}
        arrays["__crc__"] = np.array([json.dumps(crc)], dtype=object)
    return arrays


def main(only=()):
    all_kinds = [
        DenseEmbeddingBag, TTEmbeddingBag, EffTTEmbeddingBag,
        HashEmbeddingBag, RobeEmbeddingBag, PQEmbeddingBag,
    ]
    tt_kinds = [DenseEmbeddingBag, TTEmbeddingBag, EffTTEmbeddingBag] * 2
    dense_cfg = _config(EmbeddingBackend.DENSE)

    def mixed(kinds):
        bags = [
            cls(rows, DIM, seed=50 + t)
            for t, (cls, rows) in enumerate(zip(kinds, TABLE_ROWS))
        ]
        return DLRM(dense_cfg, seed=2, embedding_bags=bags)

    corpus = {
        "v4_all_kinds": _saved(mixed(all_kinds)),
        "v3_dense_tt_efftt": _downgrade(_saved(mixed(tt_kinds)), 3),
        "v2_dense_tt_efftt": _downgrade(_saved(mixed(tt_kinds)), 2),
        # v1 has no kind tags: tables above the threshold take the
        # config's backend, the rest are dense.
        "v1_config_tt": _downgrade(
            _saved(DLRM(_config(EmbeddingBackend.TT, 100), seed=2)), 1
        ),
        "v1_config_efftt": _downgrade(
            _saved(DLRM(_config(EmbeddingBackend.EFF_TT, 100), seed=2)), 1
        ),
    }
    small = _saved(
        DLRM(_config(EmbeddingBackend.EFF_TT, table_rows=SMALL_ROWS), seed=2)
    )
    corpus["v1_config_efftt_small"] = _downgrade(small, 1)
    corpus["v2_config_efftt_small"] = _downgrade(small, 2)
    expected = {}
    if only:
        corpus = {name: corpus[name] for name in only}
        expected = json.loads((HERE / "expected.json").read_text())
    for name, arrays in sorted(corpus.items()):
        path = HERE / f"{name}.npz"
        np.savez_compressed(path, **arrays)
        model = load_checkpoint(str(path))
        buffer = io.BytesIO()
        save_checkpoint(model, buffer)
        with np.load(io.BytesIO(buffer.getvalue()), allow_pickle=True) as npz:
            crc = json.loads(str(npz["__crc__"][0]))
        expected[name] = {
            "resaved_crc": crc,
            "logits": model.forward(
                probe_batch(table_rows=model.config.table_rows)
            ).tolist(),
        }
    (HERE / "expected.json").write_text(
        json.dumps(expected, indent=1, sort_keys=True) + "\n"
    )


if __name__ == "__main__":
    main(sys.argv[1:])
