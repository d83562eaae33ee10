"""Tests for DLRM checkpointing."""

import io
import json
from pathlib import Path

import numpy as np
import pytest

from repro.data.dataloader import SyntheticClickLog
from repro.data.datasets import criteo_kaggle_like
from repro.embeddings.base import EmbeddingBagBase
from repro.models.config import DLRMConfig, EmbeddingBackend
from repro.models.dlrm import DLRM
from repro.models.serialization import (
    CheckpointCorruptError,
    load_checkpoint,
    save_checkpoint,
)
from repro.system.parameter_server import HostBackedEmbeddingBag


@pytest.fixture(scope="module")
def setup():
    spec = criteo_kaggle_like(scale=2e-5)
    log = SyntheticClickLog(spec, batch_size=64, seed=0)
    return spec, log


def _roundtrip(model: DLRM) -> DLRM:
    buffer = io.BytesIO()
    save_checkpoint(model, buffer)
    buffer.seek(0)
    return load_checkpoint(buffer)


@pytest.mark.parametrize(
    "backend",
    [
        EmbeddingBackend.DENSE,
        EmbeddingBackend.TT,
        EmbeddingBackend.EFF_TT,
        EmbeddingBackend.HASH,
        EmbeddingBackend.ROBE,
        EmbeddingBackend.PQ,
    ],
)
class TestRoundtrip:
    def test_parameters_identical(self, setup, backend):
        spec, log = setup
        cfg = DLRMConfig.from_dataset(
            spec, embedding_dim=8, backend=backend, tt_rank=8,
            bottom_mlp=(16,), top_mlp=(16,),
        )
        model = DLRM(cfg, seed=4)
        model.train_step(log.batch(0), lr=0.1)  # move off init
        restored = _roundtrip(model)
        for (n1, p1), (n2, p2) in zip(
            model.named_parameters(), restored.named_parameters()
        ):
            assert n1 == n2
            np.testing.assert_array_equal(p1.data, p2.data)

    def test_predictions_identical(self, setup, backend):
        spec, log = setup
        cfg = DLRMConfig.from_dataset(
            spec, embedding_dim=8, backend=backend, tt_rank=8,
            bottom_mlp=(16,), top_mlp=(16,),
        )
        model = DLRM(cfg, seed=4)
        model.train_step(log.batch(0), lr=0.1)
        restored = _roundtrip(model)
        batch = log.batch(5)
        np.testing.assert_array_equal(
            model.forward(batch), restored.forward(batch)
        )

    def test_training_continues_identically(self, setup, backend):
        spec, log = setup
        cfg = DLRMConfig.from_dataset(
            spec, embedding_dim=8, backend=backend, tt_rank=8,
            bottom_mlp=(16,), top_mlp=(16,),
        )
        model = DLRM(cfg, seed=4)
        model.train_step(log.batch(0), lr=0.1)
        restored = _roundtrip(model)
        a = model.train_step(log.batch(1), lr=0.1).loss
        b = restored.train_step(log.batch(1), lr=0.1).loss
        assert a == b


class TestErrors:
    def test_host_backed_bag_rejected(self, setup):
        spec, _ = setup
        cfg = DLRMConfig.from_dataset(
            spec, embedding_dim=8, backend=EmbeddingBackend.DENSE,
            bottom_mlp=(16,), top_mlp=(16,),
        )
        bags: list = [
            HostBackedEmbeddingBag(rows, 8) for rows in cfg.table_rows
        ]
        model = DLRM(cfg, seed=0, embedding_bags=bags)
        with pytest.raises(TypeError, match="parameter-server"):
            save_checkpoint(model, io.BytesIO())

    def test_file_path_roundtrip(self, setup, tmp_path):
        spec, log = setup
        cfg = DLRMConfig.from_dataset(
            spec, embedding_dim=8, backend=EmbeddingBackend.EFF_TT,
            tt_rank=8, bottom_mlp=(16,), top_mlp=(16,),
        )
        model = DLRM(cfg, seed=1)
        path = tmp_path / "ckpt.npz"
        save_checkpoint(model, str(path))
        restored = load_checkpoint(str(path))
        batch = log.batch(0)
        np.testing.assert_array_equal(
            model.forward(batch), restored.forward(batch)
        )

    def test_config_survives(self, setup):
        spec, _ = setup
        cfg = DLRMConfig.from_dataset(
            spec, embedding_dim=8, backend=EmbeddingBackend.TT, tt_rank=8,
            bottom_mlp=(16,), top_mlp=(16,),
        )
        restored = _roundtrip(DLRM(cfg, seed=0))
        assert restored.config == cfg


class TestMixedStrategyRoundtrip:
    """Per-bag kind tags: a model mixing every strategy round-trips."""

    def test_mixed_bags_bitwise(self, setup):
        from repro.embeddings.dense import DenseEmbeddingBag
        from repro.embeddings.eff_tt_embedding import EffTTEmbeddingBag
        from repro.embeddings.hash_embedding import HashEmbeddingBag
        from repro.embeddings.pq_embedding import PQEmbeddingBag
        from repro.embeddings.robe_embedding import RobeEmbeddingBag
        from repro.embeddings.tt_embedding import TTEmbeddingBag

        spec, log = setup
        cfg = DLRMConfig.from_dataset(
            spec, embedding_dim=8, backend=EmbeddingBackend.DENSE,
            bottom_mlp=(16,), top_mlp=(16,),
        )
        kinds = [
            DenseEmbeddingBag,
            TTEmbeddingBag,
            EffTTEmbeddingBag,
            HashEmbeddingBag,
            RobeEmbeddingBag,
            PQEmbeddingBag,
        ]
        bags = [
            kinds[t % len(kinds)](rows, cfg.embedding_dim, seed=200 + t)
            for t, rows in enumerate(cfg.table_rows)
        ]
        model = DLRM(cfg, seed=4, embedding_bags=bags)
        model.train_step(log.batch(0), lr=0.1)
        restored = _roundtrip(model)
        for orig, back in zip(
            model.embedding_bags, restored.embedding_bags
        ):
            assert type(back) is type(orig)
            for name, arr in orig.state_arrays().items():
                np.testing.assert_array_equal(
                    back.state_arrays()[name], arr
                )
        a = model.train_step(log.batch(1), lr=0.1).loss
        b = restored.train_step(log.batch(1), lr=0.1).loss
        assert a == b


def _saved_bytes(setup) -> bytes:
    spec, log = setup
    cfg = DLRMConfig.from_dataset(
        spec, embedding_dim=8, backend=EmbeddingBackend.EFF_TT, tt_rank=8,
        bottom_mlp=(16,), top_mlp=(16,),
    )
    model = DLRM(cfg, seed=9)
    model.train_step(log.batch(0), lr=0.1)
    buffer = io.BytesIO()
    save_checkpoint(model, buffer)
    return buffer.getvalue()


def _rewrite(data: bytes, mutate) -> io.BytesIO:
    """Unpack an archive, apply ``mutate(arrays)``, repack it.

    Repacking preserves whatever ``__crc__`` manifest the dict holds, so
    mutating an array *without* touching the manifest models in-archive
    tampering, and editing/dropping ``__crc__`` models manifest damage.
    """
    with np.load(io.BytesIO(data), allow_pickle=True) as archive:
        arrays = {name: archive[name] for name in archive.files}
    mutate(arrays)
    out = io.BytesIO()
    np.savez_compressed(out, **arrays)
    out.seek(0)
    return out


class TestCorruption:
    def test_flipped_byte_detected(self, setup):
        import struct
        import zipfile

        # Flip a byte in the middle of the largest member's *compressed
        # payload* (a flip in an unused local-header field would be
        # silently ignored by zip readers).
        data = bytearray(_saved_bytes(setup))
        with zipfile.ZipFile(io.BytesIO(bytes(data))) as archive:
            info = max(archive.infolist(), key=lambda i: i.compress_size)
        name_len, extra_len = struct.unpack_from(
            "<HH", data, info.header_offset + 26
        )
        payload_start = info.header_offset + 30 + name_len + extra_len
        data[payload_start + info.compress_size // 2] ^= 0xFF
        with pytest.raises(CheckpointCorruptError):
            load_checkpoint(io.BytesIO(bytes(data)))

    def test_truncated_archive_detected(self, setup):
        data = _saved_bytes(setup)
        with pytest.raises(CheckpointCorruptError):
            load_checkpoint(io.BytesIO(data[: len(data) // 3]))

    def test_tampered_array_fails_crc(self, setup):
        def bump_first_param(arrays):
            name = next(k for k in arrays if k.startswith("param/"))
            arrays[name] = arrays[name] + 1.0

        tampered = _rewrite(_saved_bytes(setup), bump_first_param)
        with pytest.raises(CheckpointCorruptError, match="CRC32"):
            load_checkpoint(tampered)

    def test_entry_missing_from_manifest(self, setup):
        import json

        def drop_manifest_entry(arrays):
            crc = json.loads(str(arrays["__crc__"][0]))
            crc.pop(next(k for k in crc if k.startswith("param/")))
            arrays["__crc__"] = np.array([json.dumps(crc)], dtype=object)

        tampered = _rewrite(_saved_bytes(setup), drop_manifest_entry)
        with pytest.raises(CheckpointCorruptError, match="absent"):
            load_checkpoint(tampered)

    def test_unreadable_manifest(self, setup):
        def garble(arrays):
            arrays["__crc__"] = np.array(["not json"], dtype=object)

        tampered = _rewrite(_saved_bytes(setup), garble)
        with pytest.raises(CheckpointCorruptError, match="manifest"):
            load_checkpoint(tampered)

    def test_legacy_archive_without_crc_loads(self, setup):
        import json

        spec, log = setup

        def to_v2(arrays):
            del arrays["__crc__"]
            arrays["__meta__"] = np.array(
                [json.dumps({"version": 2})], dtype=object
            )

        legacy = _rewrite(_saved_bytes(setup), to_v2)
        model = load_checkpoint(legacy)
        reference = load_checkpoint(io.BytesIO(_saved_bytes(setup)))
        batch = log.batch(3)
        np.testing.assert_array_equal(
            model.forward(batch), reference.forward(batch)
        )

    def test_missing_file_is_not_corruption(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            load_checkpoint(str(tmp_path / "absent.npz"))


FIXTURES = Path(__file__).parent / "fixtures"


@pytest.mark.parametrize(
    "name",
    [
        "v1_config_tt",
        "v1_config_efftt",
        "v1_config_efftt_small",
        "v2_config_efftt_small",
        "v2_dense_tt_efftt",
        "v3_dense_tt_efftt",
        "v4_all_kinds",
    ],
)
class TestParentWrittenCheckpoints:
    """Archives written before the embedding-shell refactor still load.

    ``fixtures/`` (see ``make_fixtures.py`` there) holds checkpoints in
    every readable format, written by the pre-refactor tree, plus what
    that tree's load -> save round trip wrote back and predicted.
    """

    def _expected(self, name):
        return json.loads((FIXTURES / "expected.json").read_text())[name]

    def test_resaves_entry_for_entry(self, name):
        model = load_checkpoint(str(FIXTURES / f"{name}.npz"))
        buffer = io.BytesIO()
        save_checkpoint(model, buffer)
        buffer.seek(0)
        with np.load(buffer, allow_pickle=True) as archive:
            crc = json.loads(str(archive["__crc__"][0]))
            assert sorted(archive.files) == sorted([*crc, "__crc__"])
        # the manifest is a CRC32 of every entry (load_checkpoint checks
        # each one against it): equal manifests mean the same entry
        # names holding the same bytes.  The re-save is format v5, so
        # its two metadata entries say v5 and record the dtype the file
        # loaded at; every array entry is the parent's, bit for bit.
        metadata = {"__meta__", "__config__"}
        expected = self._expected(name)["resaved_crc"]
        assert set(crc) == set(expected)
        assert {k: v for k, v in crc.items() if k not in metadata} == {
            k: v for k, v in expected.items() if k not in metadata
        }
        buffer.seek(0)
        with np.load(buffer, allow_pickle=True) as resaved, np.load(
            FIXTURES / f"{name}.npz", allow_pickle=True
        ) as stored:
            assert json.loads(str(resaved["__meta__"][0])) == {"version": 5}
            config = json.loads(str(stored["__config__"][0]))
            config.setdefault("compress_rate", 0.25)  # absent before v4
            assert json.loads(str(resaved["__config__"][0])) == {
                **config, "dtype": "float64"
            }
        buffer.seek(0)
        assert load_checkpoint(buffer).config.dtype == np.float64

    def test_loads_at_the_float64_it_was_written_at(self, name):
        model = load_checkpoint(str(FIXTURES / f"{name}.npz"))
        assert model.config.dtype == np.float64
        assert {p.data.dtype for p in model.parameters()} == {np.dtype(np.float64)}
        assert {bag.dtype for bag in model.embedding_bags} == {np.dtype(np.float64)}
        for bag in model.embedding_bags:
            for value in bag.state_arrays().values():
                assert value.dtype.kind != "f" or value.dtype == np.float64

    def test_predicts_bitwise(self, name):
        from tests.models.fixtures.make_fixtures import probe_batch

        # The restored parameters are the parent's bits (the CRC test
        # above); the logits pass through the interaction GEMMs, whose
        # BLAS-blocked sums round differently from the parent's einsum
        # (DESIGN.md §8), so they are held to the documented tolerance.
        model = load_checkpoint(str(FIXTURES / f"{name}.npz"))
        np.testing.assert_allclose(
            model.forward(probe_batch(table_rows=model.config.table_rows)),
            self._expected(name)["logits"],
            rtol=1e-12,
            atol=0.0,
        )


@pytest.mark.parametrize("name", ["v1_config_efftt_small", "v2_config_efftt_small"])
def test_a_checkpoint_loads_by_what_it_stores_not_by_todays_rule(name):
    """Tables the footprint rule would now keep dense were saved as Eff-TT.

    v1 has no kind tags, so the loader reads the kind off the stored
    array names; v2+ carries ``bag{t}/kind`` and never consulted the
    rule.  Either way the bags come back as the cores that were saved.
    """
    model = load_checkpoint(str(FIXTURES / f"{name}.npz"))
    config = model.config
    assert [config.backend_for_table(t).value for t in range(config.num_tables)] == [
        "dense", "dense", "dense", "eff_tt",
    ]
    assert [bag.kind for bag in model.embedding_bags] == ["eff_tt"] * 4


class TestDtypeRoundtrip:
    """Format v5 records the model's dtype; every path restores it bit for bit."""

    @staticmethod
    def _model(spec, log, dtype):
        cfg = DLRMConfig.from_dataset(
            spec, embedding_dim=8, backend=EmbeddingBackend.EFF_TT, tt_rank=4,
            bottom_mlp=(16,), top_mlp=(16,), dtype=dtype,
        )
        model = DLRM(cfg, seed=3)
        model.train_step(log.batch(0), lr=0.1)
        return model

    @staticmethod
    def _assert_same_bits(model, restored, dtype):
        assert restored.config == model.config
        for (name, a), (_, b) in zip(
            model.named_parameters(), restored.named_parameters()
        ):
            assert b.data.dtype == dtype and np.array_equal(a.data, b.data), name
        for bag, twin in zip(model.embedding_bags, restored.embedding_bags):
            assert twin.dtype == dtype
            state, twin_state = bag.state_arrays(), twin.state_arrays()
            for key, value in state.items():
                assert twin_state[key].dtype == value.dtype
                assert np.array_equal(twin_state[key], value), key

    @pytest.mark.parametrize("dtype", ["float32", "float64"])
    def test_save_checkpoint_and_snapshot(self, setup, dtype):
        from repro.serving import ModelSnapshot

        spec, log = setup
        model = self._model(spec, log, dtype)
        batch = log.batch(1)
        for restored in (_roundtrip(model), ModelSnapshot.from_model(model).materialize()):
            self._assert_same_bits(model, restored, dtype)
            np.testing.assert_array_equal(
                restored.predict_proba(batch), model.predict_proba(batch)
            )

    def test_checkpoint_store_keeps_float32_trainer_state(self, setup, tmp_path):
        from repro.resilience import (
            CheckpointStore,
            capture_trainer_arrays,
            restore_trainer_arrays,
        )
        from repro.sharding import build_sharded_ps_trainer

        spec, log = setup
        cfg = DLRMConfig.from_dataset(
            spec, embedding_dim=8, backend=EmbeddingBackend.EFF_TT, tt_rank=4,
            bottom_mlp=(16,), top_mlp=(16,),
        )

        def trainer():
            return build_sharded_ps_trainer(cfg, num_shards=2).trainer

        source = trainer()
        source.train(log, 3)
        arrays = capture_trainer_arrays(source)
        store = CheckpointStore(str(tmp_path))
        assert store.save(3, arrays)
        loaded = store.load(3).arrays
        assert loaded.keys() == arrays.keys()
        for key, value in arrays.items():
            assert value.dtype.kind != "f" or value.dtype == np.float32, key
            assert loaded[key].dtype == value.dtype
            assert np.array_equal(loaded[key], value), key
        resumed = trainer()
        restore_trainer_arrays(resumed, loaded)
        assert resumed.train(log, 2, start=3).losses == source.train(
            log, 2, start=3
        ).losses
