"""Explicit-dtype policy: a float32-configured model stays float32.

Before the backend refactor several kernels seeded intermediates at
numpy's float64 default (``np.ones`` in the chain backward, implicit
``np.zeros`` in the PS bag backward), silently upcasting float32
configurations.  These tests pin the fix: every allocation flows
through the backend with an explicit dtype, and a float32 model's
forward/backward/update never touches float64 — one ``DLRM`` step with
each bag kind, a 4-shard parameter-server step and a served
micro-batch.  float32 is the default (``DLRMConfig.dtype``); float64
is an opt-in.
"""

import numpy as np
import pytest

from repro.backend import DEFAULT_DTYPE, InstrumentedBackend, use_backend
from repro.data.dataloader import Batch, SyntheticClickLog
from repro.data.datasets import criteo_kaggle_like
from repro.embeddings.eff_tt_embedding import EffTTEmbeddingBag
from repro.embeddings.registry import BAG_CLASSES
from repro.embeddings.tt_embedding import TTEmbeddingBag
from repro.models.config import DLRMConfig, EmbeddingBackend
from repro.models.dlrm import DLRM, build_embedding_bag
from repro.nn.mlp import MLP
from repro.nn.optim import SGD, SparseSGD
from repro.serving import ModelSnapshot
from repro.sharding import LinkCompressionConfig, build_sharded_ps_trainer


class TestFloat32StaysFloat32:
    @pytest.mark.parametrize("bag_cls", [TTEmbeddingBag, EffTTEmbeddingBag])
    def test_tt_train_step_never_upcasts(self, bag_cls):
        inst = InstrumentedBackend()
        with use_backend(inst):
            bag = bag_cls(500, 8, tt_rank=4, seed=1, dtype=np.float32)
            idx = np.arange(0, 500, 11)
            with inst.expect_dtype(np.float32):
                out = bag.forward(idx, np.arange(idx.size))
                assert out.dtype == np.float32
                bag.backward(np.ones_like(out))
                bag.step(lr=0.05)
        assert inst.dtype_violations == []
        for core in bag.tt.cores:
            assert core.dtype == np.float32

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_segment_gemms_return_the_operand_dtype(self, dtype):
        from repro.backend.groups import group_rows

        inst = InstrumentedBackend()
        groups = group_rows(np.array([2, 0, 2, 2]))
        a = np.ones((4, 3, 5), dtype=dtype)
        with inst.expect_dtype(dtype):
            out = inst.gather_matmul(a, np.ones((3, 5, 2), dtype=dtype), groups)
            blocks = inst.matmul_segment_sum(a, np.ones((4, 2, 5), dtype=dtype), groups)
        assert out.dtype == dtype and blocks.dtype == dtype
        assert inst.dtype_violations == []

    def test_mlp_train_step_never_upcasts(self):
        inst = InstrumentedBackend()
        with use_backend(inst):
            mlp = MLP((6, 8, 4), seed=2, dtype=np.float32)
            opt = SGD(mlp.parameters(), lr=0.1, momentum=0.9)
            x = np.ones((5, 6), dtype=np.float32)
            with inst.expect_dtype(np.float32):
                out = mlp.forward(x)
                assert out.dtype == np.float32
                grad_in = mlp.backward(np.ones_like(out))
                assert grad_in.dtype == np.float32
                opt.step()
        assert inst.dtype_violations == []
        for p in mlp.parameters():
            assert p.data.dtype == np.float32

    def test_sparse_sgd_updates_at_table_dtype(self):
        table = np.zeros((10, 4), dtype=np.float32)
        rows = np.array([1, 3, 3])
        # Gradients arriving as float64 must be applied at float32.
        grads = np.ones((3, 4), dtype=np.float64)
        SparseSGD(lr=0.5).step_rows(table, rows, grads)
        assert table.dtype == np.float32
        np.testing.assert_array_equal(table[3], np.full(4, -1.0, np.float32))

    def test_float32_default(self):
        assert DEFAULT_DTYPE == np.float32
        bag = TTEmbeddingBag(100, 4, tt_rank=2, seed=0)
        out = bag.forward(np.arange(10), np.arange(10))
        assert out.dtype == np.float32
        assert all(c.dtype == np.float32 for c in bag.tt.cores)
        config = DLRMConfig(num_dense=3, table_rows=(100, 7))
        assert config.dtype == np.float32
        model = DLRM(config, seed=0)
        assert {p.data.dtype for p in model.parameters()} == {np.dtype(np.float32)}
        assert {bag.dtype for bag in model.embedding_bags} == {np.dtype(np.float32)}

    def test_float64_opt_in(self):
        bag = TTEmbeddingBag(100, 4, tt_rank=2, seed=0, dtype=np.float64)
        out = bag.forward(np.arange(10), np.arange(10))
        assert out.dtype == np.float64
        assert all(c.dtype == np.float64 for c in bag.tt.cores)
        config = DLRMConfig(num_dense=3, table_rows=(100, 7), dtype="float64")
        assert config.dtype == np.float64
        model = DLRM(config, seed=0)
        assert {p.data.dtype for p in model.parameters()} == {np.dtype(np.float64)}
        assert {bag.dtype for bag in model.embedding_bags} == {np.dtype(np.float64)}
        # the same seed draws the same initial values at either dtype
        same = DLRM(DLRMConfig(num_dense=3, table_rows=(100, 7)), seed=0)
        for a, b in zip(model.parameters(), same.parameters()):
            np.testing.assert_array_equal(a.data.astype(np.float32), b.data)

    @pytest.mark.parametrize("dtype", [np.float16, np.int32, "fp32", None])
    def test_config_rejects_other_dtypes(self, dtype):
        with pytest.raises(ValueError, match="dtype must be one of"):
            DLRMConfig(num_dense=3, table_rows=(100,), dtype=dtype)


def _multi_hot_batch(rng, table_rows, num_dense, batch_size):
    """Bags of 0-3 ids, so pooling and its backward expansion both run."""
    indices, offsets = [], []
    for rows in table_rows:
        lengths = rng.integers(0, 4, size=batch_size)
        indices.append(rng.integers(0, rows, size=int(lengths.sum())))
        offsets.append(np.concatenate([[0], np.cumsum(lengths)]))
    return Batch(
        dense=rng.standard_normal((batch_size, num_dense)),
        sparse_indices=indices,
        sparse_offsets=offsets,
        labels=rng.integers(0, 2, size=batch_size).astype(np.float64),
        batch_id=0,
    )


def _float_arrays(model):
    yield from (p.data for p in model.parameters())
    for bag in model.embedding_bags:
        yield from (a for a in bag.state_arrays().values() if a.dtype.kind == "f")


class TestFloat32EndToEnd:
    """Every step of a float32 model runs at float32 (no upcast anywhere)."""

    TABLE_ROWS = (500, 300)

    @pytest.mark.parametrize("kind", sorted(BAG_CLASSES))
    def test_dlrm_train_step_never_upcasts(self, kind):
        config = DLRMConfig(
            num_dense=4, table_rows=self.TABLE_ROWS, embedding_dim=8,
            bottom_mlp=(16,), top_mlp=(16,),
        )
        inst = InstrumentedBackend()
        with use_backend(inst):
            bags = [
                build_embedding_bag(EmbeddingBackend(kind), rows, 8, 4, seed=t)
                for t, rows in enumerate(self.TABLE_ROWS)
            ]
            model = DLRM(config, seed=1, embedding_bags=bags)
            batch = _multi_hot_batch(
                np.random.default_rng(0), self.TABLE_ROWS, 4, 16
            )
            with inst.expect_dtype(np.float32):
                logits = model.forward(batch)
                loss = model.loss_fn.forward(logits, batch.labels)
                model.backward(model.loss_fn.backward())
                model.apply_gradients(0.05)
        assert logits.dtype == np.float32 and np.isfinite(loss)
        assert inst.dtype_violations == []
        assert all(a.dtype == np.float32 for a in _float_arrays(model))

    def test_sharded_ps_step_never_upcasts(self):
        spec = criteo_kaggle_like(scale=3e-5)
        config = DLRMConfig.from_dataset(
            spec, embedding_dim=8, backend=EmbeddingBackend.DENSE,
            bottom_mlp=(16,), top_mlp=(16,),
        )
        log = SyntheticClickLog(spec, batch_size=32, seed=0)
        inst = InstrumentedBackend()
        with use_backend(inst):
            setup = build_sharded_ps_trainer(
                config, num_shards=4,
                compression=LinkCompressionConfig(mode="none"),
                host_positions=range(config.num_tables), lr=0.05,
                prefetch_depth=2, grad_queue_depth=1, use_cache=True,
            )
            with inst.expect_dtype(np.float32):
                losses = setup.trainer.train(log, 4).losses
        assert all(np.isfinite(losses))
        assert inst.dtype_violations == []
        assert all(t.dtype == np.float32 for t in setup.server.tables)
        assert all(c.dtype == np.float32 for c in setup.trainer.caches.values())
        assert all(a.dtype == np.float32 for a in _float_arrays(setup.model))

    def test_served_micro_batch_never_upcasts(self):
        config = DLRMConfig(
            num_dense=4, table_rows=self.TABLE_ROWS, embedding_dim=8,
            bottom_mlp=(16,), top_mlp=(16,), backend=EmbeddingBackend.EFF_TT,
        )
        model = DLRM(config, seed=2)
        snapshot = ModelSnapshot.from_model(model)
        serving = snapshot.serving_model({0: np.arange(50), 1: np.arange(30)})
        rng = np.random.default_rng(3)
        batch = Batch(
            dense=rng.standard_normal((17, 4)),
            sparse_indices=[rng.integers(0, r, size=17) for r in self.TABLE_ROWS],
            sparse_offsets=[np.arange(18)] * 2,
            labels=np.zeros(17),
            batch_id=0,
        )
        inst = InstrumentedBackend()
        with use_backend(inst):
            with inst.expect_dtype(np.float32):
                probs = serving.predict_proba(batch)
        assert probs.dtype == np.float32
        assert inst.dtype_violations == []
        np.testing.assert_array_equal(probs, model.predict_proba(batch))


class TestViolationDetection:
    def test_expect_dtype_records_departures(self):
        inst = InstrumentedBackend()
        with inst.expect_dtype(np.float32):
            with inst.zone("mlp"):
                inst.zeros((2, 2), dtype=np.float64)
        assert len(inst.dtype_violations) == 1
        violation = inst.dtype_violations[0]
        assert violation.zone == "mlp"
        assert violation.expected == "float32"
        assert violation.actual == "float64"

    def test_integer_results_not_flagged(self):
        inst = InstrumentedBackend()
        with inst.expect_dtype(np.float32):
            inst.zeros(4, dtype=np.int64)
        assert inst.dtype_violations == []

    def test_scope_is_bounded(self):
        inst = InstrumentedBackend()
        with inst.expect_dtype(np.float32):
            pass
        inst.zeros((2, 2), dtype=np.float64)
        assert inst.dtype_violations == []
