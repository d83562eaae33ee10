"""Explicit-dtype policy: a float32-configured model stays float32.

Before the backend refactor several kernels seeded intermediates at
numpy's float64 default (``np.ones`` in the chain backward, implicit
``np.zeros`` in the PS bag backward), silently upcasting float32
configurations.  These tests pin the fix: every allocation flows
through the backend with an explicit dtype, and a float32 model's
forward/backward/update never touches float64.
"""

import numpy as np
import pytest

from repro.backend import InstrumentedBackend, use_backend
from repro.embeddings.eff_tt_embedding import EffTTEmbeddingBag
from repro.embeddings.tt_embedding import TTEmbeddingBag
from repro.nn.mlp import MLP
from repro.nn.optim import SGD, SparseSGD


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

    def test_float64_default_unchanged(self):
        bag = TTEmbeddingBag(100, 4, tt_rank=2, seed=0)
        out = bag.forward(np.arange(10), np.arange(10))
        assert out.dtype == np.float64
        assert all(c.dtype == np.float64 for c in bag.tt.cores)


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
