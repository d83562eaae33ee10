"""Tests for the DLRM dot-product interaction layer."""

import numpy as np
import pytest

from repro.backend import (
    ZONE_INTERACTION,
    Interposer,
    Observer,
    use_backend,
)
from repro.nn.interaction import DotInteraction
from tests.conftest import assert_grad_close, numerical_gradient


class TestForward:
    def test_output_dim(self):
        assert DotInteraction.output_dim(16, 26) == 16 + 27 * 26 // 2

    def test_shape(self, rng):
        layer = DotInteraction()
        dense = rng.standard_normal((4, 8))
        embs = [rng.standard_normal((4, 8)) for _ in range(3)]
        out = layer.forward(dense, embs)
        assert out.shape == (4, DotInteraction.output_dim(8, 3))

    def test_dense_passthrough(self, rng):
        layer = DotInteraction()
        dense = rng.standard_normal((2, 4))
        embs = [rng.standard_normal((2, 4))]
        out = layer.forward(dense, embs)
        np.testing.assert_array_equal(out[:, :4], dense)

    def test_pairwise_values(self, rng):
        layer = DotInteraction()
        dense = rng.standard_normal((1, 3))
        e1 = rng.standard_normal((1, 3))
        e2 = rng.standard_normal((1, 3))
        out = layer.forward(dense, [e1, e2])
        # lower triangle order: (e1,dense), (e2,dense), (e2,e1)
        assert out[0, 3] == pytest.approx(float((e1 * dense).sum()))
        assert out[0, 4] == pytest.approx(float((e2 * dense).sum()))
        assert out[0, 5] == pytest.approx(float((e2 * e1).sum()))

    def test_shape_mismatch(self, rng):
        layer = DotInteraction()
        with pytest.raises(ValueError):
            layer.forward(
                rng.standard_normal((2, 4)), [rng.standard_normal((2, 5))]
            )


class TestBackward:
    def test_before_forward(self):
        with pytest.raises(RuntimeError):
            DotInteraction().backward(np.zeros((1, 4)))

    def test_numerical_gradients(self, rng):
        layer = DotInteraction()
        dense = rng.standard_normal((2, 3))
        embs = [rng.standard_normal((2, 3)) for _ in range(2)]
        out_dim = DotInteraction.output_dim(3, 2)
        g = rng.standard_normal((2, out_dim))

        layer.forward(dense, embs)
        g_dense, g_embs = layer.backward(g)

        def scalar_dense(d):
            return float((layer.forward(d, embs) * g).sum())

        numeric_dense = numerical_gradient(scalar_dense, dense.copy())
        assert_grad_close(g_dense, numeric_dense, rtol=1e-4)

        for i in range(2):
            def scalar_emb(e, i=i):
                es = [e if j == i else embs[j] for j in range(2)]
                return float((layer.forward(dense, es) * g).sum())

            numeric = numerical_gradient(scalar_emb, embs[i].copy())
            assert_grad_close(g_embs[i], numeric, rtol=1e-4)

    def test_grad_shape_mismatch(self, rng):
        layer = DotInteraction()
        layer.forward(rng.standard_normal((2, 3)), [rng.standard_normal((2, 3))])
        with pytest.raises(ValueError):
            layer.backward(np.zeros((2, 99)))


def _reference(dense, embs, grad_output):
    """The parent's arithmetic: stack, two unoptimized einsums, masks."""
    stacked = np.stack([dense, *embs], axis=1).astype(np.float64)
    num_features, dim = stacked.shape[1], stacked.shape[2]
    z = np.einsum("bfd,bgd->bfg", stacked, stacked, optimize=False)
    rows, cols = np.tril_indices(num_features, k=-1)
    out = np.concatenate([dense, z[:, rows, cols]], axis=1)
    grad_z = np.zeros_like(z)
    grad_z[:, rows, cols] = grad_output[:, dim:]
    sym = grad_z + grad_z.transpose(0, 2, 1)
    grad_stacked = np.einsum("bfg,bgd->bfd", sym, stacked, optimize=False)
    grad_dense = grad_stacked[:, 0, :] + grad_output[:, :dim]
    return out, grad_dense, [grad_stacked[:, i, :] for i in range(1, num_features)]


def _run(dense, embs, grad_output):
    layer = DotInteraction()
    out = layer.forward(dense, embs)
    grad_dense, grad_embs = layer.backward(grad_output)
    return out, grad_dense, grad_embs


def _problem(rng, batch, num_features, dim, emb_dtype=np.float64):
    dense = rng.standard_normal((batch, dim))
    embs = [
        rng.standard_normal((batch, dim)).astype(emb_dtype)
        for _ in range(num_features - 1)
    ]
    grad = rng.standard_normal(
        (batch, DotInteraction.output_dim(dim, num_features - 1))
    )
    return dense, embs, grad


class TestAgainstEinsumReference:
    """Tolerance contract (DESIGN.md §8): rtol 1e-12 of the einsum form."""

    @pytest.mark.parametrize("num_features", [1, 2, 27])
    @pytest.mark.parametrize("emb_dtype", [np.float64, np.float32])
    def test_forward_and_both_gradients(self, rng, num_features, emb_dtype):
        dense, embs, grad = _problem(rng, 33, num_features, 16, emb_dtype)
        out, grad_dense, grad_embs = _run(dense, embs, grad)
        ref_out, ref_dense, ref_embs = _reference(dense, embs, grad)
        assert out.dtype == grad_dense.dtype == np.float64
        np.testing.assert_allclose(out, ref_out, rtol=1e-12, atol=1e-13)
        np.testing.assert_allclose(grad_dense, ref_dense, rtol=1e-12, atol=1e-13)
        assert len(grad_embs) == num_features - 1
        for got, want in zip(grad_embs, ref_embs):
            assert got.dtype == np.float64
            np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-13)

    def test_no_embeddings_is_the_dense_feature(self, rng):
        dense, embs, grad = _problem(rng, 5, 1, 4)
        out, grad_dense, grad_embs = _run(dense, embs, grad)
        np.testing.assert_array_equal(out, dense)
        np.testing.assert_array_equal(grad_dense, grad)
        assert grad_embs == []


class TestBatchInvariance:
    """One GEMM per sample: a row's bits do not depend on its batch."""

    def test_row_is_the_same_alone_in_17_and_in_2048(self, rng):
        dense, embs, grad = _problem(rng, 2048, 27, 16)
        full = _run(dense, embs, grad)
        for batch in (1, 17):
            for start in (0, 5, 2048 - batch):
                rows = slice(start, start + batch)
                part = _run(dense[rows], [e[rows] for e in embs], grad[rows])
                np.testing.assert_array_equal(part[0], full[0][rows])
                np.testing.assert_array_equal(part[1], full[1][rows])
                for got, want in zip(part[2], full[2]):
                    np.testing.assert_array_equal(got, want[rows])


class _Recorder(Observer):
    def __init__(self):
        self.calls = []

    def after(self, zone, op, args, out):
        self.calls.append((zone, op, None if out is None else out.shape))


class TestBackendTraffic:
    def test_interaction_zone_is_two_matmuls(self, rng):
        batch, num_features = 8, 5
        dense, embs, grad = _problem(rng, batch, num_features, 4)
        recorder = _Recorder()
        with use_backend(Interposer(observers=[recorder])):
            _run(dense, embs, grad)
        in_zone = [c for c in recorder.calls if c[0] == ZONE_INTERACTION]
        assert [op for _, op, _ in in_zone] == ["matmul", "matmul"]
        # forward is T[1:] @ T[:-1]^T: feature 0 is never a row of the
        # product and the last feature never a column
        assert in_zone[0][2] == (batch, num_features - 1, num_features - 1)
        assert in_zone[1][2] == (batch, num_features, 4)
        # nothing of the (B, F, F) product's shape is allocated: the
        # symmetric gradient operand is gathered, not zero-filled + added
        assert not any(
            op in ("zeros", "ones", "empty", "full", "einsum")
            for _, op, _ in recorder.calls
        )

    def test_result_does_not_alias_across_steps(self, rng):
        """The PS gradient queue holds these arrays across steps."""
        layer = DotInteraction()
        dense, embs, grad = _problem(rng, 6, 3, 4)
        layer.forward(dense, embs)
        _, held = layer.backward(grad)
        snapshot = [g.copy() for g in held]
        layer.forward(dense + 1.0, embs)
        layer.backward(grad * 2.0)
        for got, want in zip(held, snapshot):
            np.testing.assert_array_equal(got, want)
