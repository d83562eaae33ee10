"""Cross-backend equivalence: every backend-routed kernel, bit for bit.

The refactor's core contract: routing hot paths through
``repro.backend`` must not change a single bit with the reference
``NumpyBackend``, and the ``Interposer`` wrapper (alone as
``InstrumentedBackend``, or composed with counter + sanitizer observers)
forwards to it unchanged — so every pair below is asserted with
``assert_array_equal``, not ``allclose``.
"""

import numpy as np
import pytest

from repro.backend import (
    ZONE_EFFTT_BACKWARD,
    ZONE_EFFTT_FORWARD,
    ZONE_FUSED_UPDATE,
    CostCounter,
    InstrumentedBackend,
    Interposer,
    NumericSanitizer,
    NumpyBackend,
    get_plan_cache,
    reset_plan_cache,
    use_backend,
)
from repro.data.dataloader import SyntheticClickLog
from repro.data.datasets import criteo_kaggle_like
from repro.embeddings.eff_tt_embedding import EffTTEmbeddingBag
from repro.embeddings.tt_embedding import TTEmbeddingBag
from repro.models.config import DLRMConfig, EmbeddingBackend
from repro.models.dlrm import DLRM, build_embedding_bag
from repro.nn.interaction import DotInteraction
from repro.nn.mlp import MLP
from repro.sharding import ShardedParameterServer
from repro.system.parameter_server import HostBackedEmbeddingBag
from repro.system.pipeline import PipelinedPSTrainer

BACKENDS = ["numpy", "instrumented"]

RNG = lambda: np.random.default_rng(42)  # noqa: E731


def _tt_workload(backend):
    """One TT train step; returns everything the step touched."""
    with use_backend(backend):
        bag = TTEmbeddingBag(1000, 8, tt_rank=4, seed=11)
        rng = RNG()
        idx = rng.integers(0, 1000, size=48)
        off = np.arange(0, 48, 3)
        out = bag.forward(idx, off)
        bag.backward(rng.standard_normal(out.shape))
        bag.step(lr=0.05)
        out2 = bag.forward(idx, off)
    return out, out2, [c.copy() for c in bag.tt.cores]


def _efftt_workload(backend):
    with use_backend(backend):
        bag = EffTTEmbeddingBag(1000, 8, tt_rank=4, seed=11)
        rng = RNG()
        idx = rng.integers(0, 1000, size=48)
        off = np.arange(0, 48, 3)
        out = bag.forward(idx, off)
        bag.backward(rng.standard_normal(out.shape))
        bag.apply_pending_update(bag.pop_pending_update(), lr=0.05)
        out2 = bag.forward(idx, off)
    return out, out2, [c.copy() for c in bag.tt.cores]


def _mlp_workload(backend):
    with use_backend(backend):
        mlp = MLP((13, 16, 8), seed=5)
        x = RNG().standard_normal((32, 13))
        out = mlp.forward(x)
        grad_in = mlp.backward(np.ones_like(out))
        grads = [p.grad.copy() for p in mlp.parameters()]
    return out, grad_in, grads


def _interaction_workload(backend):
    with use_backend(backend):
        rng = RNG()
        dense = rng.standard_normal((16, 8))
        embs = [rng.standard_normal((16, 8)) for _ in range(3)]
        inter = DotInteraction()
        out = inter.forward(dense, embs)
        grad_dense, grad_embs = inter.backward(np.ones_like(out))
    return out, grad_dense, grad_embs


def _pipeline_workload(backend, num_batches=4):
    """A short pipelined PS training run (the integration surface)."""
    spec = criteo_kaggle_like(scale=2e-5)
    log = SyntheticClickLog(spec, batch_size=32, seed=0)
    cfg = DLRMConfig.from_dataset(
        spec, embedding_dim=8, backend=EmbeddingBackend.EFF_TT, tt_rank=4,
        tt_threshold_rows=100, bottom_mlp=(16,), top_mlp=(16,),
    )
    rows = list(cfg.table_rows)
    host_positions = sorted(range(len(rows)), key=lambda t: -rows[t])[:2]
    host_map = {p: i for i, p in enumerate(host_positions)}
    with use_backend(backend):
        bags = []
        for t, nrows in enumerate(cfg.table_rows):
            if t in host_map:
                bags.append(HostBackedEmbeddingBag(nrows, cfg.embedding_dim))
            else:
                bags.append(
                    build_embedding_bag(
                        cfg.backend_for_table(t), nrows, cfg.embedding_dim,
                        cfg.tt_rank, seed=(200 + t),
                    )
                )
        model = DLRM(cfg, seed=7, embedding_bags=bags)
        server = ShardedParameterServer(
            [rows[p] for p in host_positions], cfg.embedding_dim, lr=0.05,
            seed=3,
        )
        trainer = PipelinedPSTrainer(
            model, server, host_map, lr=0.05, prefetch_depth=2,
            grad_queue_depth=2, use_cache=True,
        )
        result = trainer.train(log, num_batches)
    return result, server


class TestBitwiseEquivalence:
    wrapped = InstrumentedBackend

    def test_tt_forward_backward_step(self):
        ref = _tt_workload("numpy")
        inst = _tt_workload(self.wrapped())
        np.testing.assert_array_equal(ref[0], inst[0])
        np.testing.assert_array_equal(ref[1], inst[1])
        for a, b in zip(ref[2], inst[2]):
            np.testing.assert_array_equal(a, b)

    def test_efftt_forward_backward_fused_update(self):
        ref = _efftt_workload("numpy")
        inst = _efftt_workload(self.wrapped())
        np.testing.assert_array_equal(ref[0], inst[0])
        np.testing.assert_array_equal(ref[1], inst[1])
        for a, b in zip(ref[2], inst[2]):
            np.testing.assert_array_equal(a, b)

    def test_mlp_forward_backward(self):
        ref = _mlp_workload("numpy")
        inst = _mlp_workload(self.wrapped())
        np.testing.assert_array_equal(ref[0], inst[0])
        np.testing.assert_array_equal(ref[1], inst[1])
        for a, b in zip(ref[2], inst[2]):
            np.testing.assert_array_equal(a, b)

    def test_interaction_forward_backward(self):
        ref = _interaction_workload("numpy")
        inst = _interaction_workload(self.wrapped())
        np.testing.assert_array_equal(ref[0], inst[0])
        np.testing.assert_array_equal(ref[1], inst[1])
        for a, b in zip(ref[2], inst[2]):
            np.testing.assert_array_equal(a, b)

    def test_pipelined_training_run(self):
        ref_result, ref_server = _pipeline_workload("numpy")
        inst_result, inst_server = _pipeline_workload(self.wrapped())
        np.testing.assert_array_equal(ref_result.losses, inst_result.losses)
        for a, b in zip(ref_server.tables, inst_server.tables):
            np.testing.assert_array_equal(a, b)

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_refactor_matches_pinned_reference(self, backend):
        """Pinned digest: TT numerics must never drift across refactors.

        The digest is of this exact workload since the duplicate-row sum
        of ``scatter_add_rows`` became ``RowGroups.sum_rows`` (left to
        right); it certifies the routing changes nothing, on any
        backend.  The cores also stay within 1e-12 of an ``np.add.at``
        reference, which adds every duplicate one at a time.
        """
        import hashlib

        class AddAtBackend(NumpyBackend):
            def scatter_add_rows(self, target, indices, values, scale=1.0):
                np.add.at(target, indices, scale * values)

        def run(bk):
            with use_backend(bk):
                bag = TTEmbeddingBag(
                    120, 4, tt_rank=2, row_shape=(4, 5, 6), col_shape=(2, 2, 1),
                    seed=3, dtype=np.float64,  # the digest is of float64 bits
                )
                idx = np.arange(0, 120, 7)
                out = bag.forward(idx, np.arange(idx.size))
                bag.backward(np.ones_like(out))
                bag.step(lr=0.1)
            return out, bag.tt.cores

        out, cores = run(backend)
        digest = hashlib.sha256()
        digest.update(out.tobytes())
        for core in cores:
            digest.update(core.tobytes())
        assert digest.hexdigest() == (
            "2cecf4073d61f410f4367e28797c2c572ec2f06dcb347060915fa32558572aaf"
        )
        _, reference = run(AddAtBackend())
        for core, ref in zip(cores, reference):
            np.testing.assert_allclose(
                core, ref, rtol=1e-12, atol=1e-12 * np.abs(ref).max()
            )


class TestBitwiseEquivalenceComposed(TestBitwiseEquivalence):
    """The same cases with counter + sanitizer watching one pass."""

    @staticmethod
    def wrapped():
        return Interposer(observers=[CostCounter(), NumericSanitizer()])


class TestInstrumentedZones:
    def test_efftt_step_hits_named_zones(self):
        inst = InstrumentedBackend()
        _efftt_workload(inst)
        forward = inst.zone_stats[ZONE_EFFTT_FORWARD]
        fused = inst.zone_stats[ZONE_FUSED_UPDATE]
        assert forward.flops > 0 and forward.bytes > 0
        assert fused.flops > 0 and fused.bytes > 0
        # The reuse/aggregated path contracts through the segment-GEMM
        # ops only: no per-row matmul against gathered slices is left in
        # the forward zone, and every core's gradient is segment-summed.
        ops = {key: stats.calls for key, stats in inst.op_stats.items()}
        assert (ZONE_EFFTT_FORWARD, "matmul") not in ops
        assert ops[(ZONE_EFFTT_FORWARD, "gather_matmul")] == 2 * 2  # 2 forwards
        # Reverse mode: per GEMM of the forward one slice-gradient
        # segment GEMM and one GEMM per slice for its left operand; core
        # 0's gradient is a sum.
        assert ops[("efftt_backward", "gather_matmul")] == 2
        assert ops[("efftt_backward", "matmul_segment_sum")] == 2
        assert (ZONE_EFFTT_BACKWARD, "matmul") not in ops

    def test_interaction_zone_is_two_batched_gemms(self):
        inst = InstrumentedBackend()
        _interaction_workload(inst)
        ops = {
            op: stats for (zone, op), stats in inst.op_stats.items()
            if zone == "interaction"
        }
        assert set(ops) == {"matmul"}  # no einsum, no (B, F, F) zeros
        assert ops["matmul"].calls == 2
        # forward T[1:].T[:-1]^T is 2*B*(F-1)^2*d, backward (dZ + dZ^T).T
        # is 2*B*F*F*d
        assert ops["matmul"].flops == 2 * 16 * 3 * 3 * 8 + 2 * 16 * 4 * 4 * 8

    def test_pipeline_covers_expected_zones(self):
        inst = InstrumentedBackend()
        _pipeline_workload(inst, num_batches=2)
        zones = set(inst.zone_stats)
        assert {
            "efftt_forward",
            "efftt_backward",
            "fused_update",
            "mlp",
            "interaction",
            "ps_gather",
            "ps_apply",
        } <= zones


class TestPlanCacheInPipeline:
    def test_second_batch_hits_plan_cache(self):
        reset_plan_cache()
        spec = criteo_kaggle_like(scale=2e-5)
        log = SyntheticClickLog(spec, batch_size=32, seed=0)
        cfg = DLRMConfig.from_dataset(
            spec, embedding_dim=8, backend=EmbeddingBackend.EFF_TT, tt_rank=4,
            tt_threshold_rows=100, bottom_mlp=(16,), top_mlp=(16,),
        )
        model = DLRM(cfg, seed=7)
        # Two same-spec batches through the model: the second must hit.
        for i in range(2):
            model.forward(log.batch(i))
        stats = get_plan_cache().stats
        assert stats["hits"] >= 1
