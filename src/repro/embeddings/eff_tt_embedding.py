"""Eff-TT embedding bag — the paper's core contribution (§III).

Drop-in replacement for ``nn.EmbeddingBag`` backed by Tensor-Train
cores, with the three optimizations of the paper, each independently
toggleable for the ablation studies (Figures 14, 17, 18):

``enable_reuse``
    Two-level intermediate-result reuse (§III-A).  The forward pass
    deduplicates full rows across the batch (sample- *and* batch-level)
    and computes the partial product of the first ``d-1`` cores once
    per unique TT-index prefix via one batched einsum over the Reuse
    Buffer — the NumPy analog of Algorithm 1's pointer preparation +
    ``cublasGemmBatchedEx`` call.
``enable_grad_aggregation``
    In-advance gradient aggregation (§III-B).  Embedding-row gradients
    are summed over unique indices *before* the chain-rule contraction
    into TT cores, shrinking the expensive per-row tensor
    multiplications from one per occurrence to one per unique row.
``enable_fused_update``
    Fused TT-core update (§III-B).  The SGD step scatters
    ``-lr * slice_grad`` directly into the live cores instead of
    materializing full-size core-gradient arrays and running a separate
    dense optimizer pass.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.backend import (
    ZONE_EFFTT_BACKWARD,
    ZONE_EFFTT_FORWARD,
    ZONE_FUSED_UPDATE,
    ZONE_OPTIMIZER,
    get_backend,
    get_plan_cache,
)
from repro.backend.protocol import DTypeLike
from repro.embeddings.protocol import SpecParamValue
from repro.embeddings.reuse_buffer import ReusePlan, build_reuse_plan
from repro.embeddings.tt_core import TTCores
from repro.embeddings.tt_embedding import (
    TTBagBase,
    tt_chain_backward,
    tt_chain_forward,
)
from repro.embeddings.tt_indices import row_index_to_tt
from repro.utils.rng import RngLike
from repro.utils.scatter import coalesce_rows

__all__ = ["EffTTEmbeddingBag"]


class EffTTEmbeddingBag(TTBagBase):
    """TT embedding bag with reuse, gradient aggregation and fused update.

    Parameters
    ----------
    num_embeddings, embedding_dim:
        Logical table shape; rows are padded to a balanced TT
        factorization.
    tt_rank:
        Scalar rank or explicit internal rank list (paper: 128 on V100,
        64 on T4).
    num_cores:
        ``d`` (paper uses 3).
    row_shape, col_shape:
        Optional explicit factorizations.
    enable_reuse, enable_grad_aggregation, enable_fused_update:
        Optimization toggles, all on by default.
    optimizer:
        ``"sgd"`` (the paper's setting) or ``"adagrad"`` — row-wise
        Adagrad on TT slices with coalesced sparse gradients (the
        TT-Rec training setup), still applied as a fused update.
    adagrad_eps:
        Adagrad denominator floor.
    seed:
        RNG for core initialization.
    dtype:
        Core / gradient floating dtype (default ``np.float64``, the
        historical behavior).  Forward, backward and the fused update
        all stay at this dtype — no silent float64 upcasts.

    Examples
    --------
    >>> bag = EffTTEmbeddingBag(1000, 16, tt_rank=8, seed=0)
    >>> out = bag.forward(np.array([1, 5, 5, 2]), np.array([0, 2, 4]))
    >>> out.shape
    (2, 16)
    """

    kind = "eff_tt"
    grad_zone = ZONE_EFFTT_BACKWARD

    def __init__(
        self,
        num_embeddings: int,
        embedding_dim: int,
        tt_rank: Union[int, Sequence[int]] = 64,
        num_cores: int = 3,
        row_shape: Optional[Sequence[int]] = None,
        col_shape: Optional[Sequence[int]] = None,
        enable_reuse: bool = True,
        enable_grad_aggregation: bool = True,
        enable_fused_update: bool = True,
        optimizer: str = "sgd",
        adagrad_eps: float = 1e-10,
        seed: RngLike = 0,
        dtype: DTypeLike = np.float64,
    ) -> None:
        super().__init__(
            num_embeddings, embedding_dim, tt_rank, num_cores,
            row_shape, col_shape, seed, dtype,
        )
        self.enable_reuse = enable_reuse
        self.enable_grad_aggregation = enable_grad_aggregation
        self.enable_fused_update = enable_fused_update
        if optimizer not in ("sgd", "adagrad"):
            raise ValueError(
                f"optimizer must be 'sgd' or 'adagrad', got {optimizer!r}"
            )
        self.optimizer = optimizer
        if adagrad_eps <= 0:
            raise ValueError(f"adagrad_eps must be > 0, got {adagrad_eps}")
        self.adagrad_eps = float(adagrad_eps)
        self._adagrad_acc: Optional[List[np.ndarray]] = (
            [np.zeros_like(core) for core in self.tt.cores]
            if optimizer == "adagrad"
            else None
        )
        self.last_plan: Optional[ReusePlan] = None

    @classmethod
    def from_dense_table(
        cls,
        table: np.ndarray,
        tt_rank: Union[int, Sequence[int]] = 64,
        num_cores: int = 3,
        **kwargs,
    ) -> "EffTTEmbeddingBag":
        """Warm-start an Eff-TT table from a pretrained dense table.

        TT-SVD compresses the given ``(num_rows, dim)`` weights (rows
        are zero-padded up to the balanced factorization; padding rows
        are never addressed).  This is the deployment path for
        compressing an existing model rather than training from
        scratch; reconstruction error is the optimal rank-``tt_rank``
        truncation error.
        """
        table = np.asarray(table, dtype=np.float64)
        if table.ndim != 2:
            raise ValueError(f"table must be 2-D, got shape {table.shape}")
        num_rows, dim = table.shape
        bag = cls(
            num_rows, dim, tt_rank=tt_rank, num_cores=num_cores, **kwargs
        )
        padded = np.zeros((bag.spec.padded_rows, dim), dtype=np.float64)
        padded[:num_rows] = table
        bag.tt = TTCores.from_dense(
            padded, bag.spec.row_shape, bag.spec.col_shape, tt_rank
        )
        # TT-SVD may achieve lower ranks than requested.
        bag.spec = bag.tt.spec
        bag.version += 1  # cores replaced wholesale
        return bag

    # ------------------------------------------------------------------
    # forward
    # ------------------------------------------------------------------
    def _lookup(self, idx: np.ndarray) -> Tuple[np.ndarray, Dict[str, Any]]:
        plan = build_reuse_plan(idx, self.spec.row_shape)
        self.last_plan = plan
        if self.enable_reuse:
            rows_unique, left_stages = self._forward_reused(plan)
            return rows_unique[plan.row_inverse], {
                "plan": plan,
                "left_stages": left_stages,  # per unique prefix
                "reused": True,
            }
        occ_tt_idx = row_index_to_tt(idx, self.spec.row_shape)
        rows, left_partials = tt_chain_forward(self.tt.cores, occ_tt_idx)
        return rows, {
            "plan": plan,
            "occ_tt_idx": occ_tt_idx,
            "occ_left_partials": left_partials,
            "reused": False,
        }

    def _forward_reused(
        self, plan: ReusePlan
    ) -> Tuple[np.ndarray, List[np.ndarray]]:
        """Compute unique rows via the prefix Reuse Buffer.

        Returns ``(unique_rows_values, left_stages)`` where
        ``left_stages[k]`` is the product of cores ``0..k`` for each
        unique prefix (the Reuse Buffer content at stage ``k``).
        """
        cores = self.tt.cores
        d = self.spec.num_cores
        bk = get_backend()
        plan_chain = get_plan_cache().chain_plan(
            "chain_forward", tuple(c.shape for c in cores)
        )
        with bk.zone(ZONE_EFFTT_FORWARD):
            # Batched partial product over unique prefixes only.
            left = bk.gather_rows(cores[0], plan.prefix_tt_indices[0])  # (P,1,n1,R1)
            num_prefixes = left.shape[0]
            left = left.reshape(num_prefixes, -1, left.shape[-1])
            left_stages = [left]
            for stage in plan_chain.stages[1 : d - 1]:
                k = stage.core_index
                slice_k = bk.gather_rows(cores[k], plan.prefix_tt_indices[k])
                # batched GEMM over unique prefixes only (the Reuse Buffer
                # fill of Algorithm 1).
                left = bk.matmul(
                    left, slice_k.reshape(num_prefixes, stage.r_in, stage.out_width)
                ).reshape(num_prefixes, -1, stage.r_out)
                left_stages.append(left)
            # Final core applied per unique row, gathering its prefix partial.
            partial = bk.gather_rows(left, plan.prefix_ids)  # (U, A, R_{d-1})
            last = bk.gather_rows(cores[d - 1], plan.tt_indices[d - 1])
            last = last.reshape(last.shape[0], last.shape[1], -1)
            rows_unique = bk.matmul(partial, last)  # (U, A, n_d)
            rows_unique = rows_unique.reshape(rows_unique.shape[0], -1)
        return rows_unique, left_stages

    # ------------------------------------------------------------------
    # backward
    # ------------------------------------------------------------------
    def _accumulate(
        self, saved: Dict[str, Any], row_grads: np.ndarray
    ) -> Dict[str, Any]:
        plan: ReusePlan = saved["plan"]
        bk = get_backend()

        if self.enable_grad_aggregation:
            # In-advance aggregation: sum occurrence gradients into one
            # gradient per *unique* row before the expensive chain rule.
            with bk.zone(ZONE_EFFTT_BACKWARD):
                agg = bk.zeros(
                    (plan.num_unique_rows, self.embedding_dim),
                    dtype=row_grads.dtype,
                )
                bk.scatter_add_rows(agg, plan.row_inverse, row_grads)
            tt_idx = plan.tt_indices
            left_partials = self._unique_left_partials(saved, plan)
            slice_grads = tt_chain_backward(
                self.tt.cores,
                tt_idx,
                left_partials,
                agg,
                self.spec.col_shape,
                zone=ZONE_EFFTT_BACKWARD,
            )
        else:
            # Ablation path: per-occurrence chain rule, as TT-Rec does.
            if saved["reused"]:
                tt_idx = tuple(
                    arr[plan.row_inverse] for arr in plan.tt_indices
                )
                left_partials = [
                    stage[plan.prefix_ids][plan.row_inverse]
                    for stage in saved["left_stages"]
                ]
            else:
                tt_idx = saved["occ_tt_idx"]
                left_partials = saved["occ_left_partials"]
            slice_grads = tt_chain_backward(
                self.tt.cores,
                tt_idx,
                left_partials,
                row_grads,
                self.spec.col_shape,
                zone=ZONE_EFFTT_BACKWARD,
            )

        if self.enable_fused_update:
            # Defer only the scatter; step() applies it in place without
            # materializing core-sized gradient arrays.
            return {
                "mode": "fused",
                "tt_idx": tt_idx,
                "slice_grads": slice_grads,
            }
        with bk.zone(ZONE_EFFTT_BACKWARD):
            core_grads = [
                bk.zeros(core.shape, dtype=core.dtype)
                for core in self.tt.cores
            ]
            for k, grads_k in enumerate(slice_grads):
                bk.scatter_add_rows(core_grads[k], tt_idx[k], grads_k)
        return {"mode": "dense", "core_grads": core_grads}

    def _unique_left_partials(
        self, saved: Dict[str, Any], plan: ReusePlan
    ) -> List[np.ndarray]:
        """Left-partial chain per unique row for the backward contraction."""
        if saved["reused"]:
            bk = get_backend()
            with bk.zone(ZONE_EFFTT_BACKWARD):
                return [
                    bk.gather_rows(stage, plan.prefix_ids)
                    for stage in saved["left_stages"]
                ]
        # Reuse disabled: recompute the (cheaper) chain over unique rows.
        _, left_partials = tt_chain_forward(
            self.tt.cores, plan.tt_indices, zone=ZONE_EFFTT_BACKWARD
        )
        return left_partials

    # ------------------------------------------------------------------
    # update
    # ------------------------------------------------------------------
    def pop_pending_update(self) -> Dict[str, Any]:
        """Detach the captured sparse update without applying it.

        Used by the data-parallel trainer (§V-A): replicas exchange
        pending updates (the TT-gradient AllReduce) and then apply the
        merged set via :meth:`apply_pending_update`.
        """
        pending: Dict[str, Any] = self._pop_pending()
        return pending

    def apply_pending_update(
        self, pending: Dict[str, Any], lr: float, scale: float = 1.0
    ) -> None:
        """Apply a (possibly remote) sparse update scaled by ``scale``."""
        self._apply(pending, lr, scale)
        self.version += 1

    def _apply(
        self, pending: Dict[str, Any], lr: float, scale: float = 1.0
    ) -> None:
        if self.optimizer == "adagrad":
            if scale != 1.0:
                raise ValueError(
                    "adagrad updates are stateful and cannot be rescaled; "
                    "use the sgd optimizer for data-parallel training"
                )
            self._apply_adagrad(pending, lr)
            return
        step_size = lr * scale
        bk = get_backend()
        if pending["mode"] == "fused":
            with bk.zone(ZONE_FUSED_UPDATE):
                for k, grads_k in enumerate(pending["slice_grads"]):
                    bk.scatter_add_rows(
                        self.tt.cores[k],
                        pending["tt_idx"][k],
                        grads_k,
                        scale=-step_size,
                    )
        else:
            with bk.zone(ZONE_OPTIMIZER):
                for core, grad in zip(self.tt.cores, pending["core_grads"]):
                    bk.axpy(core, grad, -step_size)

    def _apply_adagrad(self, pending: Dict[str, Any], lr: float) -> None:
        """Fused row-wise Adagrad over TT slices.

        Sparse gradients are coalesced (duplicate slice rows summed)
        before squaring — PyTorch's sparse-Adagrad convention — then
        the accumulator and cores are updated with one gather/scatter
        per core.
        """
        assert self._adagrad_acc is not None
        bk = get_backend()
        if pending["mode"] == "fused":
            with bk.zone(ZONE_FUSED_UPDATE):
                for k, grads_k in enumerate(pending["slice_grads"]):
                    unique, summed = coalesce_rows(pending["tt_idx"][k], grads_k)
                    acc_flat = self._adagrad_acc[k].reshape(
                        self._adagrad_acc[k].shape[0], -1
                    )
                    core_flat = self.tt.cores[k].reshape(
                        self.tt.cores[k].shape[0], -1
                    )
                    acc_flat[unique] += summed**2
                    core_flat[unique] -= lr * summed / (
                        np.sqrt(acc_flat[unique]) + self.adagrad_eps
                    )
        else:
            with bk.zone(ZONE_OPTIMIZER):
                for core, acc, grad in zip(
                    self.tt.cores, self._adagrad_acc, pending["core_grads"]
                ):
                    acc += grad**2
                    core -= lr * grad / (np.sqrt(acc) + self.adagrad_eps)

    def backward_and_step(self, grad_output: np.ndarray, lr: float) -> None:
        """Fused backward + update in one call (the paper's fused kernel)."""
        self.backward(grad_output)
        self.step(lr)

    # ------------------------------------------------------------------
    # CompressedEmbedding protocol
    # ------------------------------------------------------------------
    def state_arrays(self) -> Dict[str, np.ndarray]:
        """Live cores (+ adagrad accumulators) — callers copy to persist.

        Key names (``core{k}``, ``adagrad{k}``) match the resilience
        checkpoint layout so recovery stays bitwise across the refactor.
        """
        arrays = super().state_arrays()
        if self._adagrad_acc is not None:
            for k, acc in enumerate(self._adagrad_acc):
                arrays[f"adagrad{k}"] = acc
        return arrays

    def _spec_params(self) -> Dict[str, SpecParamValue]:
        return {**super()._spec_params(), "optimizer": self.optimizer}
