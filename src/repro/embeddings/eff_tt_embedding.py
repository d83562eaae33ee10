"""Eff-TT embedding bag — the paper's core contribution (§III).

Drop-in replacement for ``nn.EmbeddingBag`` backed by Tensor-Train
cores, with the three optimizations of the paper, each independently
toggleable for the ablation studies (Figures 14, 17, 18):

``enable_reuse``
    Two-level intermediate-result reuse (§III-A).  The forward pass
    deduplicates full rows across the batch (sample- *and* batch-level)
    and computes the partial product of the first ``d-1`` cores once
    per unique TT-index prefix — the Reuse Buffer — with one
    ``gather_matmul`` per core: a GEMM per *distinct* TT slice over the
    prefixes that address it, never a gathered copy of the slices.  The
    :class:`ReusePlan` (Algorithm 1's pointer preparation) stores every
    level's operand in the order its GEMM groups it by, so each kernel
    reads and writes in place; between the buffer and the last core the
    prefixes are expanded into the unique rows, laid out by last digit.
``enable_grad_aggregation``
    In-advance gradient aggregation (§III-B).  Embedding-row gradients
    are summed over unique indices *before* the chain-rule contraction
    into TT cores, shrinking the expensive per-row tensor
    multiplications from one per occurrence to one per unique row.  The
    backward then runs the forward's GEMMs in reverse on the operands
    the forward kept: the last core's slice gradients and the rows'
    gradient with respect to the buffer are per unique row, that
    gradient is summed into each row's prefix, and every earlier core is
    contracted per unique *prefix*.  Each slice-gradient GEMM reduces
    over the rows sharing a TT slice inside the GEMM itself
    (``matmul_segment_sum``), so the pending update holds one gradient
    block per distinct slice, not one per row.
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
from repro.backend.groups import group_rows
from repro.backend.plan_cache import ChainStage
from repro.backend.protocol import DEFAULT_DTYPE, DTypeLike
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
        Core / gradient floating dtype (default
        :data:`~repro.backend.DEFAULT_DTYPE`).  Forward, backward and
        the fused update all stay at this dtype — no silent upcasts.

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
        dtype: DTypeLike = DEFAULT_DTYPE,
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
        # TT-SVD runs in float64 whatever the bag's dtype; the cores are
        # cast to it once, at the end.
        table = np.asarray(table, dtype=np.float64)  # reprolint: disable=REP003 (TT-SVD)
        if table.ndim != 2:
            raise ValueError(f"table must be 2-D, got shape {table.shape}")
        num_rows, dim = table.shape
        bag = cls(
            num_rows, dim, tt_rank=tt_rank, num_cores=num_cores, **kwargs
        )
        padded = np.zeros((bag.spec.padded_rows, dim), dtype=table.dtype)
        padded[:num_rows] = table
        bag.tt = TTCores.from_dense(
            padded, bag.spec.row_shape, bag.spec.col_shape, tt_rank,
            dtype=bag.dtype,
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
            rows, operands, last_left = self._forward_reused(plan)
            return rows[plan.occurrence_slots], {
                "plan": plan,
                "operands": operands,  # per unique prefix, as each level read it
                "last_left": last_left,  # the last stage, per unique row
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

    def _chain_stages(self, kind: str) -> Tuple[ChainStage, ...]:
        plan = get_plan_cache().chain_plan(
            kind, tuple(c.shape for c in self.tt.cores)
        )
        return plan.stages

    def _slice_table(self, stage: ChainStage) -> np.ndarray:
        """Core ``k`` viewed as one ``(R_{k-1}, n_k * R_k)`` matrix per slice."""
        core = self.tt.cores[stage.core_index]
        return core.reshape(core.shape[0], stage.r_in, stage.out_width)

    def _reuse_buffer(
        self, plan: ReusePlan, stages: Sequence[ChainStage], zone: str
    ) -> Tuple[List[np.ndarray], np.ndarray]:
        """Fill the Reuse Buffer for the plan's unique prefixes.

        Level ``k`` is the product ``L_k`` of cores ``0..k`` per unique
        prefix, ``(P, n_1 * ... * n_k, R_k)``, for ``k = 0..d-2``.  Each
        GEMM level is one GEMM per distinct slice of core ``k`` over the
        prefixes that address it (Algorithm 1's batched GEMM over
        pointer lists), on an operand stored in that level's digit order
        (``plan.prefix_layouts``): no kernel sorts or scatters back.
        Returns the operand of every GEMM level — what the backward
        contracts each core's gradient against — and the top level
        handed out per unique *row*, ``(U, A, R_{d-1})`` in
        ``plan.row_order``: what the final core multiplies in the
        forward and what its slice gradient contracts in the backward.
        """
        bk = get_backend()
        num_prefixes = plan.num_unique_prefixes
        with bk.zone(zone):
            left = bk.gather_rows(self.tt.cores[0], plan.first_slices)
            left = left.reshape(num_prefixes, stages[0].n_k, stages[0].r_out)
            operands = []
            for stage, groups, relayout in zip(
                stages[1:-1], plan.prefix_groups, plan.relayouts
            ):
                if relayout is not None:
                    left = bk.gather_rows(left, relayout)
                operands.append(left)
                left = bk.gather_matmul(
                    left, self._slice_table(stage), groups
                ).reshape(num_prefixes, stage.prefix_width * stage.n_k, stage.r_out)
            return operands, bk.gather_rows(left, plan.expand_index)

    def _forward_reused(
        self, plan: ReusePlan
    ) -> Tuple[np.ndarray, List[np.ndarray], np.ndarray]:
        """Compute unique rows via the prefix Reuse Buffer.

        Returns ``(rows, operands, last_left)``: the unique rows' values
        in ``plan.row_order`` and what :meth:`_reuse_buffer` returned.
        """
        stages = self._chain_stages("chain_forward")
        operands, last_left = self._reuse_buffer(plan, stages, ZONE_EFFTT_FORWARD)
        last = stages[-1]
        bk = get_backend()
        with bk.zone(ZONE_EFFTT_FORWARD):
            # Final core applied per unique row.
            rows = bk.gather_matmul(
                last_left, self._slice_table(last), plan.row_groups
            )  # (U, A, n_d)
        return rows.reshape(plan.num_unique_rows, self.embedding_dim), operands, last_left

    # ------------------------------------------------------------------
    # backward
    # ------------------------------------------------------------------
    def _occurrence_grads(
        self, grad_output: np.ndarray, bag_ids: Optional[np.ndarray]
    ) -> np.ndarray:
        if self.enable_grad_aggregation:
            # Expand the bags straight into unique-row order: the
            # aggregation then sums contiguous segments, and the
            # occurrence list is neither copied nor sorted a second time.
            assert self._saved is not None
            plan: ReusePlan = self._saved[0]["plan"]
            order = plan.occurrence_groups.order
            bag_ids = order if bag_ids is None else bag_ids[order]
        return super()._occurrence_grads(grad_output, bag_ids)

    def _accumulate(
        self, saved: Dict[str, Any], row_grads: np.ndarray
    ) -> Dict[str, Any]:
        """Slice gradients from what :meth:`_occurrence_grads` gathered.

        ``row_grads`` is one row per occurrence — in unique-row order
        when aggregating, in index order otherwise.
        """
        plan: ReusePlan = saved["plan"]
        bk = get_backend()

        if self.enable_grad_aggregation:
            if saved["reused"]:
                operands, last_left = saved["operands"], saved["last_left"]
            else:
                operands, last_left = self._reuse_buffer(
                    plan, self._chain_stages("chain_forward"), ZONE_EFFTT_BACKWARD
                )
            # In-advance aggregation: one summed gradient per unique row,
            # over occurrences already laid out in unique-row order.
            agg = plan.occurrence_groups.laid_out().sum_rows(row_grads)
            # One gradient block per *distinct* slice, already coalesced.
            tt_idx: Sequence[np.ndarray] = plan.slice_ids
            slice_grads = self._aggregated_slice_grads(
                plan, operands, last_left, agg
            )
        else:
            # Ablation path: per-occurrence chain rule, as TT-Rec does.
            if saved["reused"]:
                tt_idx = tuple(
                    arr[plan.row_inverse] for arr in plan.tt_indices
                )
                occurrence_prefixes = plan.prefix_ids[plan.row_inverse]
                left_partials = [
                    operand[slots[occurrence_prefixes]]
                    for operand, slots in zip(saved["operands"], plan.layout_slots)
                ]
                left_partials.append(saved["last_left"][plan.occurrence_slots])
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

    def _aggregated_slice_grads(
        self,
        plan: ReusePlan,
        operands: List[np.ndarray],
        last_left: np.ndarray,
        agg: np.ndarray,
    ) -> List[np.ndarray]:
        """Equation 6 over unique rows, in reverse mode through the Reuse Buffer.

        The forward's GEMMs run backwards on the operands it saved, in
        the layouts it stored them in.  The last core's gradient is one
        segment GEMM over the rows (``last_left^T G``, summed per
        distinct slice); the rows' gradient with respect to the buffer,
        ``G C_last^T``, is summed into each row's prefix
        (``plan.prefix_sum``); then each buffer level does the same at
        the prefix level — one segment GEMM for its core's slices, one
        GEMM per slice for the level below — and core 0's gradient is
        ``dL_0`` summed per distinct slice (``plan.first_core_sum``).
        Both sums are :meth:`~repro.backend.groups.RowGroups.sum_rows`,
        as is the occurrence aggregation in front.  Returns, per
        core, ``(G_k, R_{k-1}, n_k, R_k)`` aligned with
        ``plan.slice_ids[k]``.
        """
        bk = get_backend()
        stages = self._chain_stages("chain_backward")
        last = stages[-1]
        num_prefixes = plan.num_unique_prefixes
        with bk.zone(ZONE_EFFTT_BACKWARD):
            grad = bk.gather_rows(agg, plan.row_order).reshape(
                plan.num_unique_rows, last.prefix_width, last.n_k
            )
            # dSlice[j] = sum_{rows of slice j} left^T G; both operands are
            # stored contraction-major already, so the kernel reads them
            # where they lie.
            slice_grads = [
                bk.matmul_segment_sum(
                    last_left.transpose(0, 2, 1), grad.transpose(0, 2, 1),
                    plan.row_groups,
                ).reshape(-1, last.r_in, last.n_k, last.r_out)
            ]
            # The last core is small (R_{d-1} x n_d per slice): its
            # transpose is copied once, since a GEMM against a strided
            # (n_d, R) slice costs half as much again as a contiguous one.
            transposed = np.ascontiguousarray(
                self._slice_table(last).transpose(0, 2, 1)
            )
            d_left = plan.prefix_sum.sum_rows(
                bk.gather_matmul(grad, transposed, plan.row_groups)
            )
            for stage, groups, operand, relayout in reversed(
                list(zip(stages[1:-1], plan.prefix_groups, operands, plan.relayouts_back))
            ):
                if relayout is not None:
                    d_left = bk.gather_rows(d_left, relayout)
                d_out = d_left.reshape(num_prefixes, stage.prefix_width, stage.out_width)
                slice_grads.append(
                    bk.matmul_segment_sum(
                        operand.transpose(0, 2, 1), d_out.transpose(0, 2, 1), groups
                    ).reshape(-1, stage.r_in, stage.n_k, stage.r_out)
                )
                d_left = bk.gather_matmul(
                    d_out, self._slice_table(stage).transpose(0, 2, 1), groups
                )
            first = stages[0]
            slice_grads.append(
                plan.first_core_sum.sum_rows(d_left).reshape(
                    -1, first.r_in, first.n_k, first.r_out
                )
            )
        slice_grads.reverse()
        return slice_grads

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

        Sparse gradients are coalesced (duplicate slice rows summed;
        a no-op for the aggregated path, whose blocks arrive one per
        slice) before squaring — PyTorch's sparse-Adagrad convention — then
        the accumulator and cores are updated with one gather/scatter
        per core.
        """
        assert self._adagrad_acc is not None
        bk = get_backend()
        if pending["mode"] == "fused":
            with bk.zone(ZONE_FUSED_UPDATE):
                for k, grads_k in enumerate(pending["slice_grads"]):
                    groups = group_rows(pending["tt_idx"][k])
                    unique = groups.ids
                    acc_flat = self._adagrad_acc[k].reshape(
                        self._adagrad_acc[k].shape[0], -1
                    )
                    core_flat = self.tt.cores[k].reshape(
                        self.tt.cores[k].shape[0], -1
                    )
                    summed = groups.sum_rows(grads_k).reshape(
                        unique.size, acc_flat.shape[1]
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
    # Checkpoint surface
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
