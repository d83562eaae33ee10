"""The DLRM model (paper Figure 2) with pluggable embedding backends.

Forward path::

    dense ──► bottom MLP ─┐
                          ├─► dot interaction ─► top MLP ─► logit
    sparse ─► embeddings ─┘

The embedding layer is a list of :class:`EmbeddingBagBase` objects, so
swapping ``nn.EmbeddingBag`` for the Eff-TT table is literally a
constructor argument — the paper's drop-in-replacement claim.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.data.dataloader import Batch
from repro.embeddings.base import EmbeddingBagBase
from repro.embeddings.registry import build_bag
from repro.models.config import DLRMConfig, EmbeddingBackend, backend_knobs
from repro.nn.interaction import DotInteraction
from repro.nn.loss import BCEWithLogitsLoss
from repro.nn.mlp import MLP
from repro.nn.module import Module
from repro.nn.optim import SGD
from repro.utils.rng import RngLike, spawn_rngs

__all__ = [
    "DLRM",
    "TrainStepResult",
    "build_embedding_bag",
    "table_seeds",
]


def build_embedding_bag(
    backend: EmbeddingBackend,
    num_rows: int,
    embedding_dim: int,
    tt_rank: int,
    seed: RngLike = 0,
    compress_rate: float = 0.25,
    **kwargs,
) -> EmbeddingBagBase:
    """Construct one embedding bag of the requested backend.

    ``tt_rank`` and ``compress_rate`` reach only the strategies that
    declare them (:attr:`EmbeddingBagBase.config_knobs`: TT tables take
    the rank, hash/ROBE size their defaults from the rate); explicit
    strategy kwargs (``num_buckets``, ``array_size``, ``num_codes``,
    ...) pass through and override them.
    """
    kind = EmbeddingBackend(backend).value
    return build_bag(
        kind,
        num_rows,
        embedding_dim,
        seed=seed,
        **backend_knobs(kind, tt_rank, compress_rate),
        **kwargs,
    )


def table_seeds(seed: RngLike, num_tables: int) -> List[np.random.Generator]:
    """The per-table child generators ``DLRM(config, seed)`` builds its bags from.

    Children 0 and 1 of the master seed go to the two MLPs; table ``t``
    takes child ``2 + t``.  Bags built from these are the bags a
    same-seed model builds for itself.
    """
    return spawn_rngs(seed, 2 + num_tables)[2:]


@dataclass(frozen=True)
class TrainStepResult:
    """Outcome of one training step."""

    loss: float
    batch_size: int


class DLRM(Module):
    """Deep Learning Recommendation Model.

    Parameters
    ----------
    config:
        Architecture description.
    seed:
        Master RNG seed; MLPs and every table get independent child
        generators so models with different backends share MLP weights
        when built with the same seed (needed for apples-to-apples
        convergence comparisons, Figure 15).
    embedding_bags:
        Pre-built bags to use instead of constructing from the config
        (the parameter-server path injects host-resident tables here).
        Build them at ``config.dtype``: a bag at another dtype still
        works, but its rows are cast where the interaction stacks them.

    Every component — both MLPs, every bag, the interaction and the
    loss — runs at ``config.dtype``; a batch's float64 dense features
    and labels are cast once, where the bottom MLP and the loss take
    them in.
    """

    def __init__(
        self,
        config: DLRMConfig,
        seed: RngLike = 0,
        embedding_bags: Optional[Sequence[EmbeddingBagBase]] = None,
    ) -> None:
        super().__init__()
        self.config = config
        dtype = config.dtype
        rngs = spawn_rngs(seed, 2 + config.num_tables)
        self.bottom_mlp = self.register_module(
            "bottom_mlp", MLP(config.bottom_mlp_sizes, seed=rngs[0], dtype=dtype)
        )
        self.top_mlp = self.register_module(
            "top_mlp", MLP(config.top_mlp_sizes, seed=rngs[1], dtype=dtype)
        )
        self.interaction = DotInteraction(dtype=dtype)
        self.loss_fn = BCEWithLogitsLoss(dtype=dtype)
        if embedding_bags is not None:
            bags = list(embedding_bags)
            if len(bags) != config.num_tables:
                raise ValueError(
                    f"expected {config.num_tables} bags, got {len(bags)}"
                )
            for t, bag in enumerate(bags):
                if (bag.num_embeddings, bag.embedding_dim) != (
                    config.table_rows[t],
                    config.embedding_dim,
                ):
                    raise ValueError(
                        f"bag {t} shape ({bag.num_embeddings}, "
                        f"{bag.embedding_dim}) does not match config "
                        f"({config.table_rows[t]}, {config.embedding_dim})"
                    )
            self.embedding_bags: List[EmbeddingBagBase] = bags
        else:
            self.embedding_bags = [
                build_embedding_bag(
                    config.backend_for_table(t),
                    rows,
                    config.embedding_dim,
                    config.tt_rank,
                    seed=rngs[2 + t],
                    compress_rate=config.compress_rate,
                    dtype=dtype,
                )
                for t, rows in enumerate(config.table_rows)
            ]

    # ------------------------------------------------------------------
    # forward / backward
    # ------------------------------------------------------------------
    def forward(self, batch: Batch) -> np.ndarray:
        """Compute logits for a batch; returns ``(B,)``."""
        if batch.num_tables != self.config.num_tables:
            raise ValueError(
                f"batch has {batch.num_tables} sparse features, model expects "
                f"{self.config.num_tables}"
            )
        dense_out = self.bottom_mlp.forward(batch.dense)
        pooled = [
            bag.forward(idx, off)
            for bag, idx, off in zip(
                self.embedding_bags, batch.sparse_indices, batch.sparse_offsets
            )
        ]
        interacted = self.interaction.forward(dense_out, pooled)
        logits = self.top_mlp.forward(interacted)
        return logits.reshape(-1)

    def backward(self, grad_logits: np.ndarray) -> None:
        """Backpropagate a ``(B,)`` logit gradient through all components."""
        grad = np.asarray(grad_logits).reshape(-1, 1)
        grad_interacted = self.top_mlp.backward(grad)
        grad_dense_out, grad_pooled = self.interaction.backward(grad_interacted)
        self.bottom_mlp.backward(grad_dense_out)
        for bag, g in zip(self.embedding_bags, grad_pooled):
            bag.backward(g)

    # ------------------------------------------------------------------
    # training / evaluation
    # ------------------------------------------------------------------
    def train_step(self, batch: Batch, lr: float) -> TrainStepResult:
        """One SGD step over a batch; returns the pre-update loss."""
        logits = self.forward(batch)
        loss = self.loss_fn.forward(logits, batch.labels)
        self.backward(self.loss_fn.backward())
        self.apply_gradients(lr)
        return TrainStepResult(loss=loss, batch_size=batch.batch_size)

    def apply_gradients(self, lr: float) -> None:
        """SGD update for MLPs and every embedding bag, then clear grads."""
        SGD(self.parameters(), lr=lr).step()
        self.zero_grad()
        for bag in self.embedding_bags:
            bag.step(lr)

    def predict_proba(self, batch: Batch) -> np.ndarray:
        """Click probabilities without touching training state caches."""
        probs = BCEWithLogitsLoss.predict_proba(self.forward(batch))
        return probs

    def evaluate(self, batches: Sequence[Batch]) -> Dict[str, float]:
        """Loss / accuracy / AUC over evaluation batches."""
        losses: List[float] = []
        all_probs: List[np.ndarray] = []
        all_labels: List[np.ndarray] = []
        for batch in batches:
            logits = self.forward(batch)
            losses.append(self.loss_fn.forward(logits, batch.labels))
            self.loss_fn.backward()  # clear cached state
            all_probs.append(BCEWithLogitsLoss.predict_proba(logits))
            all_labels.append(batch.labels)
        probs = np.concatenate(all_probs)
        labels = np.concatenate(all_labels)
        accuracy = float(((probs >= 0.5) == (labels >= 0.5)).mean())
        return {
            "loss": float(np.mean(losses)),
            "accuracy": accuracy,
            "auc": roc_auc(labels, probs),
        }

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------
    def embedding_nbytes(self) -> int:
        """Total embedding-parameter footprint in bytes."""
        return sum(bag.nbytes for bag in self.embedding_bags)

    def mlp_nbytes(self) -> int:
        return sum(p.data.nbytes for p in self.parameters())


def roc_auc(labels: np.ndarray, scores: np.ndarray) -> float:
    """Area under the ROC curve via the rank-sum formulation.

    Returns 0.5 when one class is absent (undefined AUC).  Ranks and
    their sums are float64 whatever the model's dtype: float32 stops
    counting exactly at 2**24.
    """
    labels = np.asarray(labels, dtype=np.float64).reshape(-1)  # reprolint: disable=REP003 (AUC)
    scores = np.asarray(scores, dtype=np.float64).reshape(-1)  # reprolint: disable=REP003 (AUC)
    if labels.shape != scores.shape:
        raise ValueError("labels and scores must have equal shape")
    positives = labels >= 0.5
    n_pos = int(positives.sum())
    n_neg = labels.size - n_pos
    if n_pos == 0 or n_neg == 0:
        return 0.5
    order = np.argsort(scores, kind="mergesort")
    ranks = np.empty(labels.size, dtype=np.float64)  # reprolint: disable=REP003 (AUC)
    # average ranks for ties
    sorted_scores = scores[order]
    ranks_sorted = np.arange(1, labels.size + 1, dtype=np.float64)  # reprolint: disable=REP003 (AUC)
    boundaries = np.flatnonzero(np.diff(sorted_scores) != 0) + 1
    groups = np.split(ranks_sorted, boundaries)
    ranks[order] = np.concatenate([np.full(g.size, g.mean()) for g in groups])
    rank_sum = ranks[positives].sum()
    return float((rank_sum - n_pos * (n_pos + 1) / 2.0) / (n_pos * n_neg))
