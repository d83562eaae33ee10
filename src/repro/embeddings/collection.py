"""Placement-aware embedding collection.

A DLRM has one bag per sparse feature, and in EL-Rec's system those
bags live in different places: Eff-TT-compressed in HBM, small dense
tables in HBM, or dense-in-host behind the parameter server (§V-A).
:class:`EmbeddingCollection` materializes a
:class:`~repro.system.memory.PlacementPlan` into the concrete bag list
a :class:`~repro.models.dlrm.DLRM` consumes, together with the
host-table map the PS trainers need — replacing the hand-rolled
assembly scattered across experiments.

Optionally carries per-table index bijections (§IV) and applies them on
the way in, so callers keep original ids everywhere.
"""

from __future__ import annotations

from collections import Counter
from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.data.dataloader import Batch
from repro.embeddings.autotune import CompressionPlan, build_bag_from_plan
from repro.embeddings.base import EmbeddingBagBase
from repro.embeddings.registry import build_bag
from repro.reorder.bijection import IndexBijection
from repro.system.memory import PlacementDecision, PlacementPlan
from repro.system.parameter_server import HostBackedEmbeddingBag
from repro.utils.rng import RngLike, spawn_rngs

__all__ = ["EmbeddingCollection"]


class EmbeddingCollection:
    """Concrete bag set for one model, built from a placement plan.

    Parameters
    ----------
    bags:
        One bag per sparse feature, in feature order.
    host_table_map:
        ``{feature_idx: server_table_idx}`` for host-resident tables.
    bijections:
        Optional per-feature index bijections (None = identity).
    """

    def __init__(
        self,
        bags: Sequence[EmbeddingBagBase],
        host_table_map: Optional[Dict[int, int]] = None,
        bijections: Optional[Sequence[Optional[IndexBijection]]] = None,
    ) -> None:
        self.bags: List[EmbeddingBagBase] = list(bags)
        self.host_table_map = dict(host_table_map or {})
        for pos in self.host_table_map:
            if not 0 <= pos < len(self.bags):
                raise ValueError(f"host table index {pos} out of range")
            if not isinstance(self.bags[pos], HostBackedEmbeddingBag):
                raise TypeError(
                    f"bag {pos} mapped to the server must be a "
                    "HostBackedEmbeddingBag"
                )
        if bijections is None:
            bijections = [None] * len(self.bags)
        if len(bijections) != len(self.bags):
            raise ValueError(
                f"expected {len(self.bags)} bijections, got {len(bijections)}"
            )
        self.bijections = list(bijections)

    # ------------------------------------------------------------------
    @classmethod
    def from_placement(
        cls,
        plan: PlacementPlan,
        embedding_dim: int,
        tt_rank: int = 32,
        seed: RngLike = 0,
        bijections: Optional[Sequence[Optional[IndexBijection]]] = None,
    ) -> "EmbeddingCollection":
        """Build bags according to a placement plan.

        ``GPU_TT`` tables become :class:`EffTTEmbeddingBag` (with the
        plan's TT spec shapes), ``GPU_DENSE`` become
        :class:`DenseEmbeddingBag`, and ``HOST_DENSE`` become
        :class:`HostBackedEmbeddingBag` views numbered in plan order
        (construct the matching
        :class:`~repro.system.parameter_server.HostParameterServer`
        with :meth:`host_table_rows`).
        """
        rngs = spawn_rngs(seed, len(plan.placements))
        bags: List[EmbeddingBagBase] = []
        host_map: Dict[int, int] = {}
        next_server_idx = 0
        for placement, rng in zip(plan.placements, rngs):
            if placement.decision is PlacementDecision.GPU_TT:
                spec = placement.tt_spec
                assert spec is not None
                bags.append(
                    build_bag(
                        "eff_tt",
                        placement.num_rows,
                        embedding_dim,
                        tt_rank=tt_rank,
                        row_shape=list(spec.row_shape),
                        col_shape=list(spec.col_shape),
                        seed=rng,
                    )
                )
            elif placement.decision is PlacementDecision.GPU_DENSE:
                bags.append(
                    build_bag(
                        "dense", placement.num_rows, embedding_dim, seed=rng
                    )
                )
            else:
                bags.append(
                    HostBackedEmbeddingBag(placement.num_rows, embedding_dim)
                )
                host_map[placement.table_idx] = next_server_idx
                next_server_idx += 1
        return cls(bags, host_map, bijections)

    # ------------------------------------------------------------------
    @classmethod
    def from_compression_plan(
        cls,
        plan: CompressionPlan,
        seed: RngLike = 0,
        bijections: Optional[Sequence[Optional[IndexBijection]]] = None,
    ) -> "EmbeddingCollection":
        """Build bags from an auto-tuner :class:`CompressionPlan`.

        Every table is worker-resident (the memory budget already made
        it fit); each entry's strategy and searched parameters become
        the concrete bag via
        :func:`~repro.embeddings.autotune.build_bag_from_plan`, with
        one child RNG per table so the result is deterministic in the
        plan and the seed.
        """
        rngs = spawn_rngs(seed, len(plan.tables))
        bags: List[EmbeddingBagBase] = [
            build_bag_from_plan(entry, plan.embedding_dim, seed=rng)
            for entry, rng in zip(plan.tables, rngs)
        ]
        return cls(bags, host_table_map=None, bijections=bijections)

    # ------------------------------------------------------------------
    @property
    def num_tables(self) -> int:
        return len(self.bags)

    def host_table_rows(self) -> List[int]:
        """Cardinalities of the host tables, in server order."""
        ordered = sorted(self.host_table_map.items(), key=lambda kv: kv[1])
        return [self.bags[pos].num_embeddings for pos, _ in ordered]

    def remap(self, batch: Batch) -> Batch:
        """Apply the per-table bijections to a batch (if any)."""
        if all(b is None for b in self.bijections):
            return batch
        return batch.remap(self.bijections)

    def nbytes_local(self) -> int:
        """Worker-resident parameter bytes (host tables excluded)."""
        return sum(
            bag.nbytes
            for pos, bag in enumerate(self.bags)
            if pos not in self.host_table_map
        )

    def summary(self) -> Dict[str, int]:
        """Per-strategy table counts; values sum to :attr:`num_tables`."""
        kinds = Counter(bag.compression_spec().kind for bag in self.bags)
        return {
            "tt_tables": kinds["tt"] + kinds["eff_tt"],
            "dense_tables": kinds["dense"],
            "hash_tables": kinds["hash"],
            "robe_tables": kinds["robe"],
            "pq_tables": kinds["pq"],
            "host_tables": len(self.host_table_map),
        }
