"""Embedding-table implementations.

This package contains the paper's central artifact and its baselines:

* :class:`DenseEmbeddingBag` — uncompressed table, the PyTorch
  ``nn.EmbeddingBag`` equivalent (used by the DLRM / FAE baselines).
* :class:`TTEmbeddingBag` — TT-Rec-style Tensor-Train table: compressed
  storage, but naive per-occurrence lookup and per-occurrence backward
  with materialized core gradients.
* :class:`EffTTEmbeddingBag` — the paper's Eff-TT table (§III): batch
  reuse buffer over shared TT-index prefixes, in-advance gradient
  aggregation over unique indices, and a fused core update.
* :class:`HashEmbeddingBag` / :class:`RobeEmbeddingBag` /
  :class:`PQEmbeddingBag` — the compressed-embedding zoo: mod-hash
  bucketing, ROBE shared-array chunks, and DPQ-style product
  quantization.
* :class:`EmbeddingCache` — the LC-managed GPU-side cache that resolves
  the read-after-write conflict in pipelined training (§V-B).

All bags are one :class:`EmbeddingBagBase` — the shared sum-pooling
shell: ``forward(indices, offsets) -> (B, dim)``,
``backward(grad_output)`` capturing the sparse update, ``step(lr)``
applying it, plus the surface (footprint, state arrays,
:class:`CompressionSpec`, version counter, pure row reconstruction)
that serialization, serving, resilience and placement program against.  A
strategy class supplies only its row codec, and every name -> class
decision goes through the registry (:data:`BAG_CLASSES`,
:func:`bag_class`, :func:`build_bag_from_spec`).  Which table gets
which strategy, and where it lives, is decided in
:mod:`repro.embeddings.planner`.
"""

from repro.embeddings.base import EmbeddingBagBase, normalize_offsets, segment_sum
from repro.embeddings.protocol import CompressionSpec
from repro.embeddings.dense import DenseEmbeddingBag
from repro.embeddings.hash_embedding import HashEmbeddingBag
from repro.embeddings.robe_embedding import RobeEmbeddingBag
from repro.embeddings.pq_embedding import PQEmbeddingBag
from repro.embeddings.tt_indices import (
    prefix_keys,
    row_index_to_tt,
    tt_to_row_index,
)
from repro.embeddings.tt_core import TTCores, TTSpec, tt_svd
from repro.embeddings.tt_embedding import TTEmbeddingBag
from repro.embeddings.reuse_buffer import ReusePlan, build_reuse_plan
from repro.embeddings.eff_tt_embedding import EffTTEmbeddingBag
from repro.embeddings.registry import BAG_CLASSES, bag_class, build_bag_from_spec
from repro.embeddings.cache import EmbeddingCache
from repro.embeddings.inference import HotRowCachedLookup, StaleCacheError
from repro.embeddings.planner import (
    ModelPlan,
    TablePlan,
    build_bags,
    plan_fixed_fraction,
    plan_hbm_pack,
    plan_under_budget,
    table_bytes,
)

__all__ = [
    "EmbeddingBagBase",
    "normalize_offsets",
    "segment_sum",
    "CompressionSpec",
    "DenseEmbeddingBag",
    "HashEmbeddingBag",
    "RobeEmbeddingBag",
    "PQEmbeddingBag",
    "BAG_CLASSES",
    "bag_class",
    "TablePlan",
    "ModelPlan",
    "table_bytes",
    "plan_hbm_pack",
    "plan_fixed_fraction",
    "plan_under_budget",
    "build_bags",
    "build_bag_from_spec",
    "row_index_to_tt",
    "tt_to_row_index",
    "prefix_keys",
    "TTSpec",
    "TTCores",
    "tt_svd",
    "TTEmbeddingBag",
    "ReusePlan",
    "build_reuse_plan",
    "EffTTEmbeddingBag",
    "EmbeddingCache",
    "HotRowCachedLookup",
    "StaleCacheError",
]
