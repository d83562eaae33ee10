"""The one ``kind`` -> bag-class table.

Every place that must turn a strategy *name* into a bag — the model
config's :class:`~repro.models.config.EmbeddingBackend`, the
auto-tuner's plan entries, checkpoint ``bag{t}/kind`` tags, a
:class:`~repro.embeddings.protocol.CompressionSpec` — resolves it
here.  Adding a strategy is one :class:`EmbeddingBagBase` subclass in
its own module plus its line in :data:`BAG_CLASSES`.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Type

from repro.backend.protocol import DEFAULT_DTYPE, DTypeLike
from repro.embeddings.base import EmbeddingBagBase
from repro.embeddings.dense import DenseEmbeddingBag
from repro.embeddings.eff_tt_embedding import EffTTEmbeddingBag
from repro.embeddings.hash_embedding import HashEmbeddingBag
from repro.embeddings.pq_embedding import PQEmbeddingBag
from repro.embeddings.protocol import CompressionSpec
from repro.embeddings.robe_embedding import RobeEmbeddingBag
from repro.embeddings.tt_embedding import TTEmbeddingBag
from repro.utils.rng import RngLike

__all__ = ["BAG_CLASSES", "bag_class", "build_bag", "build_bag_from_spec"]

#: Every parameter-owning strategy, keyed by its ``kind``.
BAG_CLASSES: Dict[str, Type[EmbeddingBagBase]] = {
    cls.kind: cls
    for cls in (
        DenseEmbeddingBag,
        TTEmbeddingBag,
        EffTTEmbeddingBag,
        HashEmbeddingBag,
        RobeEmbeddingBag,
        PQEmbeddingBag,
    )
}


def bag_class(kind: str) -> Type[EmbeddingBagBase]:
    """The bag class registered under ``kind`` (``ValueError`` if none)."""
    try:
        return BAG_CLASSES[kind]
    except KeyError:
        raise ValueError(
            f"unknown embedding kind {kind!r}; known: {sorted(BAG_CLASSES)}"
        ) from None


def build_bag(
    kind: str, num_embeddings: int, embedding_dim: int, **kwargs: Any
) -> EmbeddingBagBase:
    """Construct a ``kind`` bag from its own constructor keywords."""
    build: Callable[..., EmbeddingBagBase] = bag_class(kind)
    return build(num_embeddings, embedding_dim, **kwargs)


def build_bag_from_spec(
    spec: CompressionSpec,
    seed: RngLike = 0,
    dtype: DTypeLike = DEFAULT_DTYPE,
) -> EmbeddingBagBase:
    """Construct an architecturally identical bag from its spec.

    Spec params are the constructor's keywords, for every strategy; the
    returned bag's ``state_arrays()`` accept the original bag's arrays
    bitwise (used by checkpoint restore).
    """
    return build_bag(
        spec.kind,
        spec.num_embeddings,
        spec.embedding_dim,
        seed=seed,
        dtype=dtype,
        **spec.param_dict(),
    )
