"""``CompressionSpec``: the metadata that rebuilds a bag's shape.

Every embedding-table strategy (dense, TT, Eff-TT, hash, ROBE, PQ) is
one :class:`~repro.embeddings.base.EmbeddingBagBase`, and the outer
layers (serialization, serving, resilience, placement) type against
that class.  What a strategy adds on top of the shared shell is its
hyperparameters: :meth:`EmbeddingBagBase.compression_spec` returns them
as a :class:`CompressionSpec`, which round-trips through canonical JSON
and, with :func:`~repro.embeddings.registry.build_bag_from_spec`,
rebuilds an architecturally identical bag whose ``state_arrays()``
accept the original's arrays bitwise.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Dict, Mapping, Tuple, Union

__all__ = [
    "CompressionSpec",
    "SpecParamValue",
]

#: Spec parameter values: scalars or int tuples (TT shapes/ranks).
SpecParamValue = Union[int, float, str, Tuple[int, ...]]


@dataclass(frozen=True)
class CompressionSpec:
    """Strategy metadata sufficient to rebuild a bag's *shape*.

    ``params`` holds strategy-specific hyperparameters (bucket counts,
    TT shapes, hash constants, codebook sizes) — everything needed to
    reconstruct an architecturally identical bag whose
    ``state_arrays()`` accept this bag's arrays bitwise.  Learned
    parameters themselves live in ``state_arrays()``, not here.
    """

    kind: str
    num_embeddings: int
    embedding_dim: int
    params: Tuple[Tuple[str, SpecParamValue], ...] = field(default=())

    def __post_init__(self) -> None:
        # Normalize to sorted key order so equal specs compare equal
        # regardless of construction order (and JSON is canonical).
        object.__setattr__(
            self, "params", tuple(sorted(self.params, key=lambda kv: kv[0]))
        )

    @classmethod
    def create(
        cls,
        kind: str,
        num_embeddings: int,
        embedding_dim: int,
        params: Mapping[str, SpecParamValue] | None = None,
    ) -> "CompressionSpec":
        items = tuple((params or {}).items())
        return cls(kind, int(num_embeddings), int(embedding_dim), items)

    def param(self, key: str) -> SpecParamValue:
        for k, v in self.params:
            if k == key:
                return v
        raise KeyError(f"spec has no param {key!r}")

    def param_dict(self) -> Dict[str, SpecParamValue]:
        return {k: v for k, v in self.params}

    def to_json(self) -> str:
        """Canonical JSON (sorted keys, tuples as lists)."""
        payload = {
            "kind": self.kind,
            "num_embeddings": self.num_embeddings,
            "embedding_dim": self.embedding_dim,
            "params": {
                k: (list(v) if isinstance(v, tuple) else v)
                for k, v in self.params
            },
        }
        return json.dumps(payload, sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "CompressionSpec":
        payload = json.loads(text)
        params: Dict[str, SpecParamValue] = {}
        for k, v in payload.get("params", {}).items():
            params[str(k)] = tuple(int(x) for x in v) if isinstance(
                v, list
            ) else v
        return cls.create(
            str(payload["kind"]),
            int(payload["num_embeddings"]),
            int(payload["embedding_dim"]),
            params,
        )
