"""The ``CompressedEmbedding`` protocol: one interface, many strategies.

EL-Rec's Eff-TT table was this repo's only compression strategy, and
its identity leaked into every layer (model config, serialization,
serving, resilience, placement).  This module turns that
single-implementation assumption into a structural protocol so dense,
TT, Eff-TT, hash, ROBE and PQ tables are interchangeable everywhere a
table is trained, checkpointed, placed, or served.

The protocol is *structural* (PEP 544): no bag inherits from it —
:class:`~repro.embeddings.base.EmbeddingBagBase` implements the members
once for every strategy — and the outer layers type against the
protocol, not the base class.  ``isinstance(bag, CompressedEmbedding)``
works at runtime via ``@runtime_checkable``.

Contract notes
--------------
``state_arrays()`` returns the **live** parameter arrays (not copies),
keyed by short stable names (``weight``, ``core0`` ..., ``codes``).
Callers that persist them must copy; callers that restore may write
in place or go through :meth:`load_state_arrays`.  Key order must be
iterated ``sorted()`` for deterministic payloads (detcheck DET001).

``version`` is a monotonically increasing update counter: every
parameter mutation (``step``/``apply_pending_update``/
``load_state_arrays``) must bump it so hot-row caches
(:class:`~repro.embeddings.inference.HotRowCachedLookup`) can detect
staleness.

``reconstruct_rows`` is the *pure* row materialization used by serving:
it must not touch training state (saved activations, pending grads).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Dict, Mapping, Protocol, Tuple, Union, runtime_checkable

import numpy as np

__all__ = [
    "CompressionSpec",
    "CompressedEmbedding",
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


@runtime_checkable
class CompressedEmbedding(Protocol):
    """Structural interface every embedding-table strategy satisfies.

    EmbeddingBag semantics (sum-pooled ``forward``/``backward``/``step``)
    plus the introspection surface the outer layers need: a byte
    footprint, named state arrays for checkpointing, a rebuildable
    spec, a staleness version counter, and pure row materialization
    for serving.
    """

    num_embeddings: int
    embedding_dim: int
    #: the floating dtype its rows come back at
    dtype: np.dtype
    version: int

    def forward(
        self, indices: np.ndarray, offsets: np.ndarray
    ) -> np.ndarray: ...

    def backward(self, grad_output: np.ndarray) -> None: ...

    def step(self, lr: float) -> None: ...

    def lookup_rows(self, indices: np.ndarray) -> np.ndarray: ...

    def reconstruct_rows(self, indices: np.ndarray) -> np.ndarray: ...

    def memory_bytes(self) -> int: ...

    def state_arrays(self) -> Dict[str, np.ndarray]: ...

    def load_state_arrays(self, arrays: Mapping[str, np.ndarray]) -> None: ...

    def compression_spec(self) -> CompressionSpec: ...
