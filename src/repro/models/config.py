"""DLRM architecture configuration."""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Dict, Sequence, Tuple

import numpy as np

from repro.backend import DEFAULT_DTYPE
from repro.backend.protocol import DTypeLike
from repro.data.datasets import DatasetSpec
from repro.embeddings.planner import table_bytes
from repro.embeddings.registry import bag_class
from repro.nn.interaction import DotInteraction

__all__ = ["EmbeddingBackend", "DLRMConfig", "backend_knobs", "MODEL_DTYPES"]

#: The floating dtypes a model trains and serves at.
MODEL_DTYPES: Tuple[str, ...] = ("float32", "float64")


class EmbeddingBackend(str, enum.Enum):
    """Which embedding-table implementation backs each sparse feature."""

    DENSE = "dense"
    TT = "tt"          # TT-Rec-style naive TT table
    EFF_TT = "eff_tt"  # the paper's Eff-TT table
    HASH = "hash"      # mod-hash bucket table
    ROBE = "robe"      # ROBE shared-array table
    PQ = "pq"          # product-quantization table


def backend_knobs(
    kind: str, tt_rank: int, compress_rate: float
) -> Dict[str, float]:
    """The config knobs ``kind``'s constructor declares (``config_knobs``)."""
    knobs = {"tt_rank": tt_rank, "compress_rate": compress_rate}
    return {name: knobs[name] for name in bag_class(kind).config_knobs}


@dataclass(frozen=True)
class DLRMConfig:
    """Hyper-parameters of one DLRM instance.

    Attributes
    ----------
    num_dense:
        Dense (numerical) input width.
    table_rows:
        Cardinality per sparse feature.
    embedding_dim:
        Shared embedding width (must equal the bottom MLP output).
    bottom_mlp / top_mlp:
        Hidden widths; input/output widths are derived.
    backend:
        Default embedding backend for all tables.
    tt_rank:
        TT rank for compressed backends.
    tt_threshold_rows:
        Tables larger than this use the compressed backend, smaller
        ones stay dense (the paper compresses tables with more than 1M
        rows in the end-to-end comparison, §VI-A).  Above the threshold
        a table is still kept dense when the compressed form would not
        be smaller (:meth:`backend_for_table`).
    compress_rate:
        Target physical/dense size ratio for the hash/ROBE backends'
        default parameter sizing (Hetu-style global knob; explicit
        per-table parameters from a
        :class:`~repro.embeddings.planner.ModelPlan` override it).
    dtype:
        The one floating dtype of the whole model — both MLPs, every
        bag, the interaction, the loss, the parameter-server tables and
        the serving stack (one of :data:`MODEL_DTYPES`; default
        :data:`~repro.backend.DEFAULT_DTYPE`, fp32 as the paper trains).
    """

    num_dense: int
    table_rows: Tuple[int, ...]
    embedding_dim: int = 16
    bottom_mlp: Tuple[int, ...] = (64, 32)
    top_mlp: Tuple[int, ...] = (64, 32)
    backend: EmbeddingBackend = EmbeddingBackend.EFF_TT
    tt_rank: int = 16
    tt_threshold_rows: int = 0
    compress_rate: float = 0.25
    dtype: np.dtype = DEFAULT_DTYPE

    def __post_init__(self) -> None:
        if self.num_dense < 1:
            raise ValueError(f"num_dense must be >= 1, got {self.num_dense}")
        if not self.table_rows:
            raise ValueError("table_rows must not be empty")
        if any(r < 1 for r in self.table_rows):
            raise ValueError(f"table_rows must all be >= 1, got {self.table_rows}")
        if self.embedding_dim < 1:
            raise ValueError(
                f"embedding_dim must be >= 1, got {self.embedding_dim}"
            )
        if not 0.0 < self.compress_rate <= 1.0:
            raise ValueError(
                f"compress_rate must be in (0, 1], got {self.compress_rate}"
            )
        try:
            dtype = None if self.dtype is None else np.dtype(self.dtype)
        except TypeError:
            dtype = None
        if dtype is None or dtype.name not in MODEL_DTYPES:
            raise ValueError(
                f"dtype must be one of {MODEL_DTYPES}, got {self.dtype!r}"
            )
        object.__setattr__(self, "dtype", dtype)
        object.__setattr__(self, "table_rows", tuple(int(r) for r in self.table_rows))
        object.__setattr__(self, "bottom_mlp", tuple(int(w) for w in self.bottom_mlp))
        object.__setattr__(self, "top_mlp", tuple(int(w) for w in self.top_mlp))

    @property
    def num_tables(self) -> int:
        return len(self.table_rows)

    @property
    def bottom_mlp_sizes(self) -> Tuple[int, ...]:
        """Full bottom-MLP widths: dense input -> ... -> embedding_dim."""
        return (self.num_dense, *self.bottom_mlp, self.embedding_dim)

    @property
    def interaction_dim(self) -> int:
        return DotInteraction.output_dim(self.embedding_dim, self.num_tables)

    @property
    def top_mlp_sizes(self) -> Tuple[int, ...]:
        """Full top-MLP widths: interaction output -> ... -> 1 logit."""
        return (self.interaction_dim, *self.top_mlp, 1)

    def backend_for_table(self, table_idx: int) -> EmbeddingBackend:
        """Resolve the backend for one table.

        A table is compressed only where compression compresses: it
        stays dense at or below ``tt_threshold_rows`` and whenever the
        compressed bag would weigh at least what the dense table does
        (Hetu's ``min(orimem, newmem)``; a rank-clamped TT table of a
        few rows is larger than the rows themselves).  Both sides are
        the one :func:`~repro.embeddings.planner.table_bytes`.
        """
        rows = self.table_rows[table_idx]
        if self.backend is EmbeddingBackend.DENSE or rows <= self.tt_threshold_rows:
            return EmbeddingBackend.DENSE
        kind = self.backend.value
        itemsize = self.dtype.itemsize
        compressed = table_bytes(
            kind,
            rows,
            self.embedding_dim,
            itemsize,
            **backend_knobs(kind, self.tt_rank, self.compress_rate),
        )
        if compressed >= table_bytes("dense", rows, self.embedding_dim, itemsize):
            return EmbeddingBackend.DENSE
        return self.backend

    @classmethod
    def from_dataset(
        cls,
        spec: DatasetSpec,
        embedding_dim: int = 16,
        backend: EmbeddingBackend = EmbeddingBackend.EFF_TT,
        tt_rank: int = 16,
        tt_threshold_rows: int = 0,
        bottom_mlp: Sequence[int] = (64, 32),
        top_mlp: Sequence[int] = (64, 32),
        compress_rate: float = 0.25,
        dtype: DTypeLike = DEFAULT_DTYPE,
    ) -> "DLRMConfig":
        """Derive a config from a dataset schema."""
        return cls(
            num_dense=spec.num_dense,
            table_rows=tuple(t.num_rows for t in spec.tables),
            embedding_dim=embedding_dim,
            bottom_mlp=tuple(bottom_mlp),
            top_mlp=tuple(top_mlp),
            backend=backend,
            tt_rank=tt_rank,
            tt_threshold_rows=tt_threshold_rows,
            compress_rate=compress_rate,
            dtype=dtype,
        )
