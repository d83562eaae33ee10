"""Lossy compression for the simulated PS links (push and pull).

Two independent knobs, both **off by default** so the sharded trainer
stays bitwise-identical to the single-table baseline:

* **Push (gradient) compression** — :class:`TopKErrorFeedback` sends
  only the ``k``-fraction of unique rows with the largest aggregated
  L2 norm per step and keeps everything unsent in a per-table
  *residual* that is re-added before the next selection.  The error-
  feedback invariant (``sent + residual_after == residual_before +
  grads``, exactly, per row) means no gradient mass is ever dropped,
  only delayed — the property that keeps EF-SGD convergent.
* **Pull (row) quantization** — :class:`PullQuantizer` simulates
  shipping prefetched rows as symmetric per-row int8: each row is
  quantized with scale ``max|row| / 127`` and immediately dequantized,
  so the worker trains on values carrying real quantization error
  while the arrays stay at the server's dtype end to end.

Wire accounting is explicit: :data:`ROW_ID_BYTES`,
:func:`exact_row_bytes` and :func:`int8_row_bytes` are the bytes a real
link carries per row at the table's itemsize, and the
:class:`~repro.sharding.server.ShardedParameterServer` meters every
shard link with them.  All compression math runs under the
``link_compress`` kernel zone.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.backend import DEFAULT_DTYPE, ZONE_LINK_COMPRESS, get_backend
from repro.backend.protocol import DTypeLike
from repro.utils.validation import check_positive

__all__ = [
    "LinkCompressionConfig",
    "CompressedPush",
    "TopKErrorFeedback",
    "PullQuantizer",
    "COMPRESSION_MODES",
    "ROW_ID_BYTES",
    "exact_row_bytes",
    "int8_row_bytes",
]

#: Bytes of the int64 id that travels with every row on a link.
ROW_ID_BYTES = 8


def exact_row_bytes(dim: int, itemsize: int) -> int:
    """Link bytes of one row's values sent exact (``itemsize`` each)."""
    return dim * itemsize


def int8_row_bytes(dim: int, itemsize: int) -> int:
    """Link bytes of one row's values sent as int8 plus one scale."""
    return dim * 1 + itemsize


#: ``--compress`` vocabulary: which knobs each mode enables.
COMPRESSION_MODES: Dict[str, Tuple[bool, bool]] = {
    "none": (False, False),
    "topk": (True, False),
    "quant": (False, True),
    "both": (True, True),
}


@dataclass(frozen=True)
class LinkCompressionConfig:
    """Configuration of both PS-link compression knobs.

    ``mode`` names the preset (see :data:`COMPRESSION_MODES`);
    ``topk_fraction`` sizes the gradient top-k selection.
    """

    mode: str = "none"
    topk_fraction: float = 0.1

    def __post_init__(self) -> None:
        if self.mode not in COMPRESSION_MODES:
            raise ValueError(
                f"mode must be one of {sorted(COMPRESSION_MODES)}, "
                f"got {self.mode!r}"
            )
        if not 0.0 < self.topk_fraction <= 1.0:
            raise ValueError(
                f"topk_fraction must be in (0, 1], got {self.topk_fraction}"
            )

    @property
    def push_topk(self) -> bool:
        return COMPRESSION_MODES[self.mode][0]

    @property
    def pull_quant(self) -> bool:
        return COMPRESSION_MODES[self.mode][1]

    @property
    def bitwise(self) -> bool:
        """True when both knobs are off (the bitwise default)."""
        return self.mode == "none"


@dataclass
class CompressedPush:
    """One compressed gradient push: the rows selected to cross the link."""

    unique_indices: np.ndarray
    row_grads: np.ndarray


class TopKErrorFeedback:
    """Top-k gradient sparsification with per-table error feedback.

    Parameters
    ----------
    table_rows:
        Cardinality of each table a residual is kept for.
    embedding_dim:
        Shared embedding width.
    fraction:
        Fraction of a step's unique rows that is actually sent
        (at least one row is always sent).
    dtype:
        Residual dtype: the server tables'.

    Notes
    -----
    The residual is stored dense per table — fine at reproduction
    scale and what makes it checkpointable as a plain array (a real
    deployment would keep it sparse).  Selection is deterministic:
    rows are ranked by residual-corrected L2 norm with the row id as
    tie-break.
    """

    def __init__(
        self,
        table_rows: List[int],
        embedding_dim: int,
        fraction: float = 0.1,
        dtype: DTypeLike = DEFAULT_DTYPE,
    ) -> None:
        if not 0.0 < fraction <= 1.0:
            raise ValueError(f"fraction must be in (0, 1], got {fraction}")
        check_positive(embedding_dim, "embedding_dim")
        self.fraction = float(fraction)
        self.embedding_dim = int(embedding_dim)
        self.residuals: List[np.ndarray] = [
            np.zeros((rows, embedding_dim), dtype=dtype)
            for rows in table_rows
        ]

    def compress(
        self, table_idx: int, unique_indices: np.ndarray, row_grads: np.ndarray
    ) -> CompressedPush:
        """Select the top-k rows of ``residual + grads``; bank the rest."""
        residual = self.residuals[table_idx]
        uidx = np.asarray(unique_indices, dtype=np.int64)
        grads = np.asarray(row_grads, dtype=residual.dtype)
        if grads.shape != (uidx.size, self.embedding_dim):
            raise ValueError(
                f"row_grads shape {grads.shape} does not match "
                f"({uidx.size}, {self.embedding_dim})"
            )
        bk = get_backend()
        with bk.zone(ZONE_LINK_COMPRESS):
            corrected = residual[uidx] + grads
            norms = np.sqrt((corrected * corrected).sum(axis=1))
            keep = max(1, int(np.ceil(self.fraction * uidx.size)))
            # Deterministic ranking: largest norm first, row id breaks
            # ties; the kept set is then restored to ascending row
            # order so downstream routing sees a sorted unique set.
            order = np.lexsort((uidx, -norms))
            kept_positions = np.sort(order[:keep])
            dropped_positions = np.sort(order[keep:])
            sent = corrected[kept_positions]
            residual[uidx[kept_positions]] = 0.0
            residual[uidx[dropped_positions]] = corrected[dropped_positions]
        return CompressedPush(unique_indices=uidx[kept_positions], row_grads=sent)

    # -- checkpoint support --------------------------------------------
    def state_arrays(self) -> Dict[str, np.ndarray]:
        """Residual arrays keyed for a trainer snapshot."""
        return {f"ef{t}": r for t, r in enumerate(self.residuals)}

    def load_state_arrays(self, arrays: Dict[str, np.ndarray]) -> None:
        """Restore residuals in place (shape-checked before any write)."""
        staged = []
        for t, residual in enumerate(self.residuals):
            key = f"ef{t}"
            if key not in arrays:
                raise KeyError(f"snapshot missing residual array {key!r}")
            stored = np.asarray(arrays[key], dtype=residual.dtype)
            if stored.shape != residual.shape:
                raise ValueError(
                    f"residual {key!r} shape mismatch: "
                    f"{stored.shape} vs {residual.shape}"
                )
            staged.append((residual, stored))
        for residual, stored in staged:
            residual[...] = stored


class PullQuantizer:
    """Symmetric per-row int8 quantization for prefetched rows."""

    def __init__(self, embedding_dim: int) -> None:
        check_positive(embedding_dim, "embedding_dim")
        self.embedding_dim = int(embedding_dim)

    def apply(self, rows: np.ndarray) -> np.ndarray:
        """Quantize-dequantize ``rows`` (each row on its own scale, same dtype)."""
        rows = np.asarray(rows)
        if rows.shape[0] == 0:
            return rows
        bk = get_backend()
        with bk.zone(ZONE_LINK_COMPRESS):
            scale = np.abs(rows).max(axis=1, keepdims=True) / 127.0
            # All-zero rows quantize to zero with any scale; avoid 0/0.
            safe = bk.where(scale > 0.0, scale, 1.0)
            quantized = np.rint(rows / safe)
            dequantized = quantized * safe
        return dequantized


def build_push_compressor(
    config: LinkCompressionConfig,
    table_rows: List[int],
    embedding_dim: int,
    dtype: DTypeLike = DEFAULT_DTYPE,
) -> Optional[TopKErrorFeedback]:
    """Push-side compressor for ``config`` (None = send everything)."""
    if not config.push_topk:
        return None
    return TopKErrorFeedback(
        table_rows, embedding_dim, fraction=config.topk_fraction, dtype=dtype
    )


def build_pull_quantizer(
    config: LinkCompressionConfig, embedding_dim: int
) -> Optional[PullQuantizer]:
    """Pull-side quantizer for ``config`` (None = exact rows)."""
    if not config.pull_quant:
        return None
    return PullQuantizer(embedding_dim)
