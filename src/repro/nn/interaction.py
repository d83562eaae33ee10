"""DLRM dot-product feature-interaction layer (paper §II-A, Figure 2).

The interaction layer takes the bottom-MLP output plus one pooled
embedding per sparse feature (all with the same dimension ``d``),
computes dot products of all feature pairs, and concatenates the
strictly-lower-triangular results with the original dense feature.

Both contractions are batched GEMMs on the ``(B, F, d)`` feature stack
(``torch.bmm`` in the reference DLRM): one product *per sample* —
``(F-1, d) x (d, F-1)`` forward, ``(F, F) x (F, d)`` backward — so a
sample's output never depends on what else shares its batch; serving's
micro-batches rely on that.
"""

from __future__ import annotations

import functools
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.backend import DEFAULT_DTYPE, ZONE_INTERACTION, get_backend
from repro.backend.protocol import DTypeLike
from repro.nn.module import Module

__all__ = ["DotInteraction", "place_embedding"]


def place_embedding(stacked: np.ndarray, index: int, pooled: np.ndarray) -> None:
    """Write embedding ``index``'s ``(B, d)`` rows into slot ``1 + index``.

    ``stacked`` is the ``(B, F, d)`` feature stack; a pooled array of
    any other shape is rejected rather than broadcast into the slot.
    """
    expected = (stacked.shape[0], stacked.shape[2])
    if pooled.shape != expected:
        raise ValueError(
            f"embedding {index} has shape {pooled.shape}, expected {expected}"
        )
    stacked[:, 1 + index, :] = pooled


@functools.lru_cache(maxsize=16)
def _lower_triangle(size: int) -> np.ndarray:
    """Flat positions of a ``(size, size)`` block's lower triangle.

    Row-major, diagonal included; read-only, since every caller shares
    it.  Built once per feature count: building it costs more than a
    serving micro-batch's whole triangle take.
    """
    rows, cols = np.tril_indices(size)
    flat = rows * size + cols
    flat.setflags(write=False)
    return flat


class DotInteraction(Module):
    """Pairwise dot-product interaction with self-interaction excluded.

    Given dense feature ``x`` of shape ``(B, d)`` and ``k`` embeddings
    each of shape ``(B, d)``, writes them into ``T`` of shape
    ``(B, k+1, d)``, forms ``Z = T[1:] @ T[:-1]^T`` — every pair of
    distinct features, once — and emits ``concat([x, Z[lower_triangle]])``
    with output width ``d + (k+1) * k / 2``.

    ``dtype`` is the model's: :meth:`forward` builds the stack at it, and
    the output and gradients keep the stack's dtype.
    """

    def __init__(self, dtype: DTypeLike = DEFAULT_DTYPE) -> None:
        super().__init__()
        self.dtype = np.dtype(dtype)
        self._cached: Optional[np.ndarray] = None

    @staticmethod
    def output_dim(dense_dim: int, num_embeddings: int) -> int:
        """Width of the interaction output for given inputs."""
        num_features = num_embeddings + 1
        return dense_dim + (num_features * (num_features - 1)) // 2

    def forward(
        self, dense: np.ndarray, embeddings: Sequence[np.ndarray]
    ) -> np.ndarray:
        dense = np.asarray(dense)
        if dense.ndim != 2:
            raise ValueError(f"dense must be 2-D, got shape {dense.shape}")
        batch, dim = dense.shape
        # Every feature lands in its slot of the one (B, F, d) stack.
        stacked = np.empty((batch, len(embeddings) + 1, dim), dtype=self.dtype)
        stacked[:, 0, :] = dense
        for i, emb in enumerate(embeddings):
            place_embedding(stacked, i, emb)
        return self.forward_stack(stacked)

    def forward_stack(self, stacked: np.ndarray) -> np.ndarray:
        """:meth:`forward` over a prebuilt ``(B, F, d)`` stack.

        Slot 0 is the dense feature, slots ``1..F-1`` the embeddings, as
        :meth:`forward` lays them out; a caller that gathers its rows
        straight into the slots skips the copy.  The stack is kept, not
        copied, for :meth:`backward`; the output takes its dtype.
        """
        batch, num_features, dim = stacked.shape
        # Pair (f, g), g < f, is entry (f - 1, g) of T[1:] @ T[:-1]^T: the
        # product never reads feature 0 as a row or the last feature as a
        # column, and its two operands are different views, so numpy
        # issues a plain GEMM per sample, not the slower a @ a.T syrk.
        bk = get_backend()
        with bk.zone(ZONE_INTERACTION):
            z = bk.matmul(
                stacked[:, 1:, :], stacked[:, :-1, :].transpose(0, 2, 1)
            )  # (B, F-1, F-1)
        # Its lower triangle, diagonal included, as one flat take per sample.
        triangle = _lower_triangle(num_features - 1)
        out = np.empty((batch, dim + triangle.size), dtype=stacked.dtype)
        out[:, :dim] = stacked[:, 0, :]
        out[:, dim:] = np.take(
            z.reshape(batch, (num_features - 1) ** 2), triangle, axis=1
        )
        self._cached = stacked
        return out

    def backward(self, grad_output: np.ndarray) -> Tuple[np.ndarray, List[np.ndarray]]:
        """Return ``(grad_dense, [grad_emb_1, ..., grad_emb_k])``."""
        if self._cached is None:
            raise RuntimeError("backward called before forward")
        stacked = self._cached
        batch, num_features, dim = stacked.shape
        grad_output = np.asarray(grad_output, dtype=stacked.dtype)
        expected = self.output_dim(dim, num_features - 1)
        if grad_output.shape != (batch, expected):
            raise ValueError(
                f"expected grad_output of shape {(batch, expected)}, "
                f"got {grad_output.shape}"
            )
        # Z is symmetric in its two T factors: dT = (dZ + dZ^T) @ T.  The
        # symmetric operand is one gather of the pair gradients: entry
        # (f, g) reads the grad_output column of pair {f, g}.  Its
        # diagonal is zero, so those entries read column 0 and are
        # overwritten.
        rows, cols = np.tril_indices(num_features, k=-1)
        columns = np.zeros((num_features, num_features), dtype=np.int64)
        columns[rows, cols] = columns[cols, rows] = dim + np.arange(rows.size)
        sym = np.take(grad_output, columns.reshape(-1), axis=1)  # (B, F*F)
        sym[:, :: num_features + 1] = 0.0
        bk = get_backend()
        with bk.zone(ZONE_INTERACTION):
            grad_stacked = bk.matmul(
                sym.reshape(batch, num_features, num_features), stacked
            )
        grad_dense = grad_stacked[:, 0, :] + grad_output[:, :dim]
        grad_embeddings = [grad_stacked[:, i, :] for i in range(1, num_features)]
        self._cached = None
        return grad_dense, grad_embeddings
