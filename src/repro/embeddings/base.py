"""The one sum-pooling embedding bag: shared shell, per-strategy row codec.

All embedding implementations expose PyTorch ``nn.EmbeddingBag``
semantics with ``mode="sum"``: a flat index array plus per-bag offsets,
one pooled embedding per bag.  The paper's Eff-TT table is explicitly a
drop-in replacement for that API (§I, §VI-A): only the row computation
differs, pooling does not.  :class:`EmbeddingBagBase` therefore owns the
whole lifecycle once, and a strategy is the *codec* it plugs in — how
index -> rows, how row gradients -> parameter update.
"""

from __future__ import annotations

from typing import Any, Callable, ClassVar, Dict, Mapping, Optional, Sequence, Tuple

import numpy as np

from repro.backend import DEFAULT_DTYPE, get_backend
from repro.backend.protocol import DTypeLike
from repro.embeddings.protocol import CompressionSpec, SpecParamValue
from repro.utils.validation import check_1d_int_array

__all__ = [
    "normalize_offsets",
    "bag_boundaries",
    "bags_of_one_everywhere",
    "segment_sum",
    "pool_bags",
    "EmbeddingBagBase",
]


def normalize_offsets(
    offsets: np.ndarray, num_indices: int
) -> np.ndarray:
    """Canonicalize bag offsets to the ``B+1`` boundary form.

    Accepts either the PyTorch form (length ``B``, first element 0) or
    the boundary form (length ``B+1``, last element ``num_indices``).
    Returns the boundary form as int64.  Offsets must be
    non-decreasing and within ``[0, num_indices]``; empty bags
    (consecutive equal offsets) are allowed and pool to zeros.
    """
    off = check_1d_int_array(offsets, "offsets", min_value=0, max_value=num_indices)
    if off.size == 0:
        raise ValueError("offsets must contain at least one bag")
    if off[0] != 0:
        raise ValueError(f"offsets must start at 0, got {off[0]}")
    if np.any(np.diff(off) < 0):
        raise ValueError("offsets must be non-decreasing")
    if off[-1] != num_indices:
        off = np.concatenate([off, [num_indices]])
    return off


def bag_boundaries(
    offsets: Optional[np.ndarray], num_indices: int
) -> Optional[np.ndarray]:
    """Boundary-form offsets, or ``None`` when every bag holds one index.

    The one place bags of one are detected.  With pooling factor 1 (the
    paper's datasets, every serving lookup) sum pooling and its backward
    expansion are the identity, so callers skip both when this returns
    ``None``: the number of bags is then ``num_indices``.  ``offsets is
    None`` is that case by construction; an explicit offsets array is it
    when it normalises to ``arange(num_indices + 1)``.  Any other
    offsets — a bag of two, an empty bag — come back in boundary form.
    """
    if offsets is None:
        return None
    off = np.asarray(offsets)
    if (
        off.ndim == 1
        and off.dtype.kind in "iu"
        and 0 < num_indices <= off.size <= num_indices + 1
        and off[0] == 0
        and off[-1] == off.size - 1
        and bool((off[1:] > off[:-1]).all())
    ):
        # Integers rising strictly from 0 to size-1 are arange(size):
        # valid offsets in either form, decided without normalising.
        return None
    boundaries = normalize_offsets(offsets, num_indices)
    # Non-decreasing from 0 to num_indices in num_indices steps: every
    # step is 1 unless some step is 0.
    if boundaries.size == num_indices + 1 and bool(
        (boundaries[1:] > boundaries[:-1]).all()
    ):
        return None
    return boundaries


def segment_sum(values: np.ndarray, boundaries: np.ndarray) -> np.ndarray:
    """Sum ``values`` rows within each ``[boundaries[b], boundaries[b+1])`` span.

    Parameters
    ----------
    values:
        ``(L, dim)`` array of per-index rows.
    boundaries:
        ``(B+1,)`` boundary-form offsets (see :func:`normalize_offsets`).

    Returns
    -------
    ``(B, dim)`` pooled array; empty segments yield zero rows.
    """
    non_empty = boundaries[:-1] < boundaries[1:]
    if non_empty.all() and non_empty.size:
        # No empty bag: every start is a valid reduceat position.
        return np.add.reduceat(values, boundaries[:-1], axis=0)
    num_bags = boundaries.size - 1
    out = np.zeros((num_bags, values.shape[1]), dtype=values.dtype)
    if non_empty.any():
        # reduceat needs strictly valid start positions; restrict to
        # non-empty segments then scatter back.
        out[non_empty] = np.add.reduceat(
            values, boundaries[:-1][non_empty], axis=0
        )
    return out


def bags_of_one_everywhere(
    sizes: Sequence[int], offsets: Sequence[Optional[np.ndarray]], num: int
) -> bool:
    """Whether every table holds ``num`` ids under ``arange(num + 1)`` offsets.

    :func:`bag_boundaries`'s bags-of-one case for many tables at once
    (every serving micro-batch), decided in one comparison over all of
    their offsets.  ``False`` only means "not recognised here": callers
    then take :func:`bag_boundaries` table by table.
    """
    if not all(
        size == num and isinstance(off, np.ndarray)
        and off.shape == (num + 1,) and off.dtype.kind in "iu"
        for size, off in zip(sizes, offsets)
    ):
        return False
    grid = np.concatenate(offsets).reshape(-1, num + 1)  # type: ignore[arg-type]
    return bool((grid == np.arange(num + 1)).all())


def pool_bags(rows: np.ndarray, boundaries: Optional[np.ndarray]) -> np.ndarray:
    """Sum-pool per-index ``rows`` into bags (see :func:`bag_boundaries`).

    Bags of one (``boundaries is None``) pool to ``rows`` itself.
    """
    return rows if boundaries is None else segment_sum(rows, boundaries)


def expand_bag_ids(boundaries: np.ndarray) -> np.ndarray:
    """Per-index bag id array for boundary-form offsets.

    ``expand_bag_ids([0, 2, 2, 5]) -> [0, 0, 2, 2, 2]``
    """
    lengths = np.diff(boundaries)
    return np.repeat(np.arange(lengths.size, dtype=np.int64), lengths)


class EmbeddingBagBase:
    """Sum-pooling embedding bag: the shell every strategy shares.

    The shell owns ``forward`` / ``backward`` / ``step`` (input
    validation, pooling, the call-order guards, gradient dtype and shape
    checks, bag-id expansion, the ``version`` bump, clearing saved
    state), range-checked :meth:`reconstruct_rows`, validate-then-write
    :meth:`load_state_arrays` and the byte accounting.  A strategy
    subclass supplies only its codec:

    ``_lookup(idx) -> (rows, context)``
        One ``(len(idx), dim)`` row per validated index occurrence, plus
        whatever the backward pass needs.  Must not write ``self``
        training state (it also serves :meth:`reconstruct_rows`).
    ``_accumulate(context, row_grads) -> pending``
        Turn per-occurrence row gradients into the sparse update
        (default: ``(context, row_grads)`` as they are — a gather table
        trains by scattering them back where ``context`` says).
    ``_apply(pending, lr)``
        Write the SGD update into the parameters.
    ``state_arrays()`` / ``_spec_params()``
        The live parameter arrays and the hyperparameters that, with
        :attr:`kind`, rebuild the bag (constructor keywords).

    Attributes
    ----------
    num_embeddings:
        Number of logical rows (valid index range ``[0, num_embeddings)``).
    embedding_dim:
        Width of each embedding row.
    dtype:
        Storage dtype (default :data:`~repro.backend.DEFAULT_DTYPE`);
        gradients are cast to it on the way in.
    version:
        Update counter (every parameter mutation bumps it) that hot-row
        caches compare to detect staleness.
    """

    #: Strategy name: the registry key, the checkpoint ``bag{t}/kind``
    #: tag and ``compression_spec().kind``.
    kind: ClassVar[str]
    #: Kernel zone charged for the per-occurrence gradient gather.
    grad_zone: ClassVar[str]
    #: ``build_embedding_bag`` knobs (``tt_rank`` / ``compress_rate``)
    #: this strategy's constructor takes.
    config_knobs: ClassVar[Tuple[str, ...]] = ()
    #: ``estimate_bytes(num_embeddings, embedding_dim, dtype_bytes,
    #: **constructor keywords)``: the ``memory_bytes()`` of the bag
    #: those keywords would build, without building it.  Every
    #: registered strategy defines it; the table planner sizes tables
    #: through it (``planner.table_bytes``), so a plan's bytes are the
    #: built bag's bytes.
    estimate_bytes: ClassVar[Callable[..., int]]

    def __init__(
        self,
        num_embeddings: int,
        embedding_dim: int,
        dtype: DTypeLike = DEFAULT_DTYPE,
    ) -> None:
        if num_embeddings < 1:
            raise ValueError(f"num_embeddings must be >= 1, got {num_embeddings}")
        if embedding_dim < 1:
            raise ValueError(f"embedding_dim must be >= 1, got {embedding_dim}")
        self.num_embeddings = num_embeddings
        self.embedding_dim = embedding_dim
        self.dtype = np.dtype(dtype)
        self.version = 0
        #: ``(codec context, boundaries, num_bags)`` of the forward
        #: awaiting backward; ``boundaries`` is ``None`` for bags of one
        self._saved: Optional[Tuple[Any, Optional[np.ndarray], int]] = None
        #: the codec's accumulated update awaiting ``step`` (or a pop)
        self._pending: Optional[Any] = None

    # -- codec hooks -----------------------------------------------------
    def _lookup(self, idx: np.ndarray) -> Tuple[np.ndarray, Any]:
        raise NotImplementedError

    def _accumulate(self, context: Any, row_grads: np.ndarray) -> Any:
        return context, row_grads

    def _apply(self, pending: Any, lr: float) -> None:
        raise NotImplementedError

    def state_arrays(self) -> Dict[str, np.ndarray]:
        """Live parameter arrays by stable name (callers copy to persist)."""
        raise NotImplementedError

    def _spec_params(self) -> Dict[str, SpecParamValue]:
        return {}

    def _reconstruct(self, idx: np.ndarray) -> np.ndarray:
        return self._lookup(idx)[0]

    def _normalize_state(self, name: str, stored: np.ndarray) -> np.ndarray:
        """Bring a stored array to the live layout before the shape check."""
        return stored

    def _cast_grad(self, grad_output: np.ndarray) -> np.ndarray:
        return get_backend().asarray(grad_output, dtype=self.dtype)

    def _occurrence_grads(
        self, grad_output: np.ndarray, bag_ids: Optional[np.ndarray]
    ) -> np.ndarray:
        """One gradient row per index occurrence.

        ``bag_ids`` names each occurrence's bag; ``None`` means bags of
        one, where ``grad_output`` already is that array.
        """
        if bag_ids is None:
            return grad_output
        bk = get_backend()
        with bk.zone(self.grad_zone):
            return bk.gather_rows(grad_output, bag_ids)

    # -- helpers -------------------------------------------------------
    def _validate_inputs(
        self, indices: np.ndarray, offsets: Optional[np.ndarray]
    ) -> Tuple[np.ndarray, Optional[np.ndarray]]:
        idx = check_1d_int_array(
            indices, "indices", min_value=0, max_value=self.num_embeddings - 1
        )
        return idx, bag_boundaries(offsets, idx.size)

    def _pop_pending(self) -> Any:
        """Detach the captured update without applying it.

        For trainers that apply it elsewhere: the parameter server (§V)
        and the data-parallel all-reduce (§V-A).
        """
        if self._pending is None:
            raise RuntimeError("no gradients captured")
        pending, self._pending = self._pending, None
        return pending

    # -- lifecycle -------------------------------------------------------
    def forward(
        self, indices: np.ndarray, offsets: Optional[np.ndarray] = None
    ) -> np.ndarray:
        """Pooled lookup: returns ``(num_bags, embedding_dim)``."""
        idx, boundaries = self._validate_inputs(indices, offsets)
        rows, context = self._lookup(idx)
        num_bags = idx.size if boundaries is None else boundaries.size - 1
        self._saved = (context, boundaries, num_bags)
        return pool_bags(rows, boundaries)

    def backward(self, grad_output: np.ndarray) -> None:
        """Capture the sparse update for the most recent forward."""
        if self._saved is None:
            raise RuntimeError("backward called before forward")
        context, boundaries, num_bags = self._saved
        grad_output = self._cast_grad(grad_output)
        if grad_output.shape != (num_bags, self.embedding_dim):
            raise ValueError(
                f"expected grad_output shape {(num_bags, self.embedding_dim)}, "
                f"got {grad_output.shape}"
            )
        # Sum pooling: every member of a bag receives the bag's gradient.
        bag_ids = None if boundaries is None else expand_bag_ids(boundaries)
        row_grads = self._occurrence_grads(grad_output, bag_ids)
        self._pending = self._accumulate(context, row_grads)
        self._saved = None

    def step(self, lr: float) -> None:
        """Apply the captured update with SGD and clear it."""
        if self._pending is None:
            raise RuntimeError("step called before backward")
        self._apply(self._pending, lr)
        self.version += 1
        self._pending = None

    def lookup_rows(self, indices: np.ndarray) -> np.ndarray:
        """Un-pooled lookup of individual rows, ``(len(indices), dim)``."""
        return self.forward(indices)  # no offsets: one index per bag

    def __call__(
        self, indices: np.ndarray, offsets: Optional[np.ndarray] = None
    ) -> np.ndarray:
        return self.forward(indices, offsets)

    # -- CompressedEmbedding protocol ------------------------------------
    def reconstruct_rows(self, indices: np.ndarray) -> np.ndarray:
        """Pure row materialization (no training state touched).

        Indices outside ``[0, num_embeddings)`` are rejected before any
        gather — numpy would wrap a negative one, and a TT table would
        serve its padding rows.
        """
        idx = check_1d_int_array(
            indices, "indices", min_value=0, max_value=self.num_embeddings - 1
        )
        return np.asarray(self._reconstruct(idx))

    def load_state_arrays(self, arrays: Mapping[str, np.ndarray]) -> None:
        """Restore :meth:`state_arrays` output: validate all, then write."""
        live = self.state_arrays()
        staged = {}
        for name in sorted(live):
            stored = self._normalize_state(
                name, np.asarray(arrays[name], dtype=live[name].dtype)
            )
            if stored.shape != live[name].shape:
                raise ValueError(
                    f"{name} shape {stored.shape} != {live[name].shape}"
                )
            staged[name] = stored
        for name in sorted(staged):
            live[name][...] = staged[name]
        self.version += 1

    def compression_spec(self) -> CompressionSpec:
        return CompressionSpec.create(
            self.kind, self.num_embeddings, self.embedding_dim, self._spec_params()
        )

    # -- footprint -------------------------------------------------------
    def memory_bytes(self) -> int:
        """Resident bytes of every state array (optimizer state included)."""
        return sum(int(a.nbytes) for a in self.state_arrays().values())

    @property
    def nbytes(self) -> int:
        """Parameter memory footprint in bytes."""
        return self.nbytes_as(self.dtype)

    def nbytes_as(self, dtype: DTypeLike = np.float32) -> int:
        """Footprint with the float arrays stored at ``dtype``.

        The paper reports fp32 tables; integer state (PQ codes) keeps
        its own width.
        """
        itemsize = np.dtype(dtype).itemsize
        return sum(
            int(a.size * itemsize if a.dtype.kind == "f" else a.nbytes)
            for a in self.state_arrays().values()
        )
