"""The ``ArrayBackend`` protocol: the seam every hot-path kernel runs through.

Every hot-path kernel in this repository — the TT gather-contract chain
in :mod:`repro.embeddings`, the MLP/interaction matmuls in
:mod:`repro.nn`, the fused optimizer updates, the parameter-server
gathers and the serving-arm lookups — executes its array math through
the *active backend* (see :func:`repro.backend.get_backend`) instead of
calling numpy directly.  The backend is deliberately a small surface:

* **allocation with explicit dtype** — ``zeros/ones/empty/full`` take a
  *required* ``dtype``; there is no implicit-float64 default at the
  backend boundary (the PR-2 explicit-dtype policy, enforced statically
  by reprolint REP003 for raw numpy and dynamically by
  :meth:`~repro.backend.counter.CostCounter.expect_dtype` for backend
  allocations);
* **contraction** — ``matmul`` (the batched-GEMM workhorse of every TT
  kernel);
* **segment GEMM** — ``gather_matmul`` (gather→GEMM) and
  ``matmul_segment_sum`` (GEMM→scatter): one GEMM per *distinct* TT
  slice over the rows a :class:`~repro.backend.groups.RowGroups` record
  says share it, so neither the gathered ``table[idx]`` operand nor the
  per-row products are ever materialised (the Eff-TT reuse/aggregated
  path, paper §III);
* **sparse movement** — ``gather_rows`` / ``scatter_add_rows``, the two
  primitives embedding tables live on;
* **elementwise** — the handful of ufuncs the activation/optimizer
  paths need (``exp``, ``maximum``, ``multiply``, ``where``,
  ``axpy``);
* **zones** — ``zone(name)`` context manager tagging the *named kernel
  zone* the enclosed ops belong to, so the interposer can tell its
  observers which zone each op ran in.  The reference backend's
  ``zone`` is a no-op; ops outside any zone are filed under
  :data:`UNZONED`.

Implementations
---------------
:class:`~repro.backend.numpy_backend.NumpyBackend`
    The reference: thin, bit-exact delegation to numpy.  All existing
    numerics are defined by this backend.
:class:`~repro.backend.interposer.Interposer`
    Wraps any backend, owns the zone stack, and hands every forwarded
    call to its observers: ``InstrumentedBackend()`` is the interposer
    with a :class:`~repro.backend.counter.CostCounter` (calls/FLOPs/
    bytes per kernel zone, optional dtype-drift record),
    ``SanitizerBackend()`` the interposer with a
    :class:`~repro.backend.numsan.NumericSanitizer` (NaN/Inf, row-index
    and implicit-upcast traps).  Its forwarding methods, the cost
    formulas and the sanitizer's operand roles all come from the op
    table :data:`repro.backend.ops.OPS`: a method added here needs one
    row there, and nothing else outside the reference backend.
"""

from __future__ import annotations

from typing import Any, ContextManager, Optional, Protocol, Sequence, Tuple, Union

import numpy as np

from .groups import RowGroups

__all__ = [
    "ArrayBackend",
    "DEFAULT_DTYPE",
    "DTypeLike",
    "Shape",
    "ZONE_TT_FORWARD",
    "ZONE_TT_BACKWARD",
    "ZONE_TT_RECONSTRUCT",
    "ZONE_EFFTT_FORWARD",
    "ZONE_EFFTT_BACKWARD",
    "ZONE_FUSED_UPDATE",
    "ZONE_MLP",
    "ZONE_INTERACTION",
    "ZONE_OPTIMIZER",
    "ZONE_LC_CACHE",
    "ZONE_PS_GATHER",
    "ZONE_PS_APPLY",
    "ZONE_SERVING_LOOKUP",
    "ZONE_SHARD_ROUTE",
    "ZONE_LINK_COMPRESS",
    "ZONE_HASH_LOOKUP",
    "ZONE_ROBE_LOOKUP",
    "ZONE_PQ_LOOKUP",
    "ZONE_COMPRESS_UPDATE",
    "KERNEL_ZONE_NAMES",
    "UNZONED",
]

Shape = Union[int, Tuple[int, ...], Sequence[int]]
DTypeLike = Any  # np.dtype, dtype class, or dtype string

#: The floating dtype every model, bag, layer and server is built at
#: unless told otherwise: fp32, as the paper trains.  ``DLRMConfig.dtype``
#: overrides it per model (float64 for finite-difference checks and the
#: bitwise golden fixtures).
DEFAULT_DTYPE = np.dtype(np.float32)

# -- named kernel zones ----------------------------------------------------
# One name per hot-path kernel family.  The cost counter aggregates
# per zone; the analytic FLOP model in repro.embeddings.flops predicts
# the tt_*/efftt_* zones exactly (cross-checked in the test suite).
ZONE_TT_FORWARD = "tt_forward"          # naive per-occurrence TT chain
ZONE_TT_BACKWARD = "tt_backward"        # naive TT backward chain
ZONE_TT_RECONSTRUCT = "tt_reconstruct"  # reference row reconstruction
ZONE_EFFTT_FORWARD = "efftt_forward"    # reuse-buffer lookup (§III-A)
ZONE_EFFTT_BACKWARD = "efftt_backward"  # aggregated backward (§III-B)
ZONE_FUSED_UPDATE = "fused_update"      # fused TT-core update (§III-B)
ZONE_MLP = "mlp"                        # Linear/activation stack
ZONE_INTERACTION = "interaction"        # pairwise dot interaction
ZONE_OPTIMIZER = "optimizer"            # dense SGD/Adagrad updates
ZONE_LC_CACHE = "lc_cache"              # §V-B life-cycle cache traffic
ZONE_PS_GATHER = "ps_gather"            # parameter-server row gather
ZONE_PS_APPLY = "ps_apply"              # server-side sparse update
ZONE_SERVING_LOOKUP = "serving_lookup"  # hot-row-cached inference arms
ZONE_SHARD_ROUTE = "shard_route"        # row -> shard routing index math
ZONE_LINK_COMPRESS = "link_compress"    # PS-link compression / quantization
ZONE_HASH_LOOKUP = "hash_lookup"        # mod-hash bucket gather
ZONE_ROBE_LOOKUP = "robe_lookup"        # ROBE shared-array chunk gather
ZONE_PQ_LOOKUP = "pq_lookup"            # PQ codebook gather + concat
ZONE_COMPRESS_UPDATE = "compress_update"  # hash/ROBE/PQ sparse updates

KERNEL_ZONE_NAMES: Tuple[str, ...] = (
    ZONE_TT_FORWARD,
    ZONE_TT_BACKWARD,
    ZONE_TT_RECONSTRUCT,
    ZONE_EFFTT_FORWARD,
    ZONE_EFFTT_BACKWARD,
    ZONE_FUSED_UPDATE,
    ZONE_MLP,
    ZONE_INTERACTION,
    ZONE_OPTIMIZER,
    ZONE_LC_CACHE,
    ZONE_PS_GATHER,
    ZONE_PS_APPLY,
    ZONE_SERVING_LOOKUP,
    ZONE_SHARD_ROUTE,
    ZONE_LINK_COMPRESS,
    ZONE_HASH_LOOKUP,
    ZONE_ROBE_LOOKUP,
    ZONE_PQ_LOOKUP,
    ZONE_COMPRESS_UPDATE,
)


UNZONED = "unzoned"  # where ops issued outside every zone() are filed


class ArrayBackend(Protocol):
    """Protocol every execution backend implements.

    All methods accept and return ``np.ndarray`` — the repository's
    interchange format.  A non-numpy backend converts at the boundary;
    the reference backend passes arrays through untouched.  Semantics
    are fixed by :class:`~repro.backend.numpy_backend.NumpyBackend`:
    a conforming backend must match it to within its numeric contract
    (bitwise for the interposer, a documented tolerance for
    accelerated backends).
    """

    name: str

    # -- allocation (explicit dtype required) --------------------------
    def zeros(self, shape: Shape, dtype: DTypeLike) -> np.ndarray:
        ...

    def ones(self, shape: Shape, dtype: DTypeLike) -> np.ndarray:
        ...

    def empty(self, shape: Shape, dtype: DTypeLike) -> np.ndarray:
        ...

    def full(self, shape: Shape, fill_value: float, dtype: DTypeLike) -> np.ndarray:
        ...

    def asarray(self, a: Any, dtype: Optional[DTypeLike] = None) -> np.ndarray:
        ...

    # -- contraction ---------------------------------------------------
    def matmul(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        ...

    def gather_matmul(
        self, a: np.ndarray, table: np.ndarray, groups: RowGroups
    ) -> np.ndarray:
        """``out[l] = a[l] @ table[idx[l]]`` without forming ``table[idx]``.

        ``a`` is ``(L, M, K)``, ``table`` is ``(T, K, N)`` (any strides),
        ``groups = group_rows(idx)``; returns ``(L, M, N)`` in row
        order.  One GEMM per distinct id, the group's rows stacked
        along M.
        """
        ...

    def matmul_segment_sum(
        self, a: np.ndarray, b: np.ndarray, groups: RowGroups
    ) -> np.ndarray:
        """``out[j] = sum(a[l] @ b[l].T for l in group j)``, one block per id.

        ``a`` is ``(L, M, K)``, ``b`` is ``(L, N, K)``; returns
        ``(G, M, N)`` aligned with ``groups.ids`` — already coalesced.
        One GEMM per distinct id, the group's rows stacked along the
        contraction axis, so the duplicate reduction costs nothing
        extra.  The summation order inside a group is the BLAS's, not
        row order: results agree with ``matmul`` + ``scatter_add_rows``
        to rounding, not bitwise.
        """
        ...

    # -- sparse movement -----------------------------------------------
    def gather_rows(self, table: np.ndarray, indices: np.ndarray) -> np.ndarray:
        ...

    def scatter_add_rows(
        self,
        target: np.ndarray,
        indices: np.ndarray,
        values: np.ndarray,
        scale: float = 1.0,
    ) -> None:
        ...

    # -- elementwise ---------------------------------------------------
    def exp(self, a: np.ndarray) -> np.ndarray:
        ...

    def maximum(self, a: Any, b: Any) -> np.ndarray:
        ...

    def multiply(self, a: Any, b: Any) -> np.ndarray:
        ...

    def where(self, cond: np.ndarray, a: Any, b: Any) -> np.ndarray:
        ...

    def axpy(self, target: np.ndarray, values: np.ndarray, scale: float) -> None:
        """In-place ``target += scale * values`` (the optimizer update)."""
        ...

    # -- instrumentation seam ------------------------------------------
    def zone(self, name: str) -> ContextManager[None]:
        """Tag enclosed ops as belonging to the named kernel zone."""
        ...
