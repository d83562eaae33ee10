"""Pluggable execution backends for all hot-path kernels.

Usage::

    from repro import backend

    bk = backend.get_backend()           # active backend (numpy default)
    with backend.use_backend("instrumented") as inst:
        model.train_step(batch)          # kernels counted per zone
        print(inst.report())

The active backend is a module-level global, so tests and benchmarks
swap execution paths without threading a parameter through every
constructor.  ``use_backend`` accepts either a backend *name* (one of
:data:`BACKEND_NAMES`) or an already-constructed backend object,
restores the previous backend on exit, and yields the active instance
(handy for reading instrumented counters afterwards).

``"instrumented"`` and ``"sanitizer"`` are the one wrapper,
:class:`Interposer`, carrying one :class:`Observer` each
(:class:`CostCounter`, :class:`NumericSanitizer`); to count and sanitize
the same run, compose them::

    counter, sanitizer = CostCounter(), NumericSanitizer(mode="record")
    with backend.use_backend(Interposer(observers=[counter, sanitizer])):
        model.train_step(batch)
    counter.zone_stats["efftt_forward"], sanitizer.traps

What the interposer forwards, what an op costs and what the sanitizer
checks are all one table, :data:`OPS` (one :class:`OpSpec` row per
protocol method, :mod:`repro.backend.ops`).
"""

from __future__ import annotations

import contextlib
from typing import Callable, Dict, Iterator, Tuple, Union

from .counter import CostCounter, DtypeViolation, InstrumentedBackend, KernelStats
from .groups import RowGroups, group_rows
from .interposer import Interposer, Observer
from .numpy_backend import NumpyBackend
from .numsan import NumericSanitizer, NumericTrapError, SanitizerBackend, TrapRecord
from .ops import OPS, OpSpec
from .plan_cache import (
    ChainPlan,
    ChainStage,
    ContractionPlanCache,
    get_plan_cache,
    reset_plan_cache,
)
from .protocol import (
    KERNEL_ZONE_NAMES,
    ZONE_COMPRESS_UPDATE,
    ZONE_EFFTT_BACKWARD,
    ZONE_EFFTT_FORWARD,
    ZONE_FUSED_UPDATE,
    ZONE_HASH_LOOKUP,
    ZONE_INTERACTION,
    ZONE_LC_CACHE,
    ZONE_LINK_COMPRESS,
    ZONE_MLP,
    ZONE_OPTIMIZER,
    ZONE_PQ_LOOKUP,
    ZONE_PS_APPLY,
    ZONE_PS_GATHER,
    ZONE_ROBE_LOOKUP,
    ZONE_SERVING_LOOKUP,
    ZONE_SHARD_ROUTE,
    ZONE_TT_BACKWARD,
    ZONE_TT_FORWARD,
    ZONE_TT_RECONSTRUCT,
    UNZONED,
    ArrayBackend,
)

__all__ = [
    "ArrayBackend",
    "NumpyBackend",
    "Interposer",
    "Observer",
    "OPS",
    "OpSpec",
    "CostCounter",
    "NumericSanitizer",
    "InstrumentedBackend",
    "SanitizerBackend",
    "NumericTrapError",
    "TrapRecord",
    "KernelStats",
    "DtypeViolation",
    "ChainPlan",
    "ChainStage",
    "ContractionPlanCache",
    "RowGroups",
    "group_rows",
    "get_plan_cache",
    "reset_plan_cache",
    "BACKEND_NAMES",
    "get_backend",
    "set_backend",
    "use_backend",
    "resolve_backend",
    "KERNEL_ZONE_NAMES",
    "UNZONED",
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
]

_BACKEND_FACTORIES: Dict[str, Callable[[], ArrayBackend]] = {
    "numpy": NumpyBackend,
    "instrumented": InstrumentedBackend,
    "sanitizer": SanitizerBackend,
}
BACKEND_NAMES: Tuple[str, ...] = tuple(_BACKEND_FACTORIES)

_DEFAULT_BACKEND = NumpyBackend()
_active_backend: ArrayBackend = _DEFAULT_BACKEND


def resolve_backend(spec: Union[str, ArrayBackend, None]) -> ArrayBackend:
    """Turn a backend name (or backend instance, or None) into a backend.

    ``None`` resolves to the currently active backend.  Raises
    :class:`ValueError` for unknown names.
    """
    if spec is None:
        return get_backend()
    if not isinstance(spec, str):
        return spec
    if spec not in _BACKEND_FACTORIES:
        raise ValueError(f"unknown backend {spec!r}; expected one of {BACKEND_NAMES}")
    return _BACKEND_FACTORIES[spec]()


def get_backend() -> ArrayBackend:
    """The backend all hot-path kernels currently execute through."""
    return _active_backend


def set_backend(spec: Union[str, ArrayBackend]) -> ArrayBackend:
    """Install a backend globally; returns the installed instance."""
    global _active_backend
    _active_backend = resolve_backend(spec)
    return _active_backend


@contextlib.contextmanager
def use_backend(spec: Union[str, ArrayBackend]) -> Iterator[ArrayBackend]:
    """Temporarily install a backend, restoring the previous one on exit."""
    global _active_backend
    previous = _active_backend
    _active_backend = resolve_backend(spec)
    try:
        yield _active_backend
    finally:
        _active_backend = previous
