"""Argument-validation helpers.

Public API entry points validate aggressively and raise with messages
that name the offending argument; hot inner loops do not re-validate.
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

__all__ = [
    "check_1d_int_array",
    "check_positive",
    "check_probability",
    "ids_within",
]


def check_1d_int_array(
    array: np.ndarray,
    name: str,
    *,
    min_value: Optional[int] = None,
    max_value: Optional[int] = None,
) -> np.ndarray:
    """Validate and canonicalize a 1-D integer index array.

    Returns the array as contiguous ``int64`` (copying only if
    needed).  Bounds are checked inclusively when provided.
    """
    arr = np.asarray(array)
    if arr.ndim != 1:
        raise ValueError(f"{name} must be 1-D, got shape {arr.shape}")
    if not np.issubdtype(arr.dtype, np.integer):
        raise TypeError(f"{name} must have an integer dtype, got {arr.dtype}")
    arr = np.ascontiguousarray(arr, dtype=np.int64)
    if arr.size:
        if min_value is not None and arr.min() < min_value:
            raise ValueError(
                f"{name} contains value {arr.min()} below minimum {min_value}"
            )
        if max_value is not None and arr.max() > max_value:
            raise ValueError(
                f"{name} contains value {arr.max()} above maximum {max_value}"
            )
    return arr


def ids_within(
    ids: Sequence[np.ndarray], max_values: np.ndarray
) -> Optional[np.ndarray]:
    """Every ``ids[i]`` concatenated, if all lie in ``[0, max_values[i]]``.

    The fast path of :func:`check_1d_int_array` over many index arrays
    at once: one comparison for all of them.  Returns the concatenation
    as int64, or ``None`` when any array is not a 1-D integer array
    within its bound — callers then check each array on its own, so the
    error names the first bad one.
    """
    if not all(
        isinstance(idx, np.ndarray) and idx.ndim == 1 and idx.dtype.kind in "iu"
        for idx in ids
    ):
        return None
    flat = np.concatenate(ids).astype(np.int64, copy=False)
    if flat.size and (
        flat.min() < 0
        or not (flat <= np.repeat(max_values, [idx.size for idx in ids])).all()
    ):
        return None
    return flat


def check_positive(value: float, name: str, *, strict: bool = True) -> float:
    """Require ``value > 0`` (or ``>= 0`` when ``strict=False``)."""
    if strict and not value > 0:
        raise ValueError(f"{name} must be > 0, got {value}")
    if not strict and value < 0:
        raise ValueError(f"{name} must be >= 0, got {value}")
    return value


def check_probability(value: float, name: str) -> float:
    """Require ``0 <= value <= 1``."""
    if not 0.0 <= value <= 1.0:
        raise ValueError(f"{name} must be in [0, 1], got {value}")
    return value
