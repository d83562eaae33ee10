"""Fast duplicate-safe scatter-add.

``np.add.at`` is the semantically correct primitive for sparse
embedding updates but is notoriously slow (unbuffered per-element
loop).  The embedding workload scatters *rows*, so duplicates can be
pre-summed with a sort + ``add.reduceat`` segment reduction and applied
with one vectorized indexed add — the NumPy analog of the sorted,
atomics-free scatter a tuned GPU kernel performs.  Used by every
embedding backend, so baselines and Eff-TT share the same substrate
efficiency.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.backend.groups import RowGroups

__all__ = ["scatter_add_rows", "coalesce_rows"]


def _group_rows(idx: np.ndarray) -> "RowGroups":
    """One stable sort: the order, distinct ids and segment starts."""
    # repro.backend's reference backend imports this module.
    from repro.backend.groups import group_rows

    return group_rows(idx)


def coalesce_rows(indices: np.ndarray, values: np.ndarray):
    """Sum rows of ``values`` sharing an index; return ``(unique, summed)``.

    The sparse-gradient coalescing primitive (PyTorch's
    ``coalesce()``): ``unique`` is sorted and ``summed[i]`` is the sum
    of all ``values`` rows whose index equals ``unique[i]``.  ``values``
    is flattened to 2-D on the trailing axes.
    """
    idx = np.asarray(indices)
    vals = np.asarray(values)
    if idx.size == 0:
        # reshape(-1) cannot infer a dimension from 0 elements
        width = int(np.prod(vals.shape[1:])) if vals.ndim > 1 else 1
        return idx.astype(np.int64), vals.reshape(0, max(width, 1))
    flat_vals = vals.reshape(idx.size, -1)
    groups = _group_rows(idx)
    if groups.num_groups == idx.size:
        return groups.ids, flat_vals[groups.order]
    summed = np.add.reduceat(flat_vals[groups.order], groups.starts, axis=0)
    return groups.ids, summed


def scatter_add_rows(
    target: np.ndarray,
    indices: np.ndarray,
    values: np.ndarray,
    scale: float = 1.0,
) -> None:
    """``target[indices] += scale * values`` with duplicate accumulation.

    Parameters
    ----------
    target:
        Array updated in place; rows are indexed along axis 0.  Must be
        C-contiguous (all parameter stores in this package are).
    indices:
        1-D integer row ids, duplicates allowed.
    values:
        ``(len(indices), *target.shape[1:])`` addends.
    scale:
        Multiplier fused into the scatter.  Applied *after* the
        duplicate reduction, so ``scale=-lr`` performs an SGD update
        without materializing a scaled copy of ``values`` — the data
        movement the paper's fused TT-core update eliminates (§III-B).

    The same sum as ``np.add.at(target, indices, scale * values)`` up
    to rounding order; deterministic.  Not bit for bit: each duplicate
    group is summed on its own and then added to its row, where
    ``add.at`` adds the addends to the row one at a time, and ``scale``
    multiplies the group's sum rather than each addend.
    """
    idx = np.asarray(indices)
    if idx.size == 0:
        return
    groups = _group_rows(idx)
    if groups.num_groups == idx.size:
        # No duplicates: plain fancy-indexed (scaled) add is exact.
        if scale == 1.0:
            target[idx] += values
        else:
            target[idx] += scale * values
        return
    flat_vals = values.reshape(idx.size, -1)
    summed = np.add.reduceat(flat_vals[groups.order], groups.starts, axis=0)
    if scale != 1.0:
        summed *= scale  # applied post-reduction: one small array
    target_flat = target.reshape(target.shape[0], -1)
    target_flat[groups.ids] += summed
