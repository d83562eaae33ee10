"""Modularity-based community detection (paper §IV-C).

The paper leverages "the modularity-based community detection
algorithm [34], [35]" (Louvain) to partition the index graph; this
module implements Louvain from scratch on a COO/CSR representation.
``networkx`` is used only in the test suite as a cross-checking oracle.

Modularity (paper's Equation in §IV-C):

    ``Q = sum_c [ Sigma_in_c / (2m) - (Sigma_tot_c / (2m))^2 ]``

where ``Sigma_in_c`` counts intra-community edge weight (both
directions), ``Sigma_tot_c`` the total degree of community ``c``, and
``m`` the total edge weight of the graph.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

import numpy as np

from repro.utils.rng import RngLike, ensure_rng

__all__ = ["modularity", "louvain_communities"]


def _validate_edges(
    num_vertices: int, src: np.ndarray, dst: np.ndarray, weight: np.ndarray
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    src = np.asarray(src, dtype=np.int64)
    dst = np.asarray(dst, dtype=np.int64)
    # Access statistics, not model state: float64 whatever the model's dtype.
    weight = np.asarray(weight, dtype=np.float64)
    if not (src.shape == dst.shape == weight.shape) or src.ndim != 1:
        raise ValueError("src, dst, weight must be 1-D arrays of equal length")
    if src.size and (
        min(src.min(), dst.min()) < 0 or max(src.max(), dst.max()) >= num_vertices
    ):
        raise ValueError("edge endpoints out of range")
    if np.any(weight < 0):
        raise ValueError("edge weights must be non-negative")
    return src, dst, weight


def modularity(
    labels: np.ndarray,
    num_vertices: int,
    src: np.ndarray,
    dst: np.ndarray,
    weight: np.ndarray,
    resolution: float = 1.0,
) -> float:
    """Weighted modularity of a partition (networkx-compatible).

    ``labels`` maps each vertex to its community id.  Self-loops are
    supported (they contribute degree ``2w`` and intra weight ``2w``).
    Returns 0.0 for an empty graph.
    """
    src, dst, weight = _validate_edges(num_vertices, src, dst, weight)
    labels = np.asarray(labels, dtype=np.int64)
    if labels.shape != (num_vertices,):
        raise ValueError(
            f"labels must have shape ({num_vertices},), got {labels.shape}"
        )
    total = weight.sum()
    if total <= 0:
        return 0.0
    degree = np.zeros(num_vertices)
    np.add.at(degree, src, weight)
    np.add.at(degree, dst, weight)
    # (self-loops are counted twice by the two adds above, the
    # standard degree convention)
    num_comms = labels.max() + 1 if labels.size else 0
    sigma_tot = np.zeros(num_comms)
    np.add.at(sigma_tot, labels, degree)
    intra = labels[src] == labels[dst]
    sigma_in = np.zeros(num_comms)
    # Every intra-community edge (self-loops included) contributes its
    # weight in both directions: Sigma_in = 2 * L_c.
    np.add.at(sigma_in, labels[src][intra], 2.0 * weight[intra])
    two_m = 2.0 * total
    return float(
        np.sum(sigma_in / two_m - resolution * (sigma_tot / two_m) ** 2)
    )


def _build_csr(
    num_vertices: int, src: np.ndarray, dst: np.ndarray, weight: np.ndarray
) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Symmetric CSR adjacency (self-loops separated out).

    Returns ``(indptr, indices, weights, self_loop)``.
    """
    self_mask = src == dst
    self_loop = np.zeros(num_vertices)
    np.add.at(self_loop, src[self_mask], weight[self_mask])
    s, d, w = src[~self_mask], dst[~self_mask], weight[~self_mask]
    # Symmetrize.
    all_src = np.concatenate([s, d])
    all_dst = np.concatenate([d, s])
    all_w = np.concatenate([w, w])
    order = np.argsort(all_src, kind="stable")
    all_src, all_dst, all_w = all_src[order], all_dst[order], all_w[order]
    indptr = np.zeros(num_vertices + 1, dtype=np.int64)
    counts = np.bincount(all_src, minlength=num_vertices)
    indptr[1:] = np.cumsum(counts)
    return indptr, all_dst, all_w, self_loop


def _local_moving(
    num_vertices: int,
    indptr: np.ndarray,
    indices: np.ndarray,
    weights: np.ndarray,
    self_loop: np.ndarray,
    two_m: float,
    resolution: float,
    rng: np.random.Generator,
    max_passes: int,
) -> np.ndarray:
    """Phase 1 of Louvain: greedy single-node moves until stable."""
    comm = np.arange(num_vertices, dtype=np.int64)
    # degree = incident edge weight + 2 * self-loop weight
    degree = np.add.reduceat(
        np.concatenate([weights, [0.0]]), np.minimum(indptr[:-1], weights.size)
    )
    degree[np.diff(indptr) == 0] = 0.0
    degree += 2.0 * self_loop
    sigma_tot = degree.copy()

    # Isolated vertices never move (no neighboring community can gain);
    # skipping them makes local moving linear in *edges*, which matters
    # for embedding-table graphs where most rows never co-occur.
    order = np.flatnonzero(np.diff(indptr) > 0)
    for _ in range(max_passes):
        rng.shuffle(order)
        moved = 0
        for v in order:
            start, end = indptr[v], indptr[v + 1]
            neigh = indices[start:end]
            w_edge = weights[start:end]
            current = comm[v]
            # Weight from v to each neighboring community.
            links: Dict[int, float] = {}
            for u, w in zip(neigh.tolist(), w_edge.tolist()):
                c = comm[u]
                links[c] = links.get(c, 0.0) + w
            sigma_tot[current] -= degree[v]
            w_to_current = links.get(current, 0.0)
            best_comm = current
            best_gain = w_to_current - resolution * sigma_tot[current] * degree[v] / two_m
            for c, w_to_c in links.items():
                if c == current:
                    continue
                gain = w_to_c - resolution * sigma_tot[c] * degree[v] / two_m
                if gain > best_gain + 1e-12:
                    best_gain = gain
                    best_comm = c
            sigma_tot[best_comm] += degree[v]
            if best_comm != current:
                comm[v] = best_comm
                moved += 1
        if moved == 0:
            break
    return comm


def _aggregate(
    labels: np.ndarray,
    src: np.ndarray,
    dst: np.ndarray,
    weight: np.ndarray,
) -> Tuple[int, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Phase 2: contract communities into super-vertices.

    Returns ``(num_super, src, dst, weight, compact_labels)`` where
    ``compact_labels`` renumbers ``labels`` to ``0..num_super-1``.
    """
    unique, compact = np.unique(labels, return_inverse=True)
    num_super = unique.size
    cs, cd = compact[src], compact[dst]
    lo = np.minimum(cs, cd)
    hi = np.maximum(cs, cd)
    keys = lo * np.int64(num_super) + hi
    uniq_keys, inverse = np.unique(keys, return_inverse=True)
    agg_w = np.zeros(uniq_keys.size)
    np.add.at(agg_w, inverse, weight)
    new_src = (uniq_keys // num_super).astype(np.int64)
    new_dst = (uniq_keys % num_super).astype(np.int64)
    return num_super, new_src, new_dst, agg_w, compact.astype(np.int64)


def louvain_communities(
    num_vertices: int,
    src: np.ndarray,
    dst: np.ndarray,
    weight: np.ndarray,
    seed: RngLike = 0,
    resolution: float = 1.0,
    max_levels: int = 10,
    max_passes: int = 10,
) -> np.ndarray:
    """Louvain community detection on a weighted undirected graph.

    Parameters
    ----------
    num_vertices:
        Vertex count; isolated vertices become singleton communities.
    src, dst, weight:
        COO edges (undirected; duplicates are summed implicitly by the
        degree computation).
    seed:
        RNG controlling the node-visit order (Louvain is order
        dependent; a fixed seed makes runs reproducible).
    resolution:
        Modularity resolution parameter ``gamma``.
    max_levels, max_passes:
        Safety bounds on the two nested loops.

    Returns
    -------
    ``(num_vertices,)`` int64 community labels, compact in
    ``0..num_communities-1``.
    """
    src, dst, weight = _validate_edges(num_vertices, src, dst, weight)
    if num_vertices == 0:
        return np.empty(0, dtype=np.int64)
    rng = ensure_rng(seed)
    total = weight.sum()
    if total <= 0:
        return np.arange(num_vertices, dtype=np.int64)
    two_m = 2.0 * total

    # mapping from original vertex to current super-vertex
    assignment = np.arange(num_vertices, dtype=np.int64)
    cur_n, cur_src, cur_dst, cur_w = num_vertices, src, dst, weight
    prev_q = modularity(assignment, num_vertices, src, dst, weight, resolution)

    for _ in range(max_levels):
        indptr, indices, weights, self_loop = _build_csr(
            cur_n, cur_src, cur_dst, cur_w
        )
        labels = _local_moving(
            cur_n,
            indptr,
            indices,
            weights,
            self_loop,
            two_m,
            resolution,
            rng,
            max_passes,
        )
        cur_n, cur_src, cur_dst, cur_w, compact = _aggregate(
            labels, cur_src, cur_dst, cur_w
        )
        assignment = compact[labels[assignment]]
        new_q = modularity(assignment, num_vertices, src, dst, weight, resolution)
        if new_q <= prev_q + 1e-9:
            break
        prev_q = new_q
        if cur_n == 1:
            break

    # Compact final labels.
    _, compact_final = np.unique(assignment, return_inverse=True)
    return compact_final.astype(np.int64)
