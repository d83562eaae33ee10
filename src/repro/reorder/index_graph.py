"""Index-graph generation from batched training data (paper Algorithm 2).

Global information: indices are ranked by global access frequency; the
top ``hot_ratio`` fraction ("hot embeddings") are pinned and excluded
from the graph.  Local information: every pair of non-hot indices that
co-occurs in a batch contributes an edge; multiplicity becomes edge
weight.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, List, Sequence, Tuple

import numpy as np

from repro.utils.validation import check_1d_int_array, check_probability

__all__ = ["IndexGraph", "build_index_graph", "frequency_order"]


@dataclass(frozen=True)
class IndexGraph:
    """Weighted undirected co-occurrence graph over non-hot indices.

    Vertices are *frequency ranks shifted past the hot region*: vertex
    ``v`` corresponds to the index of global frequency rank
    ``hot_count + v``.  Attributes mirror a COO adjacency.

    Attributes
    ----------
    num_vertices:
        Number of non-hot vertices (``table_rows - hot_count``).
    src, dst, weight:
        Deduplicated undirected edges (``src < dst``) with
        co-occurrence counts.
    hot_count:
        Number of pinned hot indices.
    rank_of_index / index_of_rank:
        The global-frequency bijection: ``rank_of_index[i]`` is the
        frequency rank of original index ``i`` (0 = most accessed),
        ``index_of_rank`` its inverse.
    """

    num_vertices: int
    src: np.ndarray
    dst: np.ndarray
    weight: np.ndarray
    hot_count: int
    rank_of_index: np.ndarray
    index_of_rank: np.ndarray

    @property
    def num_edges(self) -> int:
        return int(self.src.size)

    def degree_weights(self) -> np.ndarray:
        """Weighted degree per vertex."""
        deg = np.zeros(self.num_vertices)
        np.add.at(deg, self.src, self.weight)
        np.add.at(deg, self.dst, self.weight)
        return deg


def frequency_order(
    batches: Sequence[np.ndarray], num_rows: int
) -> Tuple[np.ndarray, np.ndarray]:
    """Global access-frequency ordering of all table indices.

    Returns ``(index_of_rank, rank_of_index)``: ``index_of_rank[r]`` is
    the original index with the ``r``-th highest access count (ties
    broken by index for determinism); ``rank_of_index`` is the inverse
    permutation.  Indices never accessed sort to the tail.
    """
    counts = np.zeros(num_rows, dtype=np.int64)
    for batch in batches:
        idx = check_1d_int_array(batch, "batch", min_value=0, max_value=num_rows - 1)
        np.add.at(counts, idx, 1)
    # stable argsort on negated counts: frequency desc, index asc.
    index_of_rank = np.argsort(-counts, kind="stable").astype(np.int64)
    rank_of_index = np.empty_like(index_of_rank)
    rank_of_index[index_of_rank] = np.arange(num_rows, dtype=np.int64)
    return index_of_rank, rank_of_index


def _batch_edges(vertices: np.ndarray, max_pairs_per_batch: int) -> np.ndarray:
    """All unordered vertex pairs within one batch (``self_combinations``).

    Duplicate vertices are collapsed first (an index appearing twice in
    a batch pairs with others once).  Very large batches are subsampled
    to bound the quadratic blow-up, matching practical implementations.
    """
    verts = np.unique(vertices)
    if verts.size < 2:
        return np.empty((0, 2), dtype=np.int64)
    num_pairs = verts.size * (verts.size - 1) // 2
    if num_pairs > max_pairs_per_batch:
        # Keep the pair budget by sampling a subset of vertices.
        keep = int(np.floor((1 + np.sqrt(1 + 8 * max_pairs_per_batch)) / 2))
        verts = verts[:: max(1, verts.size // keep)][:keep]
        if verts.size < 2:
            return np.empty((0, 2), dtype=np.int64)
    left, right = np.triu_indices(verts.size, k=1)
    return np.stack([verts[left], verts[right]], axis=1)


def build_index_graph(
    batches: Iterable[np.ndarray],
    num_rows: int,
    hot_ratio: float = 0.01,
    max_pairs_per_batch: int = 200_000,
) -> IndexGraph:
    """Run Algorithm 2: batched indices -> weighted index graph.

    Parameters
    ----------
    batches:
        Iterable of 1-D arrays, each the sparse indices of one training
        batch for **one** embedding table.
    num_rows:
        Table length.
    hot_ratio:
        Fraction of the table treated as pinned hot embeddings
        (``Hot_thre = Table_length * Hot_ratio``).
    max_pairs_per_batch:
        Safety bound on per-batch edge generation.

    Notes
    -----
    Following Algorithm 2 line 4, hot indices are clamped out: any
    batch member whose frequency rank falls below the hot threshold is
    dropped before edge generation, and remaining ranks are shifted by
    ``hot_count`` so graph vertices start at 0.
    """
    check_probability(hot_ratio, "hot_ratio")
    batch_list: List[np.ndarray] = [np.asarray(b) for b in batches]
    index_of_rank, rank_of_index = frequency_order(batch_list, num_rows)
    hot_count = int(num_rows * hot_ratio)
    num_vertices = num_rows - hot_count

    edge_chunks: List[np.ndarray] = []
    for batch in batch_list:
        ranks = rank_of_index[np.asarray(batch, dtype=np.int64)]
        non_hot = ranks[ranks >= hot_count] - hot_count
        edges = _batch_edges(non_hot, max_pairs_per_batch)
        if edges.size:
            edge_chunks.append(edges)

    if edge_chunks:
        all_edges = np.concatenate(edge_chunks, axis=0)
        # Canonical direction then dedup with multiplicity as weight.
        lo = np.minimum(all_edges[:, 0], all_edges[:, 1])
        hi = np.maximum(all_edges[:, 0], all_edges[:, 1])
        keys = lo * np.int64(num_vertices) + hi
        unique_keys, counts = np.unique(keys, return_counts=True)
        src = (unique_keys // num_vertices).astype(np.int64)
        dst = (unique_keys % num_vertices).astype(np.int64)
        # Access statistics, not model state: float64 whatever the model's dtype.
        weight = counts.astype(np.float64)
    else:
        src = np.empty(0, dtype=np.int64)
        dst = np.empty(0, dtype=np.int64)
        weight = np.empty(0, dtype=np.float64)

    return IndexGraph(
        num_vertices=num_vertices,
        src=src,
        dst=dst,
        weight=weight,
        hot_count=hot_count,
        rank_of_index=rank_of_index,
        index_of_rank=index_of_rank,
    )
