"""Locality-based index reordering (paper §IV).

The Eff-TT reuse buffer profits when indices inside a batch share TT
prefixes.  This package builds the paper's offline index bijection:

1. :mod:`repro.reorder.index_graph` — Algorithm 2: convert batched
   training indices into a weighted *index graph* (vertices = non-hot
   indices, edges = same-batch co-occurrence), with hot indices pinned
   by global access frequency.
2. :mod:`repro.reorder.community` — our own Louvain modularity
   community detection (validated against networkx in tests).
3. :mod:`repro.reorder.bijection` — assign new contiguous ids per
   community to produce the final index bijection.
4. :mod:`repro.reorder.stats` — locality metrics quantifying the
   effect (unique-prefix counts, reuse ratios).
"""

from repro.reorder.index_graph import IndexGraph, build_index_graph
from repro.reorder.community import louvain_communities, modularity
from repro.reorder.bijection import (
    IndexBijection,
    build_bijection,
    build_frequency_bijection,
)
from repro.reorder.stats import (
    TableStats,
    analytic_table_stats,
    batch_locality_stats,
    measure_table_stats,
    profile_tables,
    reuse_improvement,
    table_stats_from_log,
)

__all__ = [
    "IndexGraph",
    "build_index_graph",
    "louvain_communities",
    "modularity",
    "IndexBijection",
    "build_bijection",
    "build_frequency_bijection",
    "batch_locality_stats",
    "reuse_improvement",
    "TableStats",
    "analytic_table_stats",
    "measure_table_stats",
    "table_stats_from_log",
    "profile_tables",
]
