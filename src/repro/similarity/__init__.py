"""Similarity substrate: the metrics the paper's §2–3 builds on.

* the all-pairs adjusted cosine of Eq 6 (the paper's item–item
  similarity) and its object-graph reference,
* significance weighting (Definitions 2 and 4),
* the baseline item similarity graph ``G_ac`` (§3.1),
* top-k neighbor selection helpers and the precomputed
  rank-ordered ``NeighborIndex`` the serve paths scan.

There is no per-pair similarity call: an item's Eq-6 similarities are
its ``NeighborIndex`` row, and a user's Eq-1 similarities come from
:meth:`~repro.data.matrix.MatrixRatingStore.user_similarities`.
"""

from repro.similarity.adjusted_cosine import (
    all_pairs_adjusted_cosine,
    all_pairs_adjusted_cosine_reference,
)
from repro.similarity.graph import ItemGraph, build_similarity_graph
from repro.similarity.knn import NeighborIndex, top_k
from repro.similarity.significance import (
    normalized_significance,
    significance,
    significance_reference,
)

__all__ = [
    "ItemGraph",
    "NeighborIndex",
    "all_pairs_adjusted_cosine",
    "all_pairs_adjusted_cosine_reference",
    "build_similarity_graph",
    "normalized_significance",
    "significance",
    "significance_reference",
    "top_k",
]
