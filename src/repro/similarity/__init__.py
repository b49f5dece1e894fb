"""Similarity substrate: the metrics the paper's §2–3 builds on.

* item–item metrics: adjusted cosine (Eq 3/6 — the paper's choice),
  plain cosine and Pearson (the classical alternatives of [29]),
* user–user Pearson on item-centered ratings (Eq 1, used by Algorithm 1),
* significance weighting (Definitions 2 and 4),
* the baseline item similarity graph ``G_ac`` (§3.1),
* top-k neighbor selection helpers and the precomputed
  rank-ordered ``NeighborIndex`` the serve paths scan.
"""

from repro.similarity.adjusted_cosine import (
    adjusted_cosine,
    all_pairs_adjusted_cosine,
    all_pairs_adjusted_cosine_reference,
)
from repro.similarity.cosine import cosine
from repro.similarity.graph import ItemGraph, build_similarity_graph
from repro.similarity.knn import NeighborIndex, top_k
from repro.similarity.pearson import pearson_items, pearson_users
from repro.similarity.significance import (
    normalized_significance,
    significance,
    significance_reference,
)

__all__ = [
    "ItemGraph",
    "NeighborIndex",
    "adjusted_cosine",
    "all_pairs_adjusted_cosine",
    "all_pairs_adjusted_cosine_reference",
    "build_similarity_graph",
    "cosine",
    "normalized_significance",
    "pearson_items",
    "pearson_users",
    "significance",
    "significance_reference",
    "top_k",
]
