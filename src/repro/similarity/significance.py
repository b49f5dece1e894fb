"""Significance weighting (Definitions 2 and 4 of the paper).

A similarity of 0.5 backed by a thousand co-raters means more than one
backed by a single co-rater. The paper captures this with *weighted
significance*: the number of users who mutually like (rate at/above the
item's average) or mutually dislike (rate below it) a pair of items. Its
normalized form divides by ``|Y_i ∪ Y_j|`` so that values are comparable
across popularity levels — and, being in [0, 1], products of them penalise
longer meta-paths (Definition 5's path certainty).

Both functions are string-keyed adapters over the table's interned
:class:`~repro.data.matrix.MatrixRatingStore`: the like/dislike flag of
every rating is precomputed once per table, and each lookup probes the
smaller item's cached ``user → likes`` dict into the larger instead of
intersecting ``Rating`` objects. ``Extender.extend`` reads ``S`` / ``Ŝ``
for its pruned edges in one bulk
:meth:`~repro.data.matrix.MatrixRatingStore.edge_significance` pass; the
per-item reference walk memoises these per-pair lookups in a
:class:`~repro.core.xsim.SignificanceCache`. Nothing computes the counts
for every co-rated pair. The original object-graph implementation is
kept as :func:`significance_reference` for the equivalence tests and
microbenchmarks.
"""

from __future__ import annotations

from repro.data.ratings import RatingTable
from repro.errors import SimilarityError  # noqa: F401  (re-exported; raised by the store)


def significance(table: RatingTable, item_i: str, item_j: str) -> int:
    """Weighted significance ``S_{i,j}`` (Definition 2).

    ``S_{i,j} = |Y_{i≥ī} ∩ Y_{j≥j̄}| + |Y_{i<ī} ∩ Y_{j<j̄}|`` — co-raters
    who agree in the *direction* of their preference relative to each
    item's average rating.
    """
    return table.matrix().significance(item_i, item_j)


def normalized_significance(table: RatingTable, item_i: str, item_j: str) -> float:
    """Normalized weighted significance ``Ŝ_{i,j}`` (Definition 4).

    ``Ŝ_{i,j} = S_{i,j} / |Y_i ∪ Y_j|`` ∈ [0, 1]. Raises
    :class:`~repro.errors.SimilarityError` if neither item has any rater
    (the quantity is undefined, and asking for it signals a caller bug).
    """
    return table.matrix().normalized_significance(item_i, item_j)


# ----------------------------------------------------------------------
# Reference implementation (pre-store object-graph path)
# ----------------------------------------------------------------------

def significance_reference(table: RatingTable, item_i: str, item_j: str) -> int:
    """The original per-pair dict-intersection of Definition 2.

    Kept as the oracle for the store-backed fast path (property tests)
    and as the baseline the significance microbenchmark reports against.
    Not used by any production code path.
    """
    profile_i = table.item_profile(item_i)
    profile_j = table.item_profile(item_j)
    if len(profile_j) < len(profile_i):
        profile_i, profile_j = profile_j, profile_i
        item_i, item_j = item_j, item_i
    mean_i = table.item_mean(item_i)
    mean_j = table.item_mean(item_j)
    count = 0
    for user, rating_i in profile_i.items():
        rating_j = profile_j.get(user)
        if rating_j is None:
            continue
        likes_i = rating_i.value >= mean_i
        likes_j = rating_j.value >= mean_j
        if likes_i == likes_j:
            count += 1
    return count
