"""Adjusted cosine item–item similarity (Eq 3 / Eq 6 of the paper).

Adjusted cosine centers each rating on the *user's* mean before taking the
cosine, which removes per-user rating-scale bias (a "4" from a harsh rater
means more than a "4" from a generous one). The paper picks it over plain
cosine and Pearson as "the most effective" for item-based CF [29] and uses
it both for Algorithm 2 and as the baseline similarity graph ``G_ac``.

:func:`all_pairs_adjusted_cosine` yields every co-rated pair in one pass
over users, which is how the Baseliner (§5.1) computes ``G_ac`` without
touching the O(m²) pairs that share no user. It is a string-keyed
adapter over the table's interned
:class:`~repro.data.matrix.MatrixRatingStore`: the centered profiles and
per-item norms are derived once per table, and the Eq-6 accumulation runs
over dense integer keys. One item's similarities are its row of the
store's :class:`~repro.similarity.knn.NeighborIndex`, the same numbers;
there is no per-pair entry point. The original object-graph
implementation is kept as :func:`all_pairs_adjusted_cosine_reference` —
it is the oracle for the equivalence property tests and the baseline for
the microbenchmarks in ``benchmarks/test_similarity_bench.py``.
"""

from __future__ import annotations

import math
from typing import Iterator

from repro.data.ratings import RatingTable


def all_pairs_adjusted_cosine(
        table: RatingTable,
        min_common_users: int = 1,
        max_profile_size: int | None = None,
) -> Iterator[tuple[str, str, float]]:
    """Yield ``(i, j, sim)`` for every item pair with co-raters.

    One pass over user profiles accumulates the Eq 6 numerators, so cost
    is ``Σ_u |X_u|²`` instead of ``O(m²)``. Pairs are yielded once with
    ``i < j``; zero similarities are skipped (they add no edge to ``G_ac``).

    Args:
        min_common_users: drop pairs with fewer co-raters.
        max_profile_size: skip the pair-accumulation for users with more
            ratings than this (power users contribute quadratically; the
            paper's Spark job has the same practical guard via
            partitioning). ``None`` disables the cap.
    """
    return table.matrix().all_pairs_adjusted_cosine(
        min_common_users=min_common_users,
        max_profile_size=max_profile_size)


# ----------------------------------------------------------------------
# Reference implementation (pre-store object-graph path)
# ----------------------------------------------------------------------

def _item_norms_reference(table: RatingTable) -> dict[str, float]:
    """Per-item L2 norm of user-mean-centered ratings: the denominator
    terms of Eq 6, ``sqrt(Σ_{u∈Y_i} (r_{u,i} − r̄_u)²)``."""
    norms: dict[str, float] = {}
    for item in table.items:
        acc = 0.0
        for user, rating in table.item_profile(item).items():
            centered = rating.value - table.user_mean(user)
            acc += centered * centered
        norms[item] = math.sqrt(acc)
    return norms


def all_pairs_adjusted_cosine_reference(
        table: RatingTable,
        min_common_users: int = 1,
        max_profile_size: int | None = None,
) -> Iterator[tuple[str, str, float]]:
    """The original tuple-keyed dict accumulation over ``Rating`` objects.

    Kept verbatim as the oracle for the store-backed fast path: the
    property tests assert pairwise agreement to 1e-9 (including the
    ``min_common_users`` and ``max_profile_size`` guards) and the
    microbenchmarks report the speedup against it. Not used by any
    production code path.
    """
    numerators: dict[tuple[str, str], float] = {}
    common: dict[tuple[str, str], int] = {}
    for user in table.users:
        profile = table.user_profile(user)
        if max_profile_size is not None and len(profile) > max_profile_size:
            continue
        mean = table.user_mean(user)
        entries = sorted(
            (item, rating.value - mean) for item, rating in profile.items())
        for a in range(len(entries)):
            item_a, centered_a = entries[a]
            for b in range(a + 1, len(entries)):
                item_b, centered_b = entries[b]
                key = (item_a, item_b)
                numerators[key] = numerators.get(key, 0.0) + centered_a * centered_b
                common[key] = common.get(key, 0) + 1
    norms = _item_norms_reference(table)
    for (item_a, item_b), numerator in numerators.items():
        if common[(item_a, item_b)] < min_common_users:
            continue
        denom = norms[item_a] * norms[item_b]
        if denom == 0.0 or numerator == 0.0:
            continue
        yield item_a, item_b, max(-1.0, min(1.0, numerator / denom))
