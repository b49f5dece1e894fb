"""The X-Sim metric — Definitions 2–6 of the paper.

Given a meta-path ``p = i_1 ↔ i_2 ↔ … ↔ i_k`` whose edges carry baseline
similarities ``s_ac`` and significances ``S``:

* **path similarity** (s_p): the significance-weighted mean of the edge
  similarities — edges backed by many agreeing co-raters dominate;
* **path certainty** (c_p): the product of the *normalized* significances
  Ŝ ∈ [0, 1] — every extra hop multiplies by a factor ≤ 1, which is how
  path length is penalised without an explicit length term;
* **X-Sim(i, j)**: the certainty-weighted mean of the path similarities
  over all meta-paths between i and j.

A path whose total significance is zero carries no agreement evidence at
all; its s_p is undefined (0/0) and its certainty is 0, so such paths are
dropped rather than fabricated — this follows the formulas literally.
"""

from __future__ import annotations

from typing import Iterable, Sequence

from repro.data.ratings import RatingTable
from repro.errors import SimilarityError


class SignificanceCache:
    """Memoised per-pair significance lookups over one rating table.

    The per-item reference DFS
    (:func:`~repro.core.extender.extend_item_reference`, Fig. 11's
    simulated job) reads an edge once per *meta-path through* it, so
    the cache is what keeps its enumeration at dict-hit cost per hop.
    ``Extender.extend`` does not need one: its kernel resolves every
    pruned edge in one bulk
    :meth:`~repro.data.matrix.MatrixRatingStore.edge_significance`
    pass. Misses go to the table's interned store.
    """

    def __init__(self, table: RatingTable) -> None:
        self._store = table.matrix()
        self._raw: dict[tuple[str, str], int] = {}
        self._normalized: dict[tuple[str, str], float] = {}

    @staticmethod
    def _key(item_i: str, item_j: str) -> tuple[str, str]:
        return (item_i, item_j) if item_i <= item_j else (item_j, item_i)

    def significance(self, item_i: str, item_j: str) -> int:
        """Cached ``S_{i,j}`` (Definition 2)."""
        key = self._key(item_i, item_j)
        cached = self._raw.get(key)
        if cached is None:
            cached = self._store.significance(item_i, item_j)
            self._raw[key] = cached
        return cached

    def normalized(self, item_i: str, item_j: str) -> float:
        """Cached ``Ŝ_{i,j}`` (Definition 4)."""
        key = self._key(item_i, item_j)
        cached = self._normalized.get(key)
        if cached is None:
            cached = self._store.normalized_significance(item_i, item_j)
            self._normalized[key] = cached
        return cached


def path_similarity(edges: Sequence[tuple[float, int]]) -> float:
    """``s_p`` over (edge similarity, edge significance) hops.

    ``s_p = Σ S_t·s_t / Σ S_t``. Raises
    :class:`~repro.errors.SimilarityError` when the total significance is
    zero (callers drop such paths — see module docstring).
    """
    if not edges:
        raise SimilarityError("a meta-path needs at least one edge")
    total_significance = sum(sig for _, sig in edges)
    if total_significance == 0:
        raise SimilarityError("path similarity undefined: total significance is zero")
    weighted = sum(sim * sig for sim, sig in edges)
    return weighted / total_significance


def path_certainty(normalized_significances: Sequence[float]) -> float:
    """``c_p = Π Ŝ_t`` (Definition 5).

    Each factor lies in [0, 1], so longer paths can only lose certainty —
    the paper's implicit path-length penalty.
    """
    if not normalized_significances:
        raise SimilarityError("a meta-path needs at least one edge")
    certainty = 1.0
    for value in normalized_significances:
        certainty *= value
    return certainty


def aggregate_xsim(paths: Iterable[tuple[float, float]]) -> float | None:
    """``X-Sim = Σ c_p·s_p / Σ c_p`` over (s_p, c_p) pairs (Definition 6).

    Returns ``None`` when no path carries positive certainty — the pair
    then simply has no X-Sim value, mirroring the paper's "set of items
    with *some quantified* X-Sim values".
    """
    pairs = list(paths)
    max_certainty = max((c for _, c in pairs), default=0.0)
    if max_certainty <= 0.0:
        return None
    # Normalising by the largest certainty leaves the weighted mean
    # unchanged but keeps the weights in [0, 1]: with raw subnormal
    # certainties (long paths multiply many Ŝ ≤ 1 factors) the products
    # c_p·s_p can underflow to 0 while Σ c_p stays positive, collapsing
    # the mean to 0 instead of the convex combination it should be.
    total_certainty = 0.0
    weighted = 0.0
    for similarity, certainty in pairs:
        weight = certainty / max_certainty
        total_certainty += weight
        weighted += weight * similarity
    return weighted / total_certainty
