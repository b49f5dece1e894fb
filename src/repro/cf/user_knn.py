"""User-based collaborative filtering — Algorithm 1 of the paper.

Phase 1 ranks every other user by the Eq 1 similarity (item-mean-centered
Pearson) and keeps the top-k as the query user's neighborhood. Phase 2
predicts ``Pred[i] = r̄_A + Σ_B τ(A,B)(r_{B,i} − r̄_B) / Σ_B |τ(A,B)|``
(Eq 2) over the neighbors that rated *i*.

This is the recommender the user-based X-Map variants (``X-Map-ub`` /
``NX-Map-ub``) run in the target domain once the AlterEgo profile has
been injected, and it is also the engine behind the RemoteUser
competitor.

Eq 1 is one store pass per query user
(:meth:`~repro.data.matrix.MatrixRatingStore.user_similarities`): the
columns of the user's items give every co-rater's similarity at once,
the kernel the private X-Map-ub recommender and RemoteUser read too.
"""

from __future__ import annotations

from repro.cf.predictor import BaseRecommender
from repro.data.ratings import RatingTable
from repro.errors import ConfigError
from repro.similarity.knn import top_k


class UserKNNRecommender(BaseRecommender):
    """Algorithm 1 (user-based CF) over a single-domain rating table.

    Args:
        table: training ratings (the target domain, possibly including
            AlterEgo profiles).
        k: neighborhood size (the paper settles on k = 50, §6.4).

    Neighborhoods are computed lazily per user and cached — the
    evaluation protocols query a small set of test users against a large
    training population, so precomputing all-pairs user similarities
    would be wasted work.
    """

    def __init__(self, table: RatingTable, k: int = 50) -> None:
        if k <= 0:
            raise ConfigError(f"k must be positive, got {k}")
        super().__init__(table)
        self.k = k
        self._neighbor_cache: dict[str, list[tuple[str, float]]] = {}

    def neighbors(self, user: str) -> list[tuple[str, float]]:
        """Phase 1: the top-k users by Eq 1 similarity (cached).

        Only users sharing at least one item with *user* can have nonzero
        similarity, so the candidates are the co-raters
        :meth:`~repro.data.matrix.MatrixRatingStore.user_similarities`
        finds through the columns of the user's items, not all of ``U``.
        """
        cached = self._neighbor_cache.get(user)
        if cached is not None:
            return cached
        store = self.table.matrix()
        others, sims = store.user_similarities(user)
        users = store.users
        chosen = top_k(zip([users[o] for o in others.tolist()], sims.tolist()), self.k)
        self._neighbor_cache[user] = chosen
        return chosen

    def _predict_raw(self, user: str, item: str) -> float | None:
        numerator = 0.0
        denominator = 0.0
        for neighbor, sim in self.neighbors(user):
            rating = self.table.get(neighbor, item)
            if rating is None:
                continue
            numerator += sim * (rating.value - self.table.user_mean(neighbor))
            denominator += abs(sim)
        if denominator == 0.0:
            return None
        base = (self.table.user_mean(user) if user in self.table.users
                else self.table.item_mean(item))
        return base + numerator / denominator
