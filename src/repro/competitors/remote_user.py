"""The RemoteUser heterogeneous competitor (Berkovsky et al. [6], §6.1).

Cross-domain mediation: "the user similarities in the source domain are
used to compute the k nearest neighbors for users who have not rated in
the target domain. Finally, user-based collaborative filtering is
performed."

Concretely, for a query user Alice:

1. rank every straddler (user with ratings in both domains) by Eq 1
   similarity to Alice *computed over the source domain* — the source
   store's :meth:`~repro.data.matrix.MatrixRatingStore.user_similarities`,
   kept to the straddlers;
2. keep the top-k as her remote neighborhood;
3. predict target ratings with the Eq 2 formula over those neighbors'
   *target-domain* profiles.

The contrast with X-Map: similarity is user-to-user and only first-order
(no item-level transitivity), so a neighbor is useful only if they
happen to have rated the queried target item.
"""

from __future__ import annotations

from repro.cf.predictor import BaseRecommender
from repro.data.dataset import CrossDomainDataset
from repro.errors import ConfigError
from repro.similarity.knn import top_k


class RemoteUserRecommender(BaseRecommender):
    """Cross-domain mediation via source-domain user neighborhoods.

    Args:
        data: the two-domain training data.
        k: neighborhood size.
    """

    def __init__(self, data: CrossDomainDataset, k: int = 50) -> None:
        if k <= 0:
            raise ConfigError(f"k must be positive, got {k}")
        super().__init__(data.target.ratings)
        self.data = data
        self.k = k
        self._straddlers = data.overlap_users
        self._neighbor_cache: dict[str, list[tuple[str, float]]] = {}

    def remote_neighbors(self, user: str) -> list[tuple[str, float]]:
        """Top-k straddlers by source-domain Eq 1 similarity (cached)."""
        cached = self._neighbor_cache.get(user)
        if cached is not None:
            return cached
        source = self.data.source.ratings.matrix()
        others, sims = source.user_similarities(user)
        names = source.users
        similarities = [
            (names[other], sim) for other, sim in zip(others.tolist(), sims.tolist())
            if names[other] in self._straddlers]
        chosen = top_k(similarities, self.k)
        self._neighbor_cache[user] = chosen
        return chosen

    def _predict_raw(self, user: str, item: str) -> float | None:
        target = self.data.target.ratings
        numerator = 0.0
        denominator = 0.0
        for neighbor, sim in self.remote_neighbors(user):
            rating = target.get(neighbor, item)
            if rating is None:
                continue
            numerator += sim * (rating.value - target.user_mean(neighbor))
            denominator += abs(sim)
        if denominator == 0.0:
            return None
        base = (target.user_mean(user) if user in target.users
                else self.data.source.ratings.user_mean(user))
        return base + numerator / denominator
