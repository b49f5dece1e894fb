"""Time-decayed item-based CF — Eq 7 of the paper (§4.4).

AlterEgo profiles preserve the user's source-domain *timesteps*, so the
item-based recommender can weight each contributing rating by how recent
it is:

    Pred[i](t) = r̄_i + Σ_j τ(i,j)(r_{A,j} − r̄_j)·e^{−α(t−t_{A,j})}
                        / Σ_j |τ(i,j)|·e^{−α(t−t_{A,j})}

``t`` is the query time — the user's latest timestep — and α controls the
decay (Figure 5 tunes α, finding small values around 0.02–0.03 optimal:
enough decay to favour current taste, not so much that old signal is
thrown away). α = 0 recovers plain Algorithm 2 exactly.
"""

from __future__ import annotations

import math

from repro.cf.item_knn import ItemKNNRecommender
from repro.data.ratings import RatingTable
from repro.errors import ConfigError


class TemporalItemKNNRecommender(ItemKNNRecommender):
    """Algorithm 2 with Eq 7's exponential time decay.

    Args:
        table: training ratings (timesteps are read from the ratings).
        k: neighborhood size.
        alpha: decay rate α ≥ 0; 0 disables the temporal effect.
    """

    def __init__(self, table: RatingTable, k: int = 50, alpha: float = 0.0) -> None:
        if alpha < 0:
            raise ConfigError(f"alpha must be >= 0, got {alpha}")
        super().__init__(table, k=k)
        self.alpha = alpha

    def query_time(self, user: str) -> int:
        """The user's logical "now": their latest rating timestep."""
        profile = self.table.user_profile(user)
        if not profile:
            return 0
        return max(rating.timestep for rating in profile.values())

    def _predict_raw(self, user: str, item: str) -> float | None:
        if self.alpha == 0.0:
            return super()._predict_raw(user, item)
        now = self.query_time(user)
        numerator = 0.0
        denominator = 0.0
        for rated, sim in self.rated_neighbors(user, item):
            rating = self.table.get(user, rated)
            if rating is None:  # pragma: no cover - neighbors come from X_A
                continue
            decay = math.exp(-self.alpha * (now - rating.timestep))
            numerator += sim * (rating.value - self.table.item_mean(rated)) * decay
            denominator += abs(sim) * decay
        if denominator == 0.0:
            return None
        return self.table.item_mean(item) + numerator / denominator
