"""Private recommendation — Algorithm 5 (PNCF), item- and user-based.

The recommendation budget ε′ splits in half (composition property,
§4.4): PNSA picks neighbors with ε′/2, then predictions perturb each
neighbor's similarity with ``Lap(SS / (ε′/2))`` noise before the usual
weighted-deviation formula:

    P[t_j] = r̄_{t_j} + Σ_k (τ + Lap)·(r_A − r̄) / Σ_k |τ + Lap|

The item-based variant additionally supports the Eq 7 temporal weights —
the paper's X-Map-ib "includes the additional feature of temporally
relevant predictions to boost the recommendation quality traded for
privacy".

The similarities are the non-private ones, read from the same kernels:
the item-based variant scans the query item's
:class:`~repro.similarity.knn.NeighborIndex` row (every rated, positively
similar item; PNSA makes the k cut) and the user-based variant takes
Eq 1 from :meth:`~repro.data.matrix.MatrixRatingStore.user_similarities`.
Their Theorem 2 sensitivities come from :mod:`repro.privacy.sensitivity`.
"""

from __future__ import annotations

import math

import numpy as np

from repro.cf.predictor import BaseRecommender
from repro.data.ratings import RatingTable
from repro.errors import PrivacyError
from repro.privacy.mechanisms import laplace_noise
from repro.privacy.pnsa import PNSAConfig, private_neighbor_selection
from repro.privacy.sensitivity import (
    item_similarity_sensitivity,
    user_similarity_sensitivity,
)
from repro.similarity.knn import NeighborIndex


class _PrivateKNNBase(BaseRecommender):
    """Shared ε′ bookkeeping for the two private recommenders."""

    def __init__(self, table: RatingTable, k: int = 50,
                 epsilon_prime: float = 0.8, rho: float = 0.1,
                 seed: int = 0) -> None:
        if epsilon_prime <= 0:
            raise PrivacyError(f"epsilon_prime must be > 0, got {epsilon_prime}")
        super().__init__(table)
        self.k = k
        self.epsilon_prime = epsilon_prime
        self.rho = rho
        self.rng = np.random.default_rng(seed)
        #: ε′/2 to neighbor selection, ε′/2 to prediction noise (§4.4).
        self.selection_epsilon = epsilon_prime / 2.0
        self.noise_epsilon = epsilon_prime / 2.0

    def _noisy(self, similarity: float, sensitivity: float) -> float:
        return similarity + laplace_noise(sensitivity, self.noise_epsilon, self.rng)


class PrivateItemKNNRecommender(_PrivateKNNBase):
    """Item-based Algorithm 5 (the engine behind X-Map-ib).

    Args:
        table: training ratings (target domain + private AlterEgos).
        k: neighborhood size.
        epsilon_prime: the recommendation privacy budget ε′.
        rho: PNSA failure probability.
        alpha: Eq 7 temporal decay (0 disables).
        seed: generator seed — private runs are reproducible.
    """

    def __init__(self, table: RatingTable, k: int = 50,
                 epsilon_prime: float = 0.8, rho: float = 0.1,
                 alpha: float = 0.0, seed: int = 0) -> None:
        super().__init__(table, k=k, epsilon_prime=epsilon_prime, rho=rho, seed=seed)
        if alpha < 0:
            raise PrivacyError(f"alpha must be >= 0, got {alpha}")
        self.alpha = alpha
        self._index: NeighborIndex | None = None
        self._sens_cache: dict[tuple[str, str], float] = {}

    def neighbor_index(self) -> NeighborIndex:
        """The Eq-6 serving index :class:`~repro.cf.item_knn.ItemKNNRecommender`
        scans, built once, lazily."""
        if self._index is None:
            self._index = self.table.matrix().neighbor_index()
        return self._index

    def _sensitivity(self, item_i: str, item_j: str) -> float:
        key = (item_i, item_j) if item_i <= item_j else (item_j, item_i)
        cached = self._sens_cache.get(key)
        if cached is None:
            cached = item_similarity_sensitivity(self.table, item_i, item_j)
            self._sens_cache[key] = cached
        return cached

    def _query_time(self, user: str) -> int:
        profile = self.table.user_profile(user)
        if not profile:
            return 0
        return max(rating.timestep for rating in profile.values())

    def _predict_raw(self, user: str, item: str) -> float | None:
        store = self.table.matrix()
        idx = store.item_index.get(item)
        u = store.user_index.get(user)
        if idx is None or u is None:
            return None
        ids, weights = self.neighbor_index().row(idx)
        # Every rated, positively similar item (ItemKNNRecommender's
        # docstring says why not the negatives); PNSA makes the k cut.
        rated = store.user_item_idx[store.user_ptr[u]:store.user_ptr[u + 1]]
        keep = np.isin(ids, rated, assume_unique=True) & (weights > 0.0)
        if not keep.any():
            return None
        items = store.items
        similarities = dict(zip([items[j] for j in ids[keep].tolist()],
                                weights[keep].tolist()))
        sensitivities = {
            rated: self._sensitivity(item, rated) for rated in similarities}
        config = PNSAConfig(k=self.k, epsilon=self.selection_epsilon, rho=self.rho)
        neighbors = private_neighbor_selection(
            similarities, sensitivities, config, self.rng)
        now = self._query_time(user)
        numerator = 0.0
        denominator = 0.0
        for rated in neighbors:
            rating = self.table.get(user, rated)
            if rating is None:  # pragma: no cover - neighbors come from X_A
                continue
            noisy = self._noisy(similarities[rated], sensitivities[rated])
            decay = (math.exp(-self.alpha * (now - rating.timestep))
                     if self.alpha > 0.0 else 1.0)
            numerator += noisy * (rating.value - self.table.item_mean(rated)) * decay
            denominator += abs(noisy) * decay
        if denominator == 0.0:
            return None
        return self.table.item_mean(item) + numerator / denominator


class PrivateUserKNNRecommender(_PrivateKNNBase):
    """User-based Algorithm 5 analogue (the engine behind X-Map-ub).

    PNSA runs once per query user over the Eq 1 user similarities (with
    the transposed Theorem 2 sensitivities) and the neighborhood is
    cached — re-drawing it per prediction would multiply the privacy
    spend for no accuracy gain.
    """

    def __init__(self, table: RatingTable, k: int = 50,
                 epsilon_prime: float = 0.8, rho: float = 0.1,
                 seed: int = 0) -> None:
        super().__init__(table, k=k, epsilon_prime=epsilon_prime, rho=rho, seed=seed)
        self._neighbor_cache: dict[str, list[tuple[str, float]]] = {}

    def _private_neighbors(self, user: str) -> list[tuple[str, float]]:
        cached = self._neighbor_cache.get(user)
        if cached is not None:
            return cached
        store = self.table.matrix()
        others, sims = store.user_similarities(user)
        users = store.users
        similarities = dict(zip([users[o] for o in others.tolist()], sims.tolist()))
        sensitivities = {other: user_similarity_sensitivity(self.table, user, other)
                         for other in similarities}
        if not similarities:
            self._neighbor_cache[user] = []
            return []
        config = PNSAConfig(k=self.k, epsilon=self.selection_epsilon, rho=self.rho)
        chosen = private_neighbor_selection(
            similarities, sensitivities, config, self.rng)
        noisy = [
            (other, self._noisy(similarities[other], sensitivities[other]))
            for other in chosen]
        self._neighbor_cache[user] = noisy
        return noisy

    def _predict_raw(self, user: str, item: str) -> float | None:
        numerator = 0.0
        denominator = 0.0
        for neighbor, noisy_sim in self._private_neighbors(user):
            rating = self.table.get(neighbor, item)
            if rating is None:
                continue
            numerator += noisy_sim * (rating.value - self.table.user_mean(neighbor))
            denominator += abs(noisy_sim)
        if denominator == 0.0:
            return None
        base = (self.table.user_mean(user) if user in self.table.users
                else self.table.item_mean(item))
        return base + numerator / denominator
