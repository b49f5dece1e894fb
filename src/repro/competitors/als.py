"""Alternating Least Squares matrix factorisation — MLlib-ALS substitute.

The paper compares against Spark MLlib's ALS in the homogeneous setting
(Table 3) and for scalability (Figure 11). We implement the same
algorithm from scratch: factor the (mean-centered) rating matrix as
``R ≈ U Vᵀ + biases`` by alternating ridge-regression solves —

    u_a ← (Σ_i v_i v_iᵀ + λ n_a I)⁻¹ Σ_i v_i (r_{a,i} − μ − b_a − b_i)

and symmetrically for item factors, with the user/item biases refit in
closed form between sweeps. Regularisation is weighted-λ as in the
original ALS-WR paper (and MLlib): each factor's penalty scales with its
rating count.

Figure 11 costs ALS from its rating counts
(:func:`~repro.evaluation.experiments.fig11_scalability.als_stages`);
it does not run this class.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.cf.predictor import BaseRecommender
from repro.data.ratings import RatingTable
from repro.errors import ConfigError


@dataclass(frozen=True)
class ALSConfig:
    """ALS hyper-parameters (MLlib-style defaults).

    Attributes:
        rank: latent dimensionality.
        n_iterations: alternating sweeps.
        regularization: the λ of the weighted-λ ridge term.
        seed: factor initialisation seed.
    """

    rank: int = 8
    n_iterations: int = 12
    regularization: float = 0.08
    seed: int = 0

    def validated(self) -> "ALSConfig":
        """Raise :class:`~repro.errors.ConfigError` on bad values."""
        if self.rank <= 0:
            raise ConfigError(f"rank must be positive, got {self.rank}")
        if self.n_iterations <= 0:
            raise ConfigError(f"n_iterations must be positive, got {self.n_iterations}")
        if self.regularization < 0:
            raise ConfigError(f"regularization must be >= 0, got {self.regularization}")
        return self


class ALSRecommender(BaseRecommender):
    """Model-based competitor: biased matrix factorisation fit with ALS.

    Training happens eagerly at construction (model-based schemes
    front-load their cost — the very property §2.1 contrasts with
    memory-based flexibility).
    """

    def __init__(self, table: RatingTable, config: ALSConfig | None = None) -> None:
        super().__init__(table)
        self.config = (config or ALSConfig()).validated()
        self._users = sorted(table.users)
        self._items = sorted(table.items)
        self._user_index = {u: idx for idx, u in enumerate(self._users)}
        self._item_index = {i: idx for idx, i in enumerate(self._items)}
        self._fit()

    def _fit(self) -> None:
        config = self.config
        rng = np.random.default_rng(config.seed)
        n_users = len(self._users)
        n_items = len(self._items)
        rank = config.rank
        self._mu = self.table.global_mean()
        self._user_bias = np.zeros(n_users)
        self._item_bias = np.zeros(n_items)
        self._user_factors = rng.normal(0.0, 0.1, size=(n_users, rank))
        self._item_factors = rng.normal(0.0, 0.1, size=(n_items, rank))

        # Ratings in index form, grouped both ways.
        by_user: list[list[tuple[int, float]]] = [[] for _ in range(n_users)]
        by_item: list[list[tuple[int, float]]] = [[] for _ in range(n_items)]
        for rating in self.table:
            u = self._user_index[rating.user]
            i = self._item_index[rating.item]
            by_user[u].append((i, rating.value))
            by_item[i].append((u, rating.value))

        lam = config.regularization
        eye = np.eye(rank)
        for _ in range(config.n_iterations):
            # Refit biases in closed form (ridge on the residual mean).
            for u, entries in enumerate(by_user):
                if not entries:
                    continue
                residuals = [
                    value - self._mu - self._item_bias[i]
                    - float(self._user_factors[u] @ self._item_factors[i])
                    for i, value in entries]
                self._user_bias[u] = sum(residuals) / (len(entries) + lam)
            for i, entries in enumerate(by_item):
                if not entries:
                    continue
                residuals = [
                    value - self._mu - self._user_bias[u]
                    - float(self._user_factors[u] @ self._item_factors[i])
                    for u, value in entries]
                self._item_bias[i] = sum(residuals) / (len(entries) + lam)
            # Solve user factors with item factors fixed.
            for u, entries in enumerate(by_user):
                if not entries:
                    continue
                indices = [i for i, _ in entries]
                matrix = self._item_factors[indices]
                targets = np.array([
                    value - self._mu - self._user_bias[u] - self._item_bias[i]
                    for i, value in entries])
                gram = matrix.T @ matrix + lam * len(entries) * eye
                self._user_factors[u] = np.linalg.solve(gram, matrix.T @ targets)
            # Solve item factors with user factors fixed.
            for i, entries in enumerate(by_item):
                if not entries:
                    continue
                indices = [u for u, _ in entries]
                matrix = self._user_factors[indices]
                targets = np.array([
                    value - self._mu - self._user_bias[u] - self._item_bias[i]
                    for u, value in entries])
                gram = matrix.T @ matrix + lam * len(entries) * eye
                self._item_factors[i] = np.linalg.solve(gram, matrix.T @ targets)

    def training_rmse(self) -> float:
        """Root-mean-square error on the training ratings (convergence
        diagnostics for tests)."""
        total = 0.0
        for rating in self.table:
            predicted = self.predict(rating.user, rating.item)
            total += (predicted - rating.value) ** 2
        return float(np.sqrt(total / len(self.table)))

    def _predict_raw(self, user: str, item: str) -> float | None:
        u = self._user_index.get(user)
        i = self._item_index.get(item)
        if u is None and i is None:
            return None
        estimate = self._mu
        if u is not None:
            estimate += self._user_bias[u]
        if i is not None:
            estimate += self._item_bias[i]
        if u is not None and i is not None:
            estimate += float(self._user_factors[u] @ self._item_factors[i])
        return estimate
