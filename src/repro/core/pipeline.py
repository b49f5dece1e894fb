"""The NX-Map / X-Map recommender facades (§4–§5, Figure 4).

These classes wire the four pipeline components together:

    Baseliner → Extender → Generator → Recommender

``fit(data)`` runs the offline phases (the paper runs them periodically,
§5.4); afterwards the object satisfies the
:class:`~repro.cf.predictor.Recommender` protocol over the *target*
domain — predictions and Top-N for any user with a source-domain profile,
whether or not she ever rated a target item.

Variants (matching the paper's naming):

* ``NXMapRecommender(mode="item")`` — NX-Map-ib (with optional Eq 7 α),
* ``NXMapRecommender(mode="user")`` — NX-Map-ub,
* ``XMapRecommender(mode="item")``  — X-Map-ib (PRS + PNSA + PNCF),
* ``XMapRecommender(mode="user")``  — X-Map-ub.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from repro.cf.item_knn import ItemKNNRecommender
from repro.cf.predictor import Recommender
from repro.cf.temporal import TemporalItemKNNRecommender
from repro.cf.user_knn import UserKNNRecommender
from repro.core.alterego import AlterEgoGenerator, ReplacementPolicy
from repro.core.baseliner import Baseliner, BaselineSimilarities
from repro.core.extender import Extender, ExtenderConfig, XSimMap
from repro.core.layers import LayerPartition
from repro.data.dataset import CrossDomainDataset
from repro.data.ratings import RatingTable
from repro.errors import ConfigError, ReproError
from repro.privacy.accountant import PrivacyAccountant
from repro.privacy.pncf import (
    PrivateItemKNNRecommender,
    PrivateUserKNNRecommender,
)

_MODES = ("item", "user", "mf")


@dataclass(frozen=True)
class XMapConfig:
    """All tunables of the pipeline, with the paper's defaults.

    Attributes:
        mode: ``"item"`` (Algorithm 2 in the target domain), ``"user"``
            (Algorithm 1), or ``"mf"`` — matrix factorisation over the
            AlterEgo-augmented target table, the paper's §4.4 remark
            that "any homogeneous recommendation algorithm, like Matrix
            Factorization techniques, can be applied in the target
            domain" (their GitHub demonstrates it with Spark MLlib; we
            use the from-scratch ALS). ``"mf"`` is non-private only.
        prune_k: the Extender's per-layer top-k (§3.2; the paper uses 50).
        max_paths_per_item: meta-path enumeration cap per source item.
        n_replacements: AlterEgo replacement-set size (footnote 10;
            1 recovers the single-replacement scheme).
        cf_k: the recommendation neighborhood size (paper: 50, §6.4).
        alpha: Eq 7 temporal decay — item mode only (the paper applies
            temporal relevance to the item-based variant, §4.4).
        epsilon: PRS budget ε (X-Map only; paper selects 0.3 for ib,
            0.6 for ub, §6.3).
        epsilon_prime: recommendation budget ε′ (X-Map only; paper:
            0.8 for ib, 0.3 for ub).
        rho: PNSA failure probability.
        min_common_users: Baseliner edge threshold.
        incremental: keep the Baseliner's sweep state
            (:class:`~repro.engine.sharded_sweep.IncrementalSweep`)
            attached to the fitted pipeline's ``baseline.state``, so
            online rating batches can be appended via
            :meth:`~repro.core.baseliner.Baseliner.update` without
            re-running the offline sweep. The fitted pipeline is
            otherwise identical.
        seed: randomness seed for the private mechanisms.
    """

    mode: str = "item"
    prune_k: int = 50
    max_paths_per_item: int | None = 5000
    n_replacements: int = 12
    cf_k: int = 50
    alpha: float = 0.0
    epsilon: float = 0.3
    epsilon_prime: float = 0.8
    rho: float = 0.1
    min_common_users: int = 1
    incremental: bool = False
    seed: int = 0

    def validated(self) -> "XMapConfig":
        """Raise :class:`~repro.errors.ConfigError` on bad values."""
        if self.mode not in _MODES:
            raise ConfigError(f"mode must be one of {_MODES}, got {self.mode!r}")
        if self.cf_k <= 0:
            raise ConfigError(f"cf_k must be positive, got {self.cf_k}")
        if self.alpha < 0:
            raise ConfigError(f"alpha must be >= 0, got {self.alpha}")
        if self.alpha > 0 and self.mode != "item":
            raise ConfigError(
                "temporal decay (alpha > 0) applies to the item-based "
                "variant only (§4.4)")
        if self.n_replacements <= 0:
            raise ConfigError(
                f"n_replacements must be positive, got {self.n_replacements}")
        ExtenderConfig(k=self.prune_k,
                       max_paths_per_item=self.max_paths_per_item).validated()
        return self


class _PipelineBase:
    """Shared offline pipeline; subclasses choose generator + recommender."""

    def __init__(self, config: XMapConfig | None = None) -> None:
        self.config = (config or XMapConfig()).validated()
        self._fitted = False
        self.baseline: BaselineSimilarities | None = None
        self.partition: LayerPartition | None = None
        self.xsim_map: XSimMap | None = None
        self.generator: AlterEgoGenerator | None = None
        self.augmented_target: RatingTable | None = None
        self._recommender: Recommender | None = None

    # -- subclass hooks --------------------------------------------------

    def _make_generator(self, xsim_map: XSimMap) -> AlterEgoGenerator:
        raise NotImplementedError

    def _make_recommender(self, table: RatingTable) -> Recommender:
        raise NotImplementedError

    # -- pipeline ---------------------------------------------------------

    def fit(self, data: CrossDomainDataset,
            users: Iterable[str] | None = None) -> "_PipelineBase":
        """Run the offline phases on *data*.

        Args:
            data: the two-domain training data.
            users: which users to build AlterEgos for (default: every
                user with a source-domain profile — the paper generates
                AlterEgos for all of them so any can be served online).
        """
        self.data = data
        # One aggregated table (and therefore one interned
        # MatrixRatingStore, built lazily on first similarity call) is
        # shared by the Baseliner's Eq-6 sweep and the Extender's
        # per-edge significance pass — data.merged() builds a fresh
        # table per call, which would re-derive every profile per phase.
        merged = data.merged()
        baseliner = Baseliner(
            min_common_users=self.config.min_common_users,
            keep_state=self.config.incremental)
        self.baseline = baseliner.compute(data, merged=merged)
        self.partition = LayerPartition.from_graph(
            self.baseline.graph, data.domain_map())
        extender = Extender(ExtenderConfig(
            k=self.config.prune_k,
            max_paths_per_item=self.config.max_paths_per_item))
        self.xsim_map = extender.extend(
            self.baseline.graph, self.partition, merged,
            source_domain=data.source.name)
        self.generator = self._make_generator(self.xsim_map)
        alterego_users = (sorted(set(users)) if users is not None
                          else sorted(data.source.users))
        self.augmented_target = self.generator.alterego_table(
            alterego_users, data.source.ratings, data.target.ratings)
        self._recommender = self._make_recommender(self.augmented_target)
        self._fitted = True
        return self

    def _require_fitted(self) -> Recommender:
        if not self._fitted or self._recommender is None:
            raise ReproError(
                f"{type(self).__name__} is not fitted; call fit(data) first")
        return self._recommender

    def predict(self, user: str, item: str) -> float:
        """Predicted target-domain rating (Recommender protocol)."""
        return self._require_fitted().predict(user, item)

    def recommend(self, user: str, n: int = 10) -> list[tuple[str, float]]:
        """Top-N target-domain items (Recommender protocol)."""
        return self._require_fitted().recommend(user, n)

    def item_mapping(self) -> dict[str, str]:
        """The Generator's source → replacement item mapping."""
        if self.generator is None:
            raise ReproError("call fit(data) before reading the item mapping")
        return self.generator.item_mapping()

    def snapshot(self, version: int = 0):
        """Freeze the fitted model into a
        :class:`~repro.serving.snapshot.ModelSnapshot`.

        Captures the serving store and index and the Generator's
        replacement sets; ``snapshot().save(directory)``
        then persists everything a restarted server needs — loading it
        serves predictions bit-identical to this fitted pipeline
        without re-running any offline phase. Deterministic item-mode
        pipelines only (see
        :meth:`~repro.serving.snapshot.ModelSnapshot.from_pipeline`).
        """
        from repro.serving.snapshot import ModelSnapshot

        return ModelSnapshot.from_pipeline(self, version=version)


class NXMapRecommender(_PipelineBase):
    """The non-private pipeline (NX-Map, §4).

    Deterministic argmax replacements; plain Algorithm 1/2 in the target
    domain (with Eq 7 decay in item mode when ``alpha > 0``).
    """

    def _make_generator(self, xsim_map: XSimMap) -> AlterEgoGenerator:
        return AlterEgoGenerator(
            xsim_map, policy=ReplacementPolicy.NON_PRIVATE,
            n_replacements=self.config.n_replacements)

    def _make_recommender(self, table: RatingTable) -> Recommender:
        if self.config.mode == "user":
            return UserKNNRecommender(table, k=self.config.cf_k)
        if self.config.mode == "mf":
            from repro.competitors.als import ALSConfig, ALSRecommender
            return ALSRecommender(table, ALSConfig(seed=self.config.seed))
        if self.config.alpha > 0.0:
            return TemporalItemKNNRecommender(
                table, k=self.config.cf_k, alpha=self.config.alpha)
        return ItemKNNRecommender(table, k=self.config.cf_k)


class XMapRecommender(_PipelineBase):
    """The differentially private pipeline (X-Map, §4).

    PRS replacements (ε-DP AlterEgos) plus PNSA + PNCF recommendation
    (ε′-DP), with the spends recorded in :attr:`accountant`.
    """

    def __init__(self, config: XMapConfig | None = None) -> None:
        super().__init__(config)
        self.accountant = PrivacyAccountant()

    def _make_generator(self, xsim_map: XSimMap) -> AlterEgoGenerator:
        return AlterEgoGenerator(
            xsim_map, policy=ReplacementPolicy.PRIVATE,
            epsilon=self.config.epsilon, seed=self.config.seed,
            accountant=self.accountant,
            n_replacements=self.config.n_replacements)

    def _make_recommender(self, table: RatingTable) -> Recommender:
        if self.config.mode == "mf":
            raise ConfigError(
                "mode='mf' is non-private only (NXMapRecommender); the "
                "private recommendation phase is defined for the kNN "
                "schemes of Algorithms 4-5")
        self.accountant.spend(
            "PNSA (neighbor selection)", self.config.epsilon_prime / 2.0)
        self.accountant.spend(
            "PNCF (prediction noise)", self.config.epsilon_prime / 2.0)
        if self.config.mode == "user":
            return PrivateUserKNNRecommender(
                table, k=self.config.cf_k,
                epsilon_prime=self.config.epsilon_prime,
                rho=self.config.rho, seed=self.config.seed)
        return PrivateItemKNNRecommender(
            table, k=self.config.cf_k,
            epsilon_prime=self.config.epsilon_prime,
            rho=self.config.rho, alpha=self.config.alpha,
            seed=self.config.seed)
