"""Factories for the competitor systems the experiments evaluate.

Each factory takes the training split and returns a fitted
:class:`~repro.cf.predictor.Recommender`, so experiment modules can
sweep parameters without repeating wiring. Names follow the paper's
figures: ``ITEMAVERAGE``, ``REMOTEUSER``, ``ITEM-BASED-KNN`` (= KNN-cd),
``KNN-SD``. The X-Map and NX-Map variants share one offline fit per
split, so the experiments' lab builds them
(:mod:`repro.evaluation.experiments.common`).

:data:`TUNED_PRIVACY` holds the paper's tuned privacy parameters
(§6.3): X-Map-ib uses (ε = 0.3, ε′ = 0.8), X-Map-ub (ε = 0.6, ε′ = 0.3).
"""

from __future__ import annotations

from typing import Callable

from repro.cf.item_average import ItemAverageRecommender
from repro.cf.predictor import Recommender
from repro.competitors.linked_domain import (
    LinkedDomainItemKNN,
    SingleDomainItemKNN,
)
from repro.competitors.remote_user import RemoteUserRecommender
from repro.data.splits import TrainTestSplit

#: factory signature shared by every system below.
SystemFactory = Callable[[TrainTestSplit], Recommender]

#: the paper's tuned privacy parameters (§6.3).
TUNED_PRIVACY = {"item": (0.3, 0.8), "user": (0.6, 0.3)}


def make_item_average(split: TrainTestSplit) -> Recommender:
    """The ItemAverage baseline over the target domain."""
    return ItemAverageRecommender(split.train.target.ratings)


def make_remote_user(split: TrainTestSplit, k: int = 50) -> Recommender:
    """The RemoteUser cross-domain mediation competitor."""
    return RemoteUserRecommender(split.train, k=k)


def make_linked_knn(split: TrainTestSplit, k: int = 50) -> Recommender:
    """Item-based-kNN over the aggregated domains (KNN-cd)."""
    return LinkedDomainItemKNN(split.train, k=k)


def make_knn_sd(split: TrainTestSplit, k: int = 50) -> Recommender:
    """Item-based kNN over the target domain only (KNN-sd)."""
    return SingleDomainItemKNN(split.train, k=k)
