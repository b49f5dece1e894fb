"""X-Map: heterogeneous (cross-domain) recommendations.

A from-scratch reproduction of *"Heterogeneous Recommendations: What You
Might Like To Read After Watching Interstellar"* (Guerraoui, Kermarrec,
Lin, Patra — VLDB 2017). See README.md for a tour and the
paper-to-module map.

Quickstart::

    from repro import amazon_like, cold_start_split, NXMapRecommender, XMapConfig

    data = amazon_like()                       # movies + books trace
    split = cold_start_split(data)             # hide test users' books
    xmap = NXMapRecommender(XMapConfig()).fit(
        split.train, users=split.test_users)
    xmap.recommend(split.test_users[0], n=10)  # books from movie taste
"""

from repro.cf import (
    ItemAverageRecommender,
    ItemKNNRecommender,
    Recommender,
    TemporalItemKNNRecommender,
    UserKNNRecommender,
)
from repro.core import (
    AlterEgoGenerator,
    NXMapRecommender,
    XMapConfig,
    XMapRecommender,
)
from repro.data import (
    CrossDomainDataset,
    Dataset,
    Rating,
    RatingTable,
    SyntheticConfig,
    TrainTestSplit,
    amazon_like,
    cold_start_split,
    movielens_like,
    overlap_fraction_split,
    sparsity_split,
)
from repro.durability import (
    CheckpointPolicy,
    DurableSweep,
    RatingLog,
)
from repro.errors import ReproError
from repro.serving import (
    ModelRegistry,
    ModelSnapshot,
    RecommendationService,
)

__version__ = "1.0.0"

__all__ = [
    "AlterEgoGenerator",
    "CheckpointPolicy",
    "CrossDomainDataset",
    "Dataset",
    "DurableSweep",
    "ItemAverageRecommender",
    "ItemKNNRecommender",
    "ModelRegistry",
    "ModelSnapshot",
    "NXMapRecommender",
    "Rating",
    "RatingLog",
    "RatingTable",
    "RecommendationService",
    "Recommender",
    "ReproError",
    "SyntheticConfig",
    "TemporalItemKNNRecommender",
    "TrainTestSplit",
    "UserKNNRecommender",
    "XMapConfig",
    "XMapRecommender",
    "amazon_like",
    "cold_start_split",
    "movielens_like",
    "overlap_fraction_split",
    "sparsity_split",
]
