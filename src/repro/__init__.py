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

import importlib

#: public name → the subpackage that defines it. Imported on first
#: access (PEP 562), so a process that needs one subsystem — the HTTP
#: gateway needs none of these — does not load NumPy and the model
#: library.
_EXPORTS = {
    **dict.fromkeys(
        ("ItemAverageRecommender", "ItemKNNRecommender", "Recommender",
         "TemporalItemKNNRecommender", "UserKNNRecommender"), "repro.cf"),
    **dict.fromkeys(
        ("AlterEgoGenerator", "NXMapRecommender", "XMapConfig",
         "XMapRecommender"), "repro.core"),
    **dict.fromkeys(
        ("CrossDomainDataset", "Dataset", "Rating", "RatingTable",
         "SyntheticConfig", "TrainTestSplit", "amazon_like",
         "cold_start_split", "movielens_like", "overlap_fraction_split",
         "sparsity_split"), "repro.data"),
    **dict.fromkeys(
        ("CheckpointPolicy", "DurableSweep", "RatingLog"), "repro.durability"),
    "ReproError": "repro.errors",
    **dict.fromkeys(
        ("ModelRegistry", "ModelSnapshot", "RecommendationService"),
        "repro.serving"),
}


def __getattr__(name: str):
    module = _EXPORTS.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(importlib.import_module(module), name)
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *_EXPORTS})


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
