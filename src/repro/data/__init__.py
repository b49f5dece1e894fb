"""Data substrate: rating stores, datasets, synthetic traces, splits.

The paper evaluates on Amazon (movies + books) and MovieLens traces. This
package provides the in-memory stores those traces are loaded into
(:class:`~repro.data.ratings.RatingTable`,
:class:`~repro.data.dataset.Dataset`,
:class:`~repro.data.dataset.CrossDomainDataset`), seeded synthetic
generators that stand in for the proprietary trace snapshots
(:mod:`repro.data.synthetic`), CSV loaders for real dumps
(:mod:`repro.data.loaders`), the genre-based sub-domain partitioner used
by Table 2 (:mod:`repro.data.genres`) and the evaluation split protocols
from §6.1 (:mod:`repro.data.splits`).
"""

from repro.data.dataset import CrossDomainDataset, Dataset
from repro.data.matrix import MatrixRatingStore
from repro.data.ratings import Rating, RatingTable
from repro.data.splits import (
    TrainTestSplit,
    cold_start_split,
    overlap_fraction_split,
    sparsity_split,
)
from repro.data.synthetic import SyntheticConfig, amazon_like, movielens_like

__all__ = [
    "CrossDomainDataset",
    "Dataset",
    "MatrixRatingStore",
    "Rating",
    "RatingTable",
    "SyntheticConfig",
    "TrainTestSplit",
    "amazon_like",
    "cold_start_split",
    "movielens_like",
    "overlap_fraction_split",
    "sparsity_split",
]
