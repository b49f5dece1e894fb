"""X-Map core: the paper's primary contribution.

* :mod:`repro.core.layers` — bridge items and the BB/NB/NN layer
  partition (§3.2),
* :mod:`repro.core.metapaths` — meta-path enumeration over the pruned
  layered adjacency (Definition 3),
* :mod:`repro.core.metapath_kernel` — pruning, the same enumeration
  and the Definition-6 fold, level-synchronous over NumPy arrays (what
  the Extender runs),
* :mod:`repro.core.xsim` — path similarity, path certainty and the X-Sim
  metric (Definitions 5–6),
* :mod:`repro.core.baseliner` / :mod:`repro.core.extender` — the first
  two pipeline components of §5,
* :mod:`repro.core.alterego` — AlterEgo profile generation (§4.3),
* :mod:`repro.core.pipeline` — the NX-Map / X-Map recommender facades
  tying everything together (§4–5).
"""

from repro.core.alterego import AlterEgoGenerator, ReplacementPolicy
from repro.core.baseliner import Baseliner, BaselineSimilarities
from repro.core.extender import Extender, ExtenderConfig, XSimMap
from repro.core.layers import Layer, LayerPartition
from repro.core.metapaths import MetaPath
from repro.core.pipeline import NXMapRecommender, XMapConfig, XMapRecommender
from repro.core.xsim import SignificanceCache, aggregate_xsim

__all__ = [
    "AlterEgoGenerator",
    "Baseliner",
    "BaselineSimilarities",
    "Extender",
    "ExtenderConfig",
    "Layer",
    "LayerPartition",
    "MetaPath",
    "NXMapRecommender",
    "ReplacementPolicy",
    "SignificanceCache",
    "XMapConfig",
    "XMapRecommender",
    "XSimMap",
    "aggregate_xsim",
]
