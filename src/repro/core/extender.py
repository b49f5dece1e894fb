"""The Extender component (§5.2, Figure 4).

Takes the baseline graph, partitions it into the six layers, prunes each
item's connections to the top-k per adjacent layer, enumerates meta-paths
and aggregates them with Definition 6 into the cross-domain **X-Sim map**:
for every item ``t_i`` in the source domain, the set ``I(t_i)`` of target
items with a quantified (positive or negative) X-Sim value. That map is
what the Generator consumes to build AlterEgos, and its size is the
"meta-path-based" bar of Figure 1(b).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

from repro.core.layers import LayerPartition
from repro.core.metapath_kernel import frontier_xsim_map
from repro.core.metapaths import PrunedAdjacency, enumerate_meta_paths
from repro.core.xsim import SignificanceCache, path_certainty, path_similarity
from repro.data.ratings import RatingTable
from repro.errors import ConfigError, SimilarityError
from repro.obs import get_registry, observe_stage_seconds
from repro.similarity.graph import ItemGraph

#: source item → (target item → X-Sim value)
XSimMap = dict[str, dict[str, float]]


@dataclass(frozen=True)
class ExtenderConfig:
    """Knobs of the layer-based pruning (§3.2).

    Attributes:
        k: per-item, per-adjacent-layer edge budget. The paper's "each
            item in layer l is connected to the top-k items from every
            neighboring layer".
        max_paths_per_item: cap on enumerated meta-paths per source item;
            exploration is strongest-edge-first, so the cap keeps the
            best paths. ``None`` removes the cap.
        weight_by_certainty: aggregate paths weighted by path certainty
            (Definition 5). Disabling gives every path equal weight —
            the ablation showing what the certainty factor buys.
        weight_by_significance: combine a path's edge similarities
            weighted by their significances (Definition 2's role in
            s_p). Disabling uses a plain mean over the hops.
    """

    k: int = 10
    max_paths_per_item: int | None = 5000
    weight_by_certainty: bool = True
    weight_by_significance: bool = True

    def validated(self) -> "ExtenderConfig":
        """Raise :class:`~repro.errors.ConfigError` on bad values."""
        if self.k <= 0:
            raise ConfigError(f"k must be positive, got {self.k}")
        if self.max_paths_per_item is not None and self.max_paths_per_item <= 0:
            raise ConfigError(
                f"max_paths_per_item must be positive or None, "
                f"got {self.max_paths_per_item}")
        return self


def _fold_item(item: str, partition: LayerPartition,
               adjacency: PrunedAdjacency, significance: SignificanceCache,
               config: ExtenderConfig) -> tuple[dict[str, float], int]:
    """Per-path DFS + Definition-6 fold for one source item: its
    ``target → X-Sim`` row and the number of meta-paths enumerated."""
    # terminal target item → (Σ c_p, Σ c_p · s_p)
    accumulator: dict[str, tuple[float, float]] = {}
    n_paths = 0
    paths = enumerate_meta_paths(
        item, partition, adjacency,
        significance_of=significance.significance,
        max_paths=config.max_paths_per_item)
    for path in paths:
        n_paths += 1
        if config.weight_by_significance:
            try:
                similarity = path_similarity(path.edges)
            except SimilarityError:
                continue  # zero-significance path: no evidence
        else:
            similarity = (sum(sim for sim, _ in path.edges) / len(path.edges))
        if config.weight_by_certainty:
            hops = zip(path.items, path.items[1:])
            certainty = path_certainty([significance.normalized(a, b) for a, b in hops])
            if certainty <= 0.0:
                continue
        else:
            certainty = 1.0
        total_c, weighted = accumulator.get(path.terminal, (0.0, 0.0))
        accumulator[path.terminal] = (
            total_c + certainty, weighted + certainty * similarity)
    values = {
        target: weighted / total_c
        for target, (total_c, weighted) in accumulator.items()
        if total_c > 0.0}
    return values, n_paths


def extend_item_reference(item: str, partition: LayerPartition,
                          adjacency: PrunedAdjacency,
                          significance: SignificanceCache,
                          config: ExtenderConfig) -> dict[str, float]:
    """``I(item)``: the X-Sim value of every target item *item* reaches.

    The per-item reference the paper describes — one DFS over the pruned
    adjacency, every meta-path folded with Definition 6. It is the
    per-task body of the simulated Spark job
    (:mod:`repro.engine.xmap_job`, Fig. 11) and the
    oracle the frontier kernel is tested against; targets appear in the
    order the DFS first reaches them.
    """
    return _fold_item(item, partition, adjacency, significance, config)[0]


class Extender:
    """Computes the cross-domain X-Sim map from the baseline graph."""

    def __init__(self, config: ExtenderConfig | None = None) -> None:
        self.config = (config or ExtenderConfig()).validated()

    def extend(self, graph: ItemGraph, partition: LayerPartition,
               table: RatingTable, source_domain: str,
               significance: SignificanceCache | None = None) -> XSimMap:
        """Aggregate meta-path similarities for every source item.

        The map comes from the level-synchronous kernel of
        :mod:`repro.core.metapath_kernel`, which gives the same map as
        :func:`extend_item_reference` per item, bit for bit. Stage
        timings and path/pair counts land in the process-global
        ``repro.obs`` registry (``extender_stage_seconds``,
        ``extender_paths_total``, ``extender_pairs_total``).

        Args:
            graph: baseline graph ``G_ac`` from the Baseliner.
            partition: its six-layer partition.
            table: the aggregated rating table (significance lookups).
            source_domain: which of the partition's two domains is the
                mapping's source (the Generator maps source → target).
            significance: the caller's own ``S`` / ``Ŝ`` source, asked
                once per pruned edge (tests hand in stubs; a
                :class:`~repro.core.xsim.SignificanceCache` works too).
                Default: every pruned edge is resolved in one bulk pass
                over *table*'s store
                (:meth:`~repro.data.matrix.MatrixRatingStore.edge_significance`).

        Returns:
            The X-Sim map. Source items with no meta-path into the target
            domain are simply absent.

        Raises:
            ConfigError: *source_domain* is not one of the partition's
                two domains.
        """
        if source_domain not in partition.domains:
            raise ConfigError(
                f"source_domain {source_domain!r} is not a domain of the "
                f"partition; have {partition.domains}")
        xsim_map, n_paths, stages = frontier_xsim_map(
            graph, partition, table, source_domain, significance, self.config)
        observe_stage_seconds("extender", stages)
        registry = get_registry()
        registry.counter(
            "extender_paths_total",
            "meta-paths enumerated by Extender.extend").inc(n_paths)
        registry.counter(
            "extender_pairs_total",
            "(source, target) pairs given an X-Sim value").inc(
                count_heterogeneous_pairs(xsim_map))
        return xsim_map


def count_heterogeneous_pairs(xsim_map: Mapping[str, Mapping[str, float]]) -> int:
    """Number of (source, target) pairs with a quantified X-Sim — the
    "meta-path-based" bar of Figure 1(b)."""
    return sum(len(targets) for targets in xsim_map.values())
