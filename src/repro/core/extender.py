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

import math
from dataclasses import dataclass
from typing import Iterator, Mapping, Sequence

import numpy as np

from repro.core.layers import LayerPartition
from repro.core.metapath_kernel import frontier_xsim_map
from repro.core.metapaths import PrunedAdjacency, enumerate_meta_paths
from repro.core.xsim import SignificanceCache, path_certainty, path_similarity
from repro.data.ratings import RatingTable
from repro.errors import ConfigError, SimilarityError
from repro.obs import get_registry, observe_stage_seconds
from repro.similarity.graph import ItemGraph

class XSimMap(Mapping[str, dict[str, float]]):
    """The X-Sim map — source item → (target item → X-Sim value) — as
    CSR arrays: row ``r`` is ``sources[r]``, its targets
    ``targets[target_ids[ptr[r]:ptr[r + 1]]]`` in the order the DFS
    first reaches them, their values ``xsim[ptr[r]:ptr[r + 1]]``.

    *sources* are the items with at least one target, in map order;
    *targets* are sorted names, so id order is name order. The
    ``Mapping`` face is read-only and per call: ``m[source]`` is a
    fresh dict of one row; iteration, ``len`` and ``in`` go over
    *sources*.
    """

    __slots__ = ("sources", "targets", "ptr", "target_ids", "xsim", "_row")

    def __init__(self, sources: list[str], targets: Sequence[str],
                 ptr: np.ndarray, target_ids: np.ndarray, xsim: np.ndarray) -> None:
        self.sources, self.targets, self.ptr = sources, targets, ptr
        self.target_ids, self.xsim = target_ids, xsim
        self._row = {source: row for row, source in enumerate(sources)}

    @classmethod
    def from_rows(cls, rows: Mapping[str, Mapping[str, float]]) -> "XSimMap":
        """A map of *rows*, in their order, without the empty ones.

        Raises:
            SimilarityError: an X-Sim value is not finite.
        """
        rows = {source: row for source, row in rows.items() if row}
        bad = [(s, t, v) for s, row in rows.items() for t, v in row.items()
               if not math.isfinite(v)]
        if bad:
            raise SimilarityError("X-Sim of (%r, %r) is not finite: %r" % bad[0])
        targets = sorted({target for row in rows.values() for target in row})
        code = {target: position for position, target in enumerate(targets)}
        return cls(
            list(rows), targets, np.cumsum([0, *map(len, rows.values())]),
            np.asarray([code[t] for row in rows.values() for t in row], dtype=np.int64),
            np.asarray([v for row in rows.values() for v in row.values()],
                       dtype=np.float64))

    @property
    def n_pairs(self) -> int:
        """Stored (source, target) entries."""
        return len(self.target_ids)

    def row(self, source: str) -> int | None:
        """*source*'s row number, ``None`` when it has no target."""
        return self._row.get(source)

    def __getitem__(self, source: str) -> dict[str, float]:
        row = self._row[source]
        low, high = self.ptr[row:row + 2]
        return dict(zip([self.targets[t] for t in self.target_ids[low:high].tolist()],
                        self.xsim[low:high].tolist()))

    def __contains__(self, source: object) -> bool:
        return source in self._row

    def __iter__(self) -> Iterator[str]:
        return iter(self.sources)

    def __len__(self) -> int:
        return len(self.sources)


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
        :mod:`repro.core.metapath_kernel`, folded into :class:`XSimMap`
        arrays: per item, :func:`extend_item_reference`'s bit for bit. Stage
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
            The X-Sim map as arrays. Source items with no meta-path into
            the target domain have no row.

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


def count_heterogeneous_pairs(xsim_map: XSimMap) -> int:
    """Number of (source, target) pairs with a quantified X-Sim — the
    "meta-path-based" bar of Figure 1(b)."""
    return xsim_map.n_pairs
