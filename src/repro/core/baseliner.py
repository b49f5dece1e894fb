"""The Baseliner component (§5.1, Figure 4).

First stage of the X-Map pipeline: treat source and target as a single
aggregated domain, compute the adjusted-cosine similarity between every
co-rated item pair, and classify each resulting edge as *homogeneous*
(both endpoints in the same domain) or *heterogeneous* (endpoints in
different domains — these exist exactly where a straddler rated on both
sides). The heterogeneous edge count is also the "standard" bar of
Figure 1(b).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterable, Mapping

from repro.data.dataset import CrossDomainDataset
from repro.data.ratings import RatingTable
from repro.engine.sharded_sweep import (
    IncrementalSweep,
    IncrementalUpdateStats,
    resolve_n_shards,
    sharded_adjacency,
)
from repro.errors import ConfigError
from repro.similarity.graph import ItemGraph, build_similarity_graph

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.data.ratings import Rating


@dataclass(frozen=True)
class BaselineSimilarities:
    """Output of the Baseliner.

    Attributes:
        graph: the baseline similarity graph ``G_ac`` over both domains.
        n_homogeneous: number of same-domain edges.
        n_heterogeneous: number of cross-domain edges (the user-overlap
            similarities of §5.1).
        state: the retained
            :class:`~repro.engine.sharded_sweep.IncrementalSweep` when
            the Baseliner ran with ``keep_state=True`` — what
            :meth:`Baseliner.update` appends rating batches to without
            re-running the offline job. ``None`` otherwise.
    """

    graph: ItemGraph
    n_homogeneous: int
    n_heterogeneous: int
    state: IncrementalSweep | None = None

    @property
    def n_edges(self) -> int:
        """Total number of baseline similarity edges."""
        return self.n_homogeneous + self.n_heterogeneous

    def serving_registry(self, cf_k: int = 50, positive_only: bool = True):
        """A hot-swap :class:`~repro.serving.registry.ModelRegistry`
        over the retained sweep state (requires ``keep_state=True``).

        The registry's :meth:`~repro.serving.registry.ModelRegistry.update`
        appends rating batches through the same
        :class:`~repro.engine.sharded_sweep.IncrementalSweep` splice
        :meth:`Baseliner.update` uses and publishes each result as the
        next immutable version, so the merged-domain similarity model
        serves traffic while staying online-updatable. Note the shared
        writer: driving the sweep through the registry does not patch
        this object's edge census (serving does not read it) — keep
        using :meth:`Baseliner.update` when the census matters.
        """
        from repro.serving.registry import ModelRegistry

        if self.state is None:
            raise ConfigError(
                "serving_registry needs a baseline computed with "
                "keep_state=True (it publishes through the retained "
                "IncrementalSweep)")
        return ModelRegistry(sweep=self.state, cf_k=cf_k, positive_only=positive_only)


class Baseliner:
    """Computes the baseline similarities of §5.1.

    Args:
        min_common_users: minimum co-raters for an edge (1, as in the
            paper — any common user creates a connection).
        min_abs_similarity: optional magnitude floor for edges; 0 keeps
            every nonzero similarity.
        n_shards: partition the Eq-6 sweep into this many user shards on
            the dataflow engine (§5.1's shard-then-merge job); ``None``
            reads ``REPRO_SHARDS``, 1 is the single-process store path.
        n_edge_partitions: item-partition count for the merge + assembly
            back half of the sharded sweep; ``None`` reads
            ``REPRO_EDGE_PARTITIONS`` and defaults to the shard count.
            Bit-identical output at any value.
        keep_state: retain the merged accumulation alongside the graph
            (:class:`~repro.engine.sharded_sweep.IncrementalSweep`), so
            :meth:`update` can append rating batches incrementally. The
            computed baseline is identical either way (bit for bit —
            assembly content is partition-independent); note the
            stateful build assembles in a single driver pass, so
            *n_edge_partitions* does not apply to it (the retained
            accumulation is partition-agnostic). The cost of the state
            is keeping the accumulation arrays alive.
    """

    def __init__(self, min_common_users: int = 1,
                 min_abs_similarity: float = 0.0,
                 n_shards: int | None = None,
                 n_edge_partitions: int | None = None,
                 keep_state: bool = False) -> None:
        self.min_common_users = min_common_users
        self.min_abs_similarity = min_abs_similarity
        self.n_shards = n_shards
        self.n_edge_partitions = n_edge_partitions
        self.keep_state = keep_state

    def compute(self, data: CrossDomainDataset,
                merged: RatingTable | None = None) -> BaselineSimilarities:
        """Build ``G_ac`` for *data* and split the edge census by kind.

        Args:
            data: the two-domain input.
            merged: the aggregated (source ∪ target) table, if the caller
                already built it. The pipeline passes the one table it
                derives per run so the Baseliner shares its interned
                :class:`~repro.data.matrix.MatrixRatingStore` with the
                Extender's significance sweeps instead of re-deriving
                every profile. Defaults to ``data.merged()``.
        """
        if merged is None:
            merged = data.merged()
        state = None
        if self.keep_state:
            state = IncrementalSweep(
                merged, n_shards=self.n_shards,
                min_common_users=self.min_common_users,
                min_abs_similarity=self.min_abs_similarity)
            graph = state.graph
        elif resolve_n_shards(self.n_shards) > 1:
            result = sharded_adjacency(
                merged, n_shards=self.n_shards,
                min_common_users=self.min_common_users,
                min_abs_similarity=self.min_abs_similarity,
                n_edge_partitions=self.n_edge_partitions,
                with_index=True)
            graph = ItemGraph.from_adjacency(result.adjacency, index=result.index)
        else:
            graph = build_similarity_graph(
                merged,
                min_common_users=self.min_common_users,
                min_abs_similarity=self.min_abs_similarity,
                n_shards=1,
                n_edge_partitions=self.n_edge_partitions)
        domain_of = data.domain_map()
        n_homogeneous = 0
        n_heterogeneous = 0
        for item_i, item_j, _ in graph.edges():
            if domain_of[item_i] == domain_of[item_j]:
                n_homogeneous += 1
            else:
                n_heterogeneous += 1
        return BaselineSimilarities(
            graph=graph,
            n_homogeneous=n_homogeneous,
            n_heterogeneous=n_heterogeneous,
            state=state)

    def update(self, baseline: BaselineSimilarities,
               batch: "Iterable[Rating]",
               domain_of: Mapping[str, str],
               ) -> tuple[BaselineSimilarities, IncrementalUpdateStats]:
        """Append a rating *batch* to a ``keep_state=True`` baseline.

        The retained :class:`~repro.engine.sharded_sweep.IncrementalSweep`
        patches the store, accumulation, graph and serving index in
        place of a rebuild; the edge census is adjusted from the exact
        added/removed edge sets the update reports. *batch* must be
        **real** merged-domain ratings (a new edge can appear between
        two pre-existing items, so pass a domain map covering the whole
        updated item universe — the updated dataset's
        :meth:`~repro.data.dataset.CrossDomainDataset.domain_map` —
        not just the batch's new items). Note the in-place semantics:
        the sweep state mutates before the census is patched, so do not
        retry a failed update with the same batch.

        Returns the refreshed :class:`BaselineSimilarities` (the graph
        object is the same, mutated in place) and the update's stats.
        """
        state = baseline.state
        if state is None:
            raise ConfigError(
                "Baseliner.update needs a baseline computed with "
                "keep_state=True (it carries the retained accumulation)")
        stats = state.update(batch)
        n_homogeneous = baseline.n_homogeneous
        n_heterogeneous = baseline.n_heterogeneous
        for item_i, item_j in stats.edges_added:
            if domain_of[item_i] == domain_of[item_j]:
                n_homogeneous += 1
            else:
                n_heterogeneous += 1
        for item_i, item_j in stats.edges_removed:
            if domain_of[item_i] == domain_of[item_j]:
                n_homogeneous -= 1
            else:
                n_heterogeneous -= 1
        return BaselineSimilarities(
            graph=state.graph,
            n_homogeneous=n_homogeneous,
            n_heterogeneous=n_heterogeneous,
            state=state), stats
