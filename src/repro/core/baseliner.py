"""The Baseliner component (§5.1, Figure 4).

First stage of the X-Map pipeline: treat source and target as a single
aggregated domain, compute the adjusted-cosine similarity between every
co-rated item pair, and classify each resulting edge as *homogeneous*
(both endpoints in the same domain) or *heterogeneous* (endpoints in
different domains — these exist exactly where a straddler rated on both
sides). The heterogeneous edge count is also the "standard" bar of
Figure 1(b).

The paper runs this stage as a Spark job; here it is one in-process
Eq-6 sweep over the table's interned store
(:mod:`repro.engine.sharded_sweep`), run stateless or, with
``keep_state=True``, as an updatable
:class:`~repro.engine.sharded_sweep.IncrementalSweep`. Either way the
graph is an :class:`~repro.similarity.graph.ItemGraph` over the
sweep's :class:`~repro.similarity.knn.NeighborIndex`.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain
from typing import TYPE_CHECKING, Iterable, Mapping

import numpy as _np

from repro.data.dataset import CrossDomainDataset
from repro.data.ratings import RatingTable
from repro.engine.sharded_sweep import IncrementalSweep, IncrementalUpdateStats
from repro.errors import ConfigError
from repro.similarity.graph import ItemGraph, build_similarity_graph

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.data.ratings import Rating


@dataclass(frozen=True)
class BaselineSimilarities:
    """Output of the Baseliner.

    Attributes:
        graph: the baseline similarity graph ``G_ac`` over both domains
            — with a retained *state*, the graph over its index at this
            version (:attr:`IncrementalSweep.graph
            <repro.engine.sharded_sweep.IncrementalSweep.graph>`), which
            a later update leaves as it is.
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
        keep_state: retain the accumulation alongside the graph
            (:class:`~repro.engine.sharded_sweep.IncrementalSweep`), so
            :meth:`update` can append rating batches incrementally. The
            computed baseline is identical either way, bit for bit. The
            cost of the state is keeping the accumulation arrays alive.
    """

    def __init__(self, min_common_users: int = 1,
                 min_abs_similarity: float = 0.0,
                 keep_state: bool = False) -> None:
        self.min_common_users = min_common_users
        self.min_abs_similarity = min_abs_similarity
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
                merged,
                min_common_users=self.min_common_users,
                min_abs_similarity=self.min_abs_similarity)
            graph = state.graph
        else:
            graph = build_similarity_graph(
                merged,
                min_common_users=self.min_common_users,
                min_abs_similarity=self.min_abs_similarity)
        # One mask over the index entries; each edge is stored twice.
        index = graph.index
        domain_of = data.domain_map()
        labels = [domain_of[item] for item in index.items]
        code = _np.unique(labels, return_inverse=True)[1]
        n_heterogeneous = int(_np.count_nonzero(
            code[index.owners()] != code[index.neighbor_ids])) // 2
        return BaselineSimilarities(
            graph=graph,
            n_homogeneous=graph.n_edges() - n_heterogeneous,
            n_heterogeneous=n_heterogeneous,
            state=state)

    def update(self, baseline: BaselineSimilarities,
               batch: "Iterable[Rating]",
               domain_of: Mapping[str, str],
               ) -> tuple[BaselineSimilarities, IncrementalUpdateStats]:
        """Append a rating *batch* to a ``keep_state=True`` baseline.

        The retained :class:`~repro.engine.sharded_sweep.IncrementalSweep`
        replaces its store, accumulation and serving index in place of
        a rebuild; the edge census is adjusted from the exact
        added/removed edge sets the update reports. *batch* must be
        **real** merged-domain ratings (a new edge can appear between
        two pre-existing items, so pass a domain map covering the whole
        updated item universe — the updated dataset's
        :meth:`~repro.data.dataset.CrossDomainDataset.domain_map` —
        not just the batch's new items). An item of the store or the
        batch without a label raises :class:`~repro.errors.ConfigError`
        before the sweep moves. The shared sweep moves even though
        *baseline* does not: keep using the returned object.

        Returns the refreshed :class:`BaselineSimilarities` — its graph
        is over the updated index; *baseline*'s graph
        keeps describing the version before — and the update's stats.
        """
        state = baseline.state
        if state is None:
            raise ConfigError(
                "Baseliner.update needs a baseline computed with "
                "keep_state=True (it carries the retained accumulation)")
        batch = list(batch)
        items = chain(state.store.items, (rating.item for rating in batch))
        unlabeled = next((item for item in items if item not in domain_of), None)
        if unlabeled is not None:
            raise ConfigError(
                f"item {unlabeled!r} has no domain label; pass the updated "
                f"dataset's domain_map()")
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
