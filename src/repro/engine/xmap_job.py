"""The X-Map offline pipeline expressed in the dataflow API (§5, Fig 4).

This is the job whose scalability Figure 11 measures. Its stages mirror
the Spark implementation the paper describes:

1. **user means** — one shuffle over the ratings;
2. **baseline similarities** (Baseliner) — co-rating pair contributions
   fanned out per user profile (``flat_map`` emits |X_u|² records, so
   task cost tracks the real quadratic work) and summed with one
   ``reduce_by_key``;
3. **layer partition** — driver-side bookkeeping over the collected edge
   list (cheap, as in the paper — the driver only sees aggregated
   similarities);
4. **extension** (Extender) — a ``flat_map`` over the source items, each
   task enumerating that item's meta-paths against broadcast pruned
   adjacency; embarrassingly parallel, which is precisely why X-Map
   scales near-linearly;
5. **AlterEgo generation** (Generator) — a ``map`` over user profiles
   against the broadcast replacement map.

The computation is the real one — the returned X-Sim pair count matches
:class:`~repro.core.extender.Extender` up to pruning parameters — while
the report carries the simulated timeline.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.extender import ExtenderConfig, extend_item_reference
from repro.core.layers import LayerPartition
from repro.core.metapaths import build_pruned_adjacency
from repro.core.xsim import SignificanceCache
from repro.data.dataset import CrossDomainDataset
from repro.engine.cluster import ClusterSpec
from repro.engine.dataset_api import DataflowContext
from repro.engine.metrics import ExecutionReport, merge_reports
from repro.similarity.graph import ItemGraph


@dataclass(frozen=True)
class XMapJobResult:
    """Outcome of one simulated X-Map offline run.

    Attributes:
        n_baseline_edges: nonzero baseline similarities produced.
        n_xsim_pairs: cross-domain pairs with an X-Sim value.
        n_alteregos: AlterEgo profiles generated.
        report: the simulated execution timeline.
    """

    n_baseline_edges: int
    n_xsim_pairs: int
    n_alteregos: int
    report: ExecutionReport


def run_xmap_job(data: CrossDomainDataset, cluster: ClusterSpec,
                 prune_k: int = 10,
                 max_paths_per_item: int | None = 2000,
                 max_profile_size: int = 60) -> XMapJobResult:
    """Run the full offline pipeline on a simulated cluster.

    Args:
        data: the two-domain input.
        cluster: simulated machine count + cost model.
        prune_k: Extender layer budget.
        max_paths_per_item: meta-path cap per source item.
        max_profile_size: cap on profile length in the quadratic
            pair-contribution fan-out (the skew guard of
            :func:`~repro.similarity.adjusted_cosine.all_pairs_adjusted_cosine`;
            a single power user's |X_u|² record burst is indivisible work
            for one task, so uncapped whales would bound the makespan).
    """
    context = DataflowContext(cluster)
    merged = data.merged()
    reports: list[ExecutionReport] = []

    ratings = context.parallelize(
        [(rating.user, (rating.item, rating.value)) for rating in merged])

    # Stage group 1: user means (needed for adjusted-cosine centering).
    sums = (ratings
            .map(lambda record: (record[0], (record[1][1], 1)))
            .reduce_by_key(lambda a, b: (a[0] + b[0], a[1] + b[1]))
            .map_values(lambda pair: pair[0] / pair[1]))
    mean_rows, report = sums.collect_with_report()
    reports.append(report)
    user_means = dict(mean_rows)
    means_broadcast = context.broadcast(user_means, n_records=len(user_means))

    # Stage group 2: baseline similarities from co-rating contributions.
    profiles = ratings.group_by_key().cache()

    def pair_contributions(record):
        user, entries = record
        mean = means_broadcast.value[user]
        centered = sorted((item, value - mean) for item, value in entries)
        centered = centered[:max_profile_size]
        for a in range(len(centered)):
            item_a, value_a = centered[a]
            yield ((item_a, item_a), value_a * value_a)  # norm term
            for b in range(a + 1, len(centered)):
                item_b, value_b = centered[b]
                yield ((item_a, centered[b][0]), value_a * value_b)

    contributions = (profiles
                     .flat_map(pair_contributions)
                     .reduce_by_key(lambda a, b: a + b))
    edge_rows, report = contributions.collect_with_report()
    reports.append(report)

    norms = {}
    numerators = {}
    for (item_a, item_b), value in edge_rows:
        if item_a == item_b:
            norms[item_a] = value ** 0.5
        else:
            numerators[(item_a, item_b)] = value

    graph = ItemGraph.from_edges(merged.items, (
        (item_a, item_b, max(-1.0, min(1.0, numerator / denom)))
        for (item_a, item_b), numerator in numerators.items()
        if (denom := norms.get(item_a, 0.0) * norms.get(item_b, 0.0)) > 0.0))

    # Stage group 3 (driver): layers + pruned adjacency, then broadcast.
    partition = LayerPartition.from_graph(graph, data.domain_map())
    adjacency = build_pruned_adjacency(graph, partition, prune_k)
    # Broadcast payload is one bounded record per item (each item ships
    # at most 3 layers × k neighbor ids), matching how we size the ALS
    # factor broadcasts (one rank-sized record per entity).
    adjacency_broadcast = context.broadcast(adjacency, n_records=len(adjacency))
    significance = SignificanceCache(merged)
    extender_config = ExtenderConfig(k=prune_k, max_paths_per_item=max_paths_per_item)

    # Stage group 4: per-item meta-path extension (the heavy phase).
    source_items = context.parallelize(sorted(data.source.items))

    def extend_item(item):
        values = extend_item_reference(
            item, partition, adjacency_broadcast.value, significance, extender_config)
        return [((item, target), value) for target, value in sorted(values.items())]

    xsim_edges = source_items.flat_map(extend_item)
    xsim_rows, report = xsim_edges.collect_with_report()
    reports.append(report)

    # Stage group 5: AlterEgo generation against the replacement map.
    best: dict[str, tuple[float, str]] = {}
    for (source_item, target_item), value in xsim_rows:
        current = best.get(source_item)
        if current is None or (value, target_item) > current:
            best[source_item] = (value, target_item)
    replacement = {source_item: target for source_item, (_, target) in best.items()}
    replacement_broadcast = context.broadcast(replacement, n_records=len(replacement))

    source_profiles = context.parallelize([
        (user, sorted(
            (item, rating.value)
            for item, rating in data.source.ratings.user_profile(user).items()))
        for user in sorted(data.source.users)])

    def to_alterego(record):
        user, entries = record
        mapping = replacement_broadcast.value
        profile = {}
        for item, value in entries:
            target = mapping.get(item)
            if target is not None:
                profile.setdefault(target, []).append(value)
        return (user, sorted(
            (target, sum(values) / len(values))
            for target, values in profile.items()))

    alteregos = source_profiles.map(to_alterego).filter(lambda record: bool(record[1]))
    alterego_rows, report = alteregos.collect_with_report()
    reports.append(report)

    return XMapJobResult(
        n_baseline_edges=graph.n_edges(),
        n_xsim_pairs=len(xsim_rows),
        n_alteregos=len(alterego_rows),
        report=merge_reports(reports))
