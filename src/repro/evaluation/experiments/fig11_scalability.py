"""Figure 11: speedup with an increasing number of machines.

Fits X-Map once (Baseliner → layers → Extender → Generator), counts
each stage's work from the fit's arrays, and does the same for MLlib-ALS
from the rating counts; :mod:`repro.engine.cluster` then costs both
stage lists on simulated clusters of 5–20 machines and the figure
reports ``S_p = T_5 / T_p``. Expected shape: X-Map near-linear (its
stages are per-user and per-item work with no global step), MLlib-ALS
clearly below and flattening (a barrier per half-sweep plus factor
broadcasts that grow with the cluster).
"""

from __future__ import annotations

import numpy as np

from repro.core.alterego import AlterEgoGenerator
from repro.core.baseliner import Baseliner
from repro.core.extender import Extender, ExtenderConfig, XSimMap
from repro.core.layers import LayerPartition
from repro.data.dataset import CrossDomainDataset
from repro.data.matrix import MatrixRatingStore
from repro.data.ratings import RatingTable
from repro.engine.cluster import ClusterSpec, Stage, job_makespan, speedup_curve
from repro.evaluation.experiments.common import quick_trace, scalability_trace
from repro.evaluation.reporting import ExperimentResult

DEFAULT_MACHINES = (5, 10, 15, 20)
QUICK_MACHINES = (5, 20)

#: The Extender's layer budget and meta-path cap in the costed fit.
PRUNE_K = 10
MAX_PATHS_PER_ITEM = 2000
#: Profile cap of the Baseliner's pair fan-out: one power user's
#: L(L+1)/2 records are indivisible work for one task, so uncapped
#: whales would bound the makespan.
MAX_PROFILE_SIZE = 60


def fit_xsim_map(data: CrossDomainDataset, merged: RatingTable) -> XSimMap:
    """The costed fit's X-Sim map: Baseliner → layers → Extender."""
    graph = Baseliner().compute(data, merged).graph
    partition = LayerPartition.from_graph(graph, data.domain_map())
    extender = Extender(ExtenderConfig(k=PRUNE_K, max_paths_per_item=MAX_PATHS_PER_ITEM))
    return extender.extend(graph, partition, merged, source_domain=data.source.name)


def _pair_senders(store: MatrixRatingStore) -> np.ndarray:
    """Per distinct item pair ``(a, b)``, ``a ≤ b``, how many users'
    capped profiles (their first :data:`MAX_PROFILE_SIZE` items) emit
    it — the records each key of the pair-sum shuffle receives."""
    keys = []
    for start, stop in zip(store.user_ptr[:-1].tolist(), store.user_ptr[1:].tolist()):
        row = store.user_item_idx[start:min(stop, start + MAX_PROFILE_SIZE)]
        first, second = np.triu_indices(len(row))
        keys.append(row[first] * len(store.items) + row[second])
    return np.unique(np.concatenate(keys), return_counts=True)[1]


def xmap_stages(data: CrossDomainDataset) -> tuple[list[Stage], list[int]]:
    """X-Map's offline job as stages plus broadcast record counts.

    Stages, one key per user, pair or item: user means (a shuffle of
    each profile), the Baseliner's fan-out (L(L+1)/2 pair records per
    user for L = min(|X_u|, 60)), the pair sums (a shuffle keyed by
    pair), the Extender (one task input per source item, writing its
    X-Sim row) and the Generator (one record per source user with a
    non-empty AlterEgo). Broadcasts: the user means, the pruned
    adjacency (one record per item) and the replacement map.
    """
    merged = data.merged()
    store = merged.matrix()
    profile = np.diff(store.user_ptr)
    capped = np.minimum(profile, MAX_PROFILE_SIZE)
    senders = _pair_senders(store)

    xsim_map = fit_xsim_map(data, merged)
    row_length = dict(zip(xsim_map.sources, np.diff(xsim_map.ptr).tolist()))
    written = np.asarray([row_length.get(item, 0) for item in sorted(data.source.items)])

    mapping = AlterEgoGenerator(xsim_map).item_mapping()
    source = data.source.ratings.matrix()
    owner = np.repeat(np.arange(len(source.users)), np.diff(source.user_ptr))
    mapped = np.isin(source.items, list(mapping))[source.user_item_idx]
    has_alterego = np.bincount(owner, weights=mapped, minlength=len(source.users)) > 0

    stages = [
        Stage("user means", profile, np.ones(len(profile)), moved=profile),
        Stage("baseliner", profile, capped * (capped + 1) // 2, moved=profile),
        Stage("pair sums", senders, np.ones(len(senders)), moved=senders),
        Stage("extend", np.ones(len(written)), written),
        Stage("alterego", np.ones(len(has_alterego)), has_alterego),
    ]
    return stages, [len(store.users), len(store.items), len(mapping)]


def als_stages(table: RatingTable, n_iterations: int) -> tuple[list[Stage], list[int]]:
    """MLlib-ALS as stages plus broadcast record counts.

    The ratings are shuffled once by user and once by item; each
    iteration then broadcasts the item factors and solves every user
    (work = the user's rating count), broadcasts the user factors and
    solves every item.
    """
    store = table.matrix()
    per_user, per_item = np.diff(store.user_ptr), np.diff(store.item_ptr)
    stages = [
        Stage("ratings by user", per_user, np.ones(len(per_user)), moved=per_user),
        Stage("ratings by item", per_item, np.ones(len(per_item)), moved=per_item),
    ]
    stages += [Stage("solve users", per_user, np.ones(len(per_user))),
               Stage("solve items", per_item, np.ones(len(per_item)))] * n_iterations
    return stages, [len(store.items), len(store.users)] * n_iterations


def run(quick: bool = False, seed: int = 7) -> ExperimentResult:
    """Cost both jobs' stage lists on every cluster size."""
    data = quick_trace(seed) if quick else scalability_trace(seed)
    machines = QUICK_MACHINES if quick else DEFAULT_MACHINES
    jobs = {"X-MAP": xmap_stages(data),
            "MLLIB-ALS": als_stages(data.merged(), 4 if quick else 8)}
    makespans = {
        name: {count: job_makespan(stages, broadcasts, ClusterSpec(n_machines=count))
               for count in machines}
        for name, (stages, broadcasts) in jobs.items()}
    speedups = {name: speedup_curve(times, baseline_machines=machines[0])
                for name, times in makespans.items()}
    result = ExperimentResult(
        experiment_id="fig11",
        title="Scalability of X-Map (speedup vs machines)",
        columns=["machines", "X-MAP speedup", "MLLIB-ALS speedup"])
    for count in machines:
        result.rows.append({"machines": count,
                            **{f"{name} speedup": speedups[name][count] for name in jobs}})
    result.notes.append("simulated makespans (s): " + ", ".join(
        f"{name} {{{', '.join(f'{count}: {t:.4f}' for count, t in times.items())}}}"
        for name, times in makespans.items()))
    return result


if __name__ == "__main__":  # pragma: no cover
    print(run().render())
