"""Ablation study: which of X-Map's design choices carry the accuracy.

Not a paper artifact, but the experiment the reproduction adds: isolate
the design decisions the paper motivates qualitatively and measure each
one's contribution on the standard cold-start setup.

* **replacement diversity** (footnote 10) — AlterEgos built from the
  top-R X-Sim candidates per source item, R ∈ {1, 4, 12};
* **certainty weighting** (Definition 5) — aggregate meta-paths weighted
  by path certainty vs a flat average;
* **significance weighting** (Definition 2) — edge similarities combined
  weighted by significance vs a plain mean along the path;
* **positive-only neighborhoods** — classical [29] practice vs Eq 4's
  literal ``|τ|`` handling of negative similarities.
"""

from __future__ import annotations

from repro.cf.item_knn import ItemKNNRecommender
from repro.core.alterego import AlterEgoGenerator, ReplacementPolicy
from repro.core.baseliner import Baseliner
from repro.core.extender import Extender, ExtenderConfig
from repro.core.layers import LayerPartition
from repro.data.splits import cold_start_split
from repro.evaluation.experiments.common import default_trace, quick_trace
from repro.evaluation.harness import evaluate
from repro.evaluation.reporting import ExperimentResult


def run(quick: bool = False, seed: int = 7, k: int = 50) -> ExperimentResult:
    """Measure each ablation's MAE on the cold-start protocol."""
    data = quick_trace(seed) if quick else default_trace(seed)
    split = cold_start_split(data, seed=seed)
    prune_k = 20 if quick else 50

    baseline = Baseliner().compute(split.train)
    partition = LayerPartition.from_graph(baseline.graph, split.train.domain_map())
    merged = split.train.merged()

    result = ExperimentResult(
        experiment_id="ablations",
        title="Design-choice ablations (cold-start MAE, movie->book)",
        columns=["ablation", "variant", "mae"])

    def score(table, positive_only=True) -> float:
        recommender = ItemKNNRecommender(table, k=k, positive_only=positive_only)
        return evaluate("variant", recommender, split).mae

    def table_for(xsim_map, n_replacements):
        generator = AlterEgoGenerator(
            xsim_map, policy=ReplacementPolicy.NON_PRIVATE,
            n_replacements=n_replacements)
        return generator.alterego_table(
            split.test_users, split.train.source.ratings,
            split.train.target.ratings)

    # Full system's X-Sim map (both weightings on).
    full_map = Extender(ExtenderConfig(k=prune_k)).extend(
        baseline.graph, partition, merged,
        source_domain=split.train.source.name)

    # Ablation 1: replacement diversity.
    for n_replacements in (1, 4, 12):
        mae = score(table_for(full_map, n_replacements))
        result.rows.append({
            "ablation": "replacement diversity (fn.10)",
            "variant": f"R={n_replacements}", "mae": mae})

    # Ablations 2+3: weighting schemes inside X-Sim.
    reference_table = table_for(full_map, 12)
    for label, config in (
            ("no certainty weighting (Def 5 off)",
             ExtenderConfig(k=prune_k, weight_by_certainty=False)),
            ("no significance weighting (Def 2 off)",
             ExtenderConfig(k=prune_k, weight_by_significance=False))):
        ablated_map = Extender(config).extend(
            baseline.graph, partition, merged,
            source_domain=split.train.source.name)
        mae = score(table_for(ablated_map, 12))
        result.rows.append({"ablation": label, "variant": "off", "mae": mae})
    result.rows.append({
        "ablation": "full X-Sim (reference)", "variant": "on",
        "mae": score(reference_table)})

    # Ablation 4: negative similarities in the CF neighborhood.
    result.rows.append({
        "ablation": "negative neighbors admitted (Eq 4 literal)",
        "variant": "positive_only=False",
        "mae": score(reference_table, positive_only=False)})

    return result


if __name__ == "__main__":  # pragma: no cover
    print(run().render())
