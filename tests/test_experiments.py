"""Smoke tests for the experiment modules (quick mode).

Each experiment regenerates one paper artifact; here we check they run,
produce the expected row structure, and that the cheap ones also show
the expected qualitative shape. The full-size runs live in benchmarks/.
"""

import pytest

from repro.evaluation.experiments import (
    ablations,
    fig1b_similarity_counts,
    fig11_scalability,
    table2_genres,
    table3_homogeneous,
)
from repro.evaluation.experiments.registry import EXPERIMENTS, run_experiment


class TestRegistry:
    def test_all_paper_artifacts_registered(self):
        assert set(EXPERIMENTS) == {
            "fig1b", "fig5", "fig6", "fig7", "fig8", "fig9", "fig10",
            "table2", "table3", "fig11", "ablations"}

    def test_unknown_id_raises(self):
        with pytest.raises(KeyError):
            run_experiment("fig99")


class TestFig1b:
    def test_meta_paths_dominate(self):
        result = fig1b_similarity_counts.run(quick=True)
        by_method = {row["method"]: row["heterogeneous similarities"]
                     for row in result.rows}
        assert by_method["Meta-path-based"] > by_method["Standard"]
        assert result.render()


class TestTable2:
    def test_rows_have_four_columns(self):
        result = table2_genres.run(quick=True)
        assert result.rows
        for row in result.rows:
            assert set(row) == {"D1 genre", "movies", "D2 genre", "movies "}

    def test_counts_descend_within_subdomain(self):
        result = table2_genres.run(quick=True)
        counts = [row["movies"] for row in result.rows if row["movies"]]
        assert counts == sorted(counts, reverse=True)


class TestTable3:
    def test_three_systems_reported(self):
        result = table3_homogeneous.run(quick=True)
        systems = {row["system"] for row in result.rows}
        assert systems == {"NX-Map", "X-Map", "MLlib-ALS"}
        for row in result.rows:
            assert 0.0 < row["mae"] < 4.0

    def test_nxmap_beats_private_xmap(self):
        result = table3_homogeneous.run(quick=True)
        by_system = {row["system"]: row["mae"] for row in result.rows}
        assert by_system["NX-Map"] < by_system["X-Map"]


class TestAblations:
    def test_replacement_diversity_helps(self):
        result = ablations.run(quick=True)
        diversity = {row["variant"]: row["mae"] for row in result.rows
                     if row["ablation"].startswith("replacement")}
        assert diversity["R=12"] < diversity["R=1"]

    def test_positive_only_helps(self):
        result = ablations.run(quick=True)
        by_ablation = {row["ablation"]: row["mae"] for row in result.rows}
        assert (by_ablation["full X-Sim (reference)"]
                < by_ablation["negative neighbors admitted (Eq 4 literal)"])


@pytest.fixture(scope="module")
def fig11_curves():
    """Machines → speedup per system, over the full DEFAULT_MACHINES grid."""
    result = fig11_scalability.run()
    assert [row["machines"] for row in result.rows] == list(
        fig11_scalability.DEFAULT_MACHINES)
    return ({row["machines"]: row["X-MAP speedup"] for row in result.rows},
            {row["machines"]: row["MLLIB-ALS speedup"] for row in result.rows})


class TestFig11:
    """The paper's Figure 11 shape: X-Map near-linear, ALS flattening."""

    def test_xmap_scales_better_than_als(self, fig11_curves):
        xmap, als = fig11_curves
        xmap_near_linear = xmap[20] >= 3.0
        xmap_above_als_past_baseline = all(xmap[m] > als[m] for m in (10, 15, 20))
        assert xmap_near_linear, xmap
        assert xmap_above_als_past_baseline, (xmap, als)

    def test_als_flattens(self, fig11_curves):
        _, als = fig11_curves
        als_capped = all(speedup <= 1.7 for speedup in als.values())
        als_no_gain_past_15 = als[20] <= als[15]
        assert als_capped, als
        assert als_no_gain_past_15, als

    def test_baseline_point_is_one(self, fig11_curves):
        xmap, als = fig11_curves
        assert xmap[5] == pytest.approx(1.0)
        assert als[5] == pytest.approx(1.0)
