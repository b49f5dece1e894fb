"""Unit tests for the Baseliner, Extender and AlterEgo generator."""

import pytest

from repro.core.alterego import AlterEgoGenerator, ReplacementPolicy
from repro.core.baseliner import Baseliner
from repro.core.extender import (
    Extender,
    ExtenderConfig,
    XSimMap,
    count_heterogeneous_pairs,
)
from repro.core.layers import LayerPartition
from repro.data.ratings import Rating, RatingTable
from repro.errors import ConfigError
from repro.privacy.accountant import PrivacyAccountant


@pytest.fixture(scope="module")
def fitted(small_trace):
    baseline = Baseliner().compute(small_trace)
    partition = LayerPartition.from_graph(baseline.graph, small_trace.domain_map())
    xsim_map = Extender(ExtenderConfig(k=8)).extend(
        baseline.graph, partition, small_trace.merged(),
        source_domain=small_trace.source.name)
    return baseline, partition, xsim_map


class TestBaseliner:
    def test_edge_census_adds_up(self, fitted):
        baseline, _, _ = fitted
        assert baseline.n_edges == baseline.graph.n_edges()
        assert baseline.n_heterogeneous > 0
        assert baseline.n_homogeneous > 0

    def test_heterogeneous_edges_cross_domains(self, small_trace, fitted):
        baseline, _, _ = fitted
        domain_of = small_trace.domain_map()
        crossing = sum(
            1 for i, j, _ in baseline.graph.edges()
            if domain_of[i] != domain_of[j])
        assert crossing == baseline.n_heterogeneous


class TestExtender:
    def test_config_validation(self):
        with pytest.raises(ConfigError):
            ExtenderConfig(k=0).validated()
        with pytest.raises(ConfigError):
            ExtenderConfig(max_paths_per_item=0).validated()

    def test_xsim_map_targets_only_target_domain(self, small_trace, fitted):
        _, _, xsim_map = fitted
        for source_item, targets in xsim_map.items():
            assert source_item in small_trace.source.items
            assert set(targets) <= small_trace.target.items

    def test_values_bounded(self, fitted):
        _, _, xsim_map = fitted
        for targets in xsim_map.values():
            for value in targets.values():
                assert -1.0 <= value <= 1.0

    def test_meta_paths_beat_standard_count(self, fitted):
        baseline, _, xsim_map = fitted
        # The Figure 1(b) shape: meta-path similarities outnumber the
        # direct heterogeneous edges.
        assert count_heterogeneous_pairs(xsim_map) > baseline.n_heterogeneous

    def test_ablation_flags_change_values(self, small_trace, fitted):
        baseline, partition, reference = fitted
        flat = Extender(ExtenderConfig(k=8, weight_by_certainty=False)).extend(
            baseline.graph, partition, small_trace.merged(),
            source_domain=small_trace.source.name)
        # Same connectivity, different (or equal) aggregated values —
        # the flag must not change which pairs are reachable beyond the
        # zero-significance paths that the full variant drops.
        assert set(flat) >= set(reference)
        diffs = sum(
            1 for item in reference for target in reference[item]
            if target in flat.get(item, {})
            and abs(flat[item][target] - reference[item][target]) > 1e-12)
        assert diffs > 0

    def test_plain_mean_variant_bounded(self, small_trace, fitted):
        baseline, partition, _ = fitted
        plain = Extender(ExtenderConfig(k=8, weight_by_significance=False)).extend(
            baseline.graph, partition, small_trace.merged(),
            source_domain=small_trace.source.name)
        for targets in plain.values():
            for value in targets.values():
                assert -1.0 <= value <= 1.0

    def test_figure_1a_headline(self, scenario):
        baseline = Baseliner().compute(scenario)
        partition = LayerPartition.from_graph(baseline.graph, scenario.domain_map())
        xsim_map = Extender(ExtenderConfig(k=3)).extend(
            baseline.graph, partition, scenario.merged(),
            source_domain="movies")
        # The paper's motivating claim: X-Sim connects Interstellar to
        # The Forever War with a positive similarity.
        assert xsim_map["interstellar"]["forever-war"] > 0.0


class TestAlterEgoGenerator:
    def test_non_private_is_argmax(self):
        xsim_map = XSimMap.from_rows({"s1": {"t1": 0.2, "t2": 0.9}, "s2": {}})
        generator = AlterEgoGenerator(xsim_map)
        assert generator.replacement_for("s1") == "t2"
        assert generator.replacement_for("s2") is None
        assert generator.replacement_for("unknown") is None

    def test_argmax_tie_breaks_lexicographically(self):
        generator = AlterEgoGenerator(XSimMap.from_rows({"s": {"tb": 0.5, "ta": 0.5}}))
        assert generator.replacement_for("s") == "ta"

    def test_epsilon_required_for_private(self):
        with pytest.raises(ConfigError):
            AlterEgoGenerator(XSimMap.from_rows({}), policy=ReplacementPolicy.PRIVATE)

    def test_epsilon_rejected_for_non_private(self):
        with pytest.raises(ConfigError):
            AlterEgoGenerator(XSimMap.from_rows({}), epsilon=0.5)

    def test_private_replacement_memoised(self):
        xsim_map = XSimMap.from_rows({"s": {"t1": 0.5, "t2": 0.5, "t3": 0.5}})
        generator = AlterEgoGenerator(
            xsim_map, policy=ReplacementPolicy.PRIVATE, epsilon=0.1, seed=1)
        first = generator.replacement_for("s")
        assert all(generator.replacement_for("s") == first for _ in range(5))

    def test_private_spends_budget_once(self):
        accountant = PrivacyAccountant()
        AlterEgoGenerator(
            XSimMap.from_rows({"s": {"t": 1.0}}), policy=ReplacementPolicy.PRIVATE,
            epsilon=0.3, accountant=accountant)
        assert accountant.total == pytest.approx(0.3)

    def test_profile_merges_collisions(self):
        xsim_map = XSimMap.from_rows({"s1": {"t": 1.0}, "s2": {"t": 1.0}})
        generator = AlterEgoGenerator(xsim_map)
        profile = {"s1": Rating("u", "s1", 5.0, 10), "s2": Rating("u", "s2", 3.0, 20)}
        alterego = generator.alterego_profile("u", profile)
        assert len(alterego) == 1
        assert alterego[0].value == pytest.approx(4.0)
        assert alterego[0].timestep == 20

    def test_profile_preserves_value_and_timestep(self):
        generator = AlterEgoGenerator(XSimMap.from_rows({"s1": {"t9": 1.0}}))
        alterego = generator.alterego_profile("u", {"s1": Rating("u", "s1", 2.0, 7)})
        assert alterego == [Rating("u", "t9", 2.0, 7)]

    def test_table_respects_existing_target_ratings(self):
        generator = AlterEgoGenerator(XSimMap.from_rows({"s1": {"t1": 1.0}}))
        source = RatingTable([Rating("u", "s1", 5.0, 0)])
        target = RatingTable([Rating("u", "t1", 2.0, 0)])
        augmented = generator.alterego_table(["u"], source, target)
        # Footnote 6: the real rating wins.
        assert augmented.value("u", "t1") == 2.0

    def test_table_adds_alterego_for_cold_user(self):
        generator = AlterEgoGenerator(XSimMap.from_rows({"s1": {"t1": 1.0}}))
        source = RatingTable([Rating("u", "s1", 5.0, 0)])
        target = RatingTable([Rating("other", "t1", 3.0, 0)])
        augmented = generator.alterego_table(["u"], source, target)
        assert augmented.value("u", "t1") == 5.0

    def test_item_mapping_full(self, fitted):
        _, _, xsim_map = fitted
        generator = AlterEgoGenerator(xsim_map)
        mapping = generator.item_mapping()
        assert set(mapping) == {s for s, t in xsim_map.items() if t}
        for source_item, target_item in mapping.items():
            assert target_item in xsim_map[source_item]
