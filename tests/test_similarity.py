"""Unit tests for the similarity metrics (repro.similarity).

Eq 6 is read where the recommenders read it, from the rows of the
store's ``NeighborIndex``; Eq 1 from ``MatrixRatingStore.user_similarities``.
"""

import pytest

from repro.data.ratings import Rating, RatingTable
from repro.errors import SimilarityError
from repro.similarity.adjusted_cosine import all_pairs_adjusted_cosine
from repro.similarity.significance import (
    normalized_significance,
    significance,
)


def eq6(table):
    """Every Eq-6 similarity of *table* as its ``NeighborIndex`` rows
    hold them, both ways round: ``{(i, j): sim}`` (no entry: 0)."""
    store = table.matrix()
    index = store.neighbor_index()
    sims = {}
    for i, item in enumerate(store.items):
        ids, weights = index.row(i)
        for j, weight in zip(ids.tolist(), weights.tolist()):
            sims[item, store.items[j]] = weight
    return sims


def eq1(table, user):
    """Eq 1 between *user* and every co-rater: ``{other: sim}``."""
    store = table.matrix()
    others, sims = store.user_similarities(user)
    return {store.users[o]: sim for o, sim in zip(others.tolist(), sims.tolist())}


class TestAdjustedCosine:
    def test_hand_computed_value(self):
        # u1: a=5, b=3 (mean 4); u2: a=4, b=2 (mean 3)
        table = RatingTable([
            Rating("u1", "a", 5.0), Rating("u1", "b", 3.0),
            Rating("u2", "a", 4.0), Rating("u2", "b", 2.0)])
        # centered: u1 -> a:+1, b:-1 ; u2 -> a:+1, b:-1
        # numerator = -1 + -1 = -2; norms = sqrt(2)*sqrt(2) = 2
        assert eq6(table)["a", "b"] == pytest.approx(-1.0)

    def test_no_common_users_is_zero(self, scenario):
        merged = scenario.merged()
        assert ("interstellar", "forever-war") not in eq6(merged)

    def test_symmetry(self, tiny_table):
        sims = eq6(tiny_table)
        assert sims["a", "b"] == sims["b", "a"]

    def test_bounded(self, small_trace):
        merged = small_trace.merged()
        sims = eq6(merged)
        assert sims
        assert all(-1.0 <= sim <= 1.0 for sim in sims.values())

    def test_degenerate_constant_rater(self):
        # Single user rating everything identically: centered values 0.
        table = RatingTable([Rating("u", "a", 4.0), Rating("u", "b", 4.0)])
        assert eq6(table) == {}

    def test_all_pairs_matches_pointwise(self, tiny_table):
        sims = eq6(tiny_table)
        pairs = list(all_pairs_adjusted_cosine(tiny_table))
        assert len(sims) == 2 * len(pairs)
        for item_i, item_j, sim in pairs:
            assert sim == sims[item_i, item_j]

    def test_all_pairs_yields_each_pair_once(self, tiny_table):
        pairs = [(i, j) for i, j, _ in all_pairs_adjusted_cosine(tiny_table)]
        assert len(pairs) == len(set(pairs))
        assert all(i < j for i, j in pairs)

    def test_min_common_users_filter(self, tiny_table):
        loose = list(all_pairs_adjusted_cosine(tiny_table))
        strict = list(all_pairs_adjusted_cosine(tiny_table, min_common_users=2))
        assert len(strict) <= len(loose)

    def test_max_profile_size_skips_whales(self, tiny_table):
        capped = list(all_pairs_adjusted_cosine(tiny_table, max_profile_size=2))
        # u1 (3 items) and u3 (3 items) are skipped entirely.
        contributing = {i for i, j, _ in capped} | {j for i, j, _ in capped}
        assert contributing <= {"a", "b", "d"}


class TestPearsonUsers:
    def test_symmetry(self, tiny_table):
        for a in tiny_table.users:
            for b, sim in eq1(tiny_table, a).items():
                assert eq1(tiny_table, b)[a] == sim

    def test_agreeing_users_positive(self, tiny_table):
        # u1 and u2 rate a high and b low relative to item means.
        assert eq1(tiny_table, "u1")["u2"] > 0.0

    def test_no_common_items_zero(self):
        table = RatingTable([Rating("u1", "a", 5.0), Rating("u2", "b", 1.0)])
        assert eq1(table, "u1") == {}
        assert eq1(table, "ghost") == {}

    def test_bounded(self, small_trace):
        merged = small_trace.merged()
        for a in sorted(merged.users)[:10]:
            sims = eq1(merged, a)
            assert a not in sims
            assert all(-1.0 <= sim <= 1.0 and sim != 0.0 for sim in sims.values())


class TestSignificance:
    def test_definition_2_by_hand(self):
        # means: a = 4 (5,4,3... wait) compute: a rated 5,3 -> mean 4;
        # b rated 5,1 -> mean 3.
        table = RatingTable([
            Rating("u1", "a", 5.0), Rating("u1", "b", 5.0),  # like/like
            Rating("u2", "a", 3.0), Rating("u2", "b", 1.0),  # dislike/dislike
        ])
        assert significance(table, "a", "b") == 2

    def test_disagreement_not_counted(self):
        table = RatingTable([
            Rating("u1", "a", 5.0), Rating("u1", "b", 1.0),
            Rating("u2", "a", 1.0), Rating("u2", "b", 5.0),
        ])
        assert significance(table, "a", "b") == 0

    def test_symmetry(self, tiny_table):
        assert significance(tiny_table, "a", "b") == significance(tiny_table, "b", "a")

    def test_normalized_bounds(self, tiny_table):
        value = normalized_significance(tiny_table, "a", "b")
        assert 0.0 <= value <= 1.0

    def test_normalized_undefined_without_raters(self):
        with pytest.raises(SimilarityError):
            normalized_significance(RatingTable(), "x", "y")

    def test_normalized_denominator_is_union(self, tiny_table):
        raw = significance(tiny_table, "a", "b")
        union = len(tiny_table.item_users("a") | tiny_table.item_users("b"))
        assert normalized_significance(
            tiny_table, "a", "b") == pytest.approx(raw / union)
