"""Unit tests for the rating store (repro.data.ratings)."""

import pytest

from repro.data.ratings import Rating, RatingTable
from repro.errors import DataError


class TestConstruction:
    def test_empty_table(self):
        table = RatingTable()
        assert len(table) == 0
        assert table.users == frozenset()
        assert table.items == frozenset()

    def test_basic_indexing(self, tiny_table):
        assert len(tiny_table) == 10
        assert tiny_table.users == {"u1", "u2", "u3", "u4"}
        assert tiny_table.items == {"a", "b", "c", "d"}

    def test_duplicate_pair_rejected(self):
        with pytest.raises(DataError, match="duplicate"):
            RatingTable([Rating("u", "i", 3.0), Rating("u", "i", 4.0)])

    def test_out_of_scale_rejected(self):
        with pytest.raises(DataError, match="outside scale"):
            RatingTable([Rating("u", "i", 6.0)])
        with pytest.raises(DataError, match="outside scale"):
            RatingTable([Rating("u", "i", 0.5)])

    def test_invalid_scale_rejected(self):
        with pytest.raises(DataError, match="scale"):
            RatingTable([], scale=(5.0, 1.0))

    def test_boundary_values_accepted(self):
        table = RatingTable([Rating("u", "i", 1.0), Rating("u", "j", 5.0)])
        assert len(table) == 2


class TestAccess:
    def test_get_and_value(self, tiny_table):
        assert tiny_table.get("u1", "a").value == 5.0
        assert tiny_table.value("u1", "a") == 5.0
        assert tiny_table.get("u1", "d") is None

    def test_value_missing_raises(self, tiny_table):
        with pytest.raises(DataError, match="no rating"):
            tiny_table.value("u1", "d")

    def test_contains(self, tiny_table):
        assert ("u1", "a") in tiny_table
        assert ("u1", "d") not in tiny_table

    def test_profiles(self, tiny_table):
        assert tiny_table.user_items("u1") == {"a", "b", "c"}
        assert tiny_table.item_users("a") == {"u1", "u2", "u4"}
        assert tiny_table.user_items("ghost") == frozenset()
        assert tiny_table.item_users("ghost") == frozenset()

    def test_iteration_covers_all(self, tiny_table):
        assert len(list(tiny_table)) == 10

    def test_timesteps_preserved(self, tiny_table):
        assert tiny_table.get("u1", "c").timestep == 2


class TestMeans:
    def test_user_mean(self, tiny_table):
        assert tiny_table.user_mean("u1") == pytest.approx(3.0)
        assert tiny_table.user_mean("u2") == pytest.approx(3.0)

    def test_item_mean(self, tiny_table):
        assert tiny_table.item_mean("a") == pytest.approx((5 + 4 + 2) / 3)

    def test_global_mean(self, tiny_table):
        assert tiny_table.global_mean() == pytest.approx(3.4)

    def test_unknown_user_falls_back_to_global(self, tiny_table):
        assert tiny_table.user_mean("ghost") == tiny_table.global_mean()

    def test_unknown_item_falls_back_to_global(self, tiny_table):
        assert tiny_table.item_mean("ghost") == tiny_table.global_mean()

    def test_empty_table_global_mean_is_scale_midpoint(self):
        assert RatingTable().global_mean() == pytest.approx(3.0)

    def test_means_cached_consistently(self, tiny_table):
        first = tiny_table.user_mean("u3")
        assert tiny_table.user_mean("u3") == first


class TestDerivation:
    def test_without_users(self, tiny_table):
        reduced = tiny_table.without_users(["u1"])
        assert "u1" not in reduced.users
        assert len(reduced) == 7
        assert len(tiny_table) == 10  # original untouched

    def test_without_pairs(self, tiny_table):
        reduced = tiny_table.without_pairs([("u1", "a"), ("u3", "d")])
        assert len(reduced) == 8
        assert reduced.get("u1", "a") is None
        assert reduced.get("u1", "b") is not None

    def test_with_ratings_adds_and_overrides(self, tiny_table):
        extended = tiny_table.with_ratings([
            Rating("u9", "a", 4.0), Rating("u1", "a", 1.0)])
        assert extended.value("u9", "a") == 4.0
        assert extended.value("u1", "a") == 1.0
        assert tiny_table.value("u1", "a") == 5.0

    def test_filter(self, tiny_table):
        high = tiny_table.filter(lambda r: r.value >= 4.0)
        assert all(r.value >= 4.0 for r in high)
        assert len(high) == 5

    def test_restricted_to_items(self, tiny_table):
        only_a = tiny_table.restricted_to_items(["a"])
        assert only_a.items == {"a"}
        assert len(only_a) == 3

    def test_merge_disjoint(self, tiny_table):
        other = RatingTable([Rating("u9", "z", 3.0)])
        merged = tiny_table.merged_with(other)
        assert len(merged) == 11

    def test_merge_conflict_raises(self, tiny_table):
        other = RatingTable([Rating("u1", "a", 2.0)])
        with pytest.raises(DataError, match="conflicting"):
            tiny_table.merged_with(other)

    def test_merge_identical_pair_allowed(self, tiny_table):
        other = RatingTable([Rating("u1", "a", 5.0, 0)])
        merged = tiny_table.merged_with(other)
        assert len(merged) == 10

    def test_merge_scale_mismatch(self, tiny_table):
        other = RatingTable([], scale=(0.0, 10.0))
        with pytest.raises(DataError, match="scales"):
            tiny_table.merged_with(other)


class TestClipAndMoved:
    def test_clip(self, tiny_table):
        assert tiny_table.clip(9.0) == 5.0
        assert tiny_table.clip(-2.0) == 1.0
        assert tiny_table.clip(3.3) == 3.3

    def test_rating_is_hashable_and_frozen(self):
        rating = Rating("u", "i", 4.0, 7)
        assert hash(rating) == hash(Rating("u", "i", 4.0, 7))
        with pytest.raises(AttributeError):
            rating.value = 5.0
