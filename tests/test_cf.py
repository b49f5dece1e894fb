"""Unit tests for the CF substrate (repro.cf)."""

import random

import pytest

from repro.cf.item_average import ItemAverageRecommender
from repro.cf.item_knn import ItemKNNRecommender
from repro.cf.predictor import Recommender
from repro.cf.slope_one import SlopeOneRecommender
from repro.cf.temporal import TemporalItemKNNRecommender
from repro.cf.user_average import UserAverageRecommender
from repro.cf.user_knn import UserKNNRecommender
from repro.data.ratings import Rating, RatingTable
from repro.errors import ConfigError
from repro.similarity.adjusted_cosine import all_pairs_adjusted_cosine
from repro.similarity.knn import top_k


class TestProtocol:
    def test_all_recommenders_satisfy_protocol(self, tiny_table):
        for cls in (ItemAverageRecommender, UserAverageRecommender,
                    SlopeOneRecommender):
            assert isinstance(cls(tiny_table), Recommender)
        assert isinstance(UserKNNRecommender(tiny_table, k=2), Recommender)
        assert isinstance(ItemKNNRecommender(tiny_table, k=2), Recommender)

    def test_predictions_always_in_scale(self, small_trace):
        table = small_trace.target.ratings
        recs = [ItemKNNRecommender(table, k=10),
                UserKNNRecommender(table, k=10),
                SlopeOneRecommender(table),
                ItemAverageRecommender(table)]
        users = sorted(table.users)[:5]
        items = sorted(table.items)[:5]
        for rec in recs:
            for user in users:
                for item in items:
                    assert 1.0 <= rec.predict(user, item) <= 5.0


class TestBaselines:
    def test_item_average(self, tiny_table):
        rec = ItemAverageRecommender(tiny_table)
        assert rec.predict("anyone", "a") == pytest.approx((5 + 4 + 2) / 3)

    def test_item_average_unknown_item_falls_back(self, tiny_table):
        rec = ItemAverageRecommender(tiny_table)
        assert rec.predict("u1", "ghost") == pytest.approx(tiny_table.user_mean("u1"))

    def test_user_average(self, tiny_table):
        rec = UserAverageRecommender(tiny_table)
        assert rec.predict("u1", "anything") == pytest.approx(3.0)

    def test_unknown_everything_gives_global_mean(self, tiny_table):
        rec = UserAverageRecommender(tiny_table)
        assert rec.predict("ghost", "ghost") == pytest.approx(tiny_table.global_mean())


class TestUserKNN:
    def test_k_must_be_positive(self, tiny_table):
        with pytest.raises(ConfigError):
            UserKNNRecommender(tiny_table, k=0)

    def test_neighbors_exclude_self(self, tiny_table):
        rec = UserKNNRecommender(tiny_table, k=3)
        assert all(n != "u1" for n, _ in rec.neighbors("u1"))

    def test_neighbors_cached(self, tiny_table):
        rec = UserKNNRecommender(tiny_table, k=3)
        assert rec.neighbors("u1") is rec.neighbors("u1")

    def test_prediction_uses_neighbor_deviations(self):
        # u2 mirrors u1 exactly; u1's unseen item should be pulled
        # toward u2's deviation on it.
        table = RatingTable([
            Rating("u1", "a", 5.0), Rating("u1", "b", 1.0),
            Rating("u2", "a", 5.0), Rating("u2", "b", 1.0),
            Rating("u2", "c", 5.0),
            Rating("u3", "c", 1.0), Rating("u3", "a", 1.0),
            Rating("u3", "b", 5.0),
        ])
        rec = UserKNNRecommender(table, k=1)
        assert rec.predict("u1", "c") > table.user_mean("u1")

    def test_no_signal_falls_back(self, tiny_table):
        rec = UserKNNRecommender(tiny_table, k=2)
        value = rec.predict("u1", "ghost-item")
        assert 1.0 <= value <= 5.0


class TestItemKNN:
    def test_k_must_be_positive(self, tiny_table):
        with pytest.raises(ConfigError):
            ItemKNNRecommender(tiny_table, k=-1)

    def test_similarity_cache_symmetric(self, tiny_table):
        rec = ItemKNNRecommender(tiny_table, k=2)
        assert rec.item_similarity("a", "b") == rec.item_similarity("b", "a")

    def test_positive_only_default(self, tiny_table):
        rec = ItemKNNRecommender(tiny_table, k=5)
        for user in tiny_table.users:
            for item in tiny_table.items:
                for _, sim in rec.rated_neighbors(user, item):
                    assert sim > 0.0

    def test_negative_allowed_when_disabled(self, tiny_table):
        rec = ItemKNNRecommender(tiny_table, k=5, positive_only=False)
        sims = [sim for user in tiny_table.users for item in tiny_table.items
                for _, sim in rec.rated_neighbors(user, item)]
        assert any(sim < 0.0 for sim in sims)

    def test_neighbors_subset_of_user_profile(self, tiny_table):
        rec = ItemKNNRecommender(tiny_table, k=5)
        neighbors = rec.rated_neighbors("u1", "d")
        assert {n for n, _ in neighbors} <= tiny_table.user_items("u1")

    def test_index_built_lazily_and_once(self, tiny_table):
        rec = ItemKNNRecommender(tiny_table, k=2)
        assert rec._index is None
        assert rec.neighbor_index() is rec.neighbor_index()

    def test_unknown_user_and_item(self, tiny_table):
        rec = ItemKNNRecommender(tiny_table, k=2)
        assert rec.rated_neighbors("ghost", "a") == []
        assert rec.rated_neighbors("u1", "ghost") == []

    def test_unknown_user_with_positive_neighbors_present(self):
        # The query item has positively-similar neighbors, so a
        # rated-set lookup that accidentally matched everything (the
        # serve path keeps per-user membership masks) would surface
        # them for a user the table has never seen.
        table = RatingTable([
            Rating("u1", "a", 5.0, 0), Rating("u1", "b", 4.0, 1),
            Rating("u2", "a", 4.0, 0), Rating("u2", "b", 3.0, 1),
            Rating("u2", "c", 1.0, 2), Rating("u3", "b", 5.0, 0),
            Rating("u3", "c", 4.0, 1),
        ])
        rec = ItemKNNRecommender(table, k=5)
        assert any(rec.rated_neighbors("u2", "a"))
        assert rec.rated_neighbors("ghost", "a") == []


class TestItemKNNServingIndex:
    """The index path (O(k) row scans) vs the per-pair path.

    Given the same similarity values, the two selection algorithms must
    agree *exactly* — neighbor lists and raw Eq-4 predictions bit for
    bit. The legacy ``use_index=False`` path computes each similarity
    with a per-pair dot product whose summation order differs from the
    bulk Eq-6 accumulation by ~1e-15, so against it the contract is
    1e-9 agreement on predictions.
    """

    def _seeded_table(self, seed=29, n_users=40, n_items=30, n_ratings=420):
        rng = random.Random(seed)
        seen = set()
        ratings = []
        while len(ratings) < n_ratings:
            pair = (f"u{rng.randrange(n_users)}", f"i{rng.randrange(n_items)}")
            if pair in seen:
                continue
            seen.add(pair)
            ratings.append(Rating(pair[0], pair[1],
                                  float(rng.randint(1, 5)), len(ratings)))
        return RatingTable(ratings)

    def _reference_neighbors(self, rec, adjacency, user, item):
        """The per-pair path — iterate X_A, look up each similarity,
        top-k — fed by the store's per-pair Eq-6 values, which the
        index rows hold bit for bit."""
        row = adjacency.get(item, {})
        candidates = {}
        for rated in rec.table.user_items(user):
            if rated == item or rated not in row:
                continue
            sim = row[rated]
            if sim > 0.0 or (sim != 0.0 and not rec.positive_only):
                candidates[rated] = sim
        return top_k(candidates, rec.k)

    def _reference_raw(self, rec, neighbors, user, item):
        numerator = 0.0
        denominator = 0.0
        for rated, sim in neighbors:
            rating = rec.table.get(user, rated)
            numerator += sim * (rating.value - rec.table.item_mean(rated))
            denominator += abs(sim)
        if denominator == 0.0:
            return None
        return rec.table.item_mean(item) + numerator / denominator

    @pytest.mark.parametrize("positive_only", [True, False])
    def test_predictions_via_index_match_per_pair_path_exactly(self, positive_only):
        table = self._seeded_table()
        rec = ItemKNNRecommender(table, k=7, positive_only=positive_only)
        adjacency = {}
        for item_i, item_j, sim in all_pairs_adjusted_cosine(table):
            adjacency.setdefault(item_i, {})[item_j] = sim
            adjacency.setdefault(item_j, {})[item_i] = sim
        users = sorted(table.users)[:15]
        items = sorted(table.items)[:15]
        for user in users:
            for item in items:
                expected = self._reference_neighbors(rec, adjacency, user, item)
                assert rec.rated_neighbors(user, item) == expected
                assert rec._predict_raw(user, item) == \
                    self._reference_raw(rec, expected, user, item)

    def test_index_agrees_with_legacy_pairwise_path(self):
        table = self._seeded_table(seed=31)
        indexed = ItemKNNRecommender(table, k=7)
        legacy = ItemKNNRecommender(table, k=7, use_index=False)
        users = sorted(table.users)[:10]
        items = sorted(table.items)[:10]
        for user in users:
            for item in items:
                assert [n for n, _ in indexed.rated_neighbors(user, item)] \
                    == [n for n, _ in legacy.rated_neighbors(user, item)]
                assert indexed.predict(user, item) == pytest.approx(
                    legacy.predict(user, item), abs=1e-9)

    def test_temporal_variant_serves_from_index(self):
        table = self._seeded_table(seed=37)
        indexed = TemporalItemKNNRecommender(table, k=5, alpha=0.03)
        legacy = TemporalItemKNNRecommender(table, k=5, alpha=0.03, use_index=False)
        user = sorted(table.users)[0]
        for item in sorted(table.items)[:10]:
            assert indexed.predict(user, item) == pytest.approx(
                legacy.predict(user, item), abs=1e-9)


class TestTemporal:
    def test_alpha_zero_equals_plain_item_knn(self, small_trace):
        table = small_trace.target.ratings
        plain = ItemKNNRecommender(table, k=10)
        temporal = TemporalItemKNNRecommender(table, k=10, alpha=0.0)
        user = sorted(table.users)[0]
        for item in sorted(table.items)[:10]:
            assert temporal.predict(user, item) == pytest.approx(
                plain.predict(user, item))

    def test_negative_alpha_rejected(self, tiny_table):
        with pytest.raises(ConfigError):
            TemporalItemKNNRecommender(tiny_table, alpha=-0.1)

    def test_query_time_is_latest_timestep(self, tiny_table):
        rec = TemporalItemKNNRecommender(tiny_table, alpha=0.1)
        assert rec.query_time("u1") == 2
        assert rec.query_time("ghost") == 0

    def test_decay_downweights_old_ratings(self):
        # Two rated items equally similar to the query; the recent one
        # has a high rating, the old one low. Decay pulls the
        # prediction toward the recent rating.
        table = RatingTable([
            Rating("u", "old", 1.0, 0),
            Rating("u", "new", 5.0, 100),
            Rating("v", "old", 4.0, 0), Rating("v", "new", 2.0, 1),
            Rating("v", "q", 3.0, 2),
            Rating("w", "old", 2.0, 0), Rating("w", "new", 4.0, 1),
            Rating("w", "q", 3.0, 2),
        ])
        mild = TemporalItemKNNRecommender(table, k=5, alpha=0.0)
        sharp = TemporalItemKNNRecommender(table, k=5, alpha=0.05)
        assert sharp.predict("u", "q") >= mild.predict("u", "q")


class TestSlopeOne:
    def test_deviation_antisymmetric(self, tiny_table):
        rec = SlopeOneRecommender(tiny_table)
        dev_ab, n_ab = rec.deviation("a", "b")
        dev_ba, n_ba = rec.deviation("b", "a")
        assert dev_ab == pytest.approx(-dev_ba)
        assert n_ab == n_ba

    def test_deviation_hand_computed(self, tiny_table):
        rec = SlopeOneRecommender(tiny_table)
        # co-raters of a and b: u1 (5-3=2), u2 (4-2=2) -> dev = 2
        dev, count = rec.deviation("a", "b")
        assert dev == pytest.approx(2.0)
        assert count == 2

    def test_prediction_formula(self):
        table = RatingTable([
            Rating("u1", "a", 4.0), Rating("u1", "b", 2.0),
            Rating("u2", "a", 5.0), Rating("u2", "b", 3.0),
            Rating("u3", "b", 4.0)])
        rec = SlopeOneRecommender(table)
        # dev(a, b) = 2 -> u3: b=4 -> a ≈ 4 + 2 = 5 (clipped at 5)
        assert rec.predict("u3", "a") == pytest.approx(5.0)

    def test_self_deviation_zero(self, tiny_table):
        assert SlopeOneRecommender(tiny_table).deviation("a", "a") == (0.0, 0)


class TestTopN:
    def test_recommend_excludes_rated(self, tiny_table):
        rec = ItemAverageRecommender(tiny_table)
        recommended = [item for item, _ in rec.recommend("u1", n=10)]
        assert not set(recommended) & tiny_table.user_items("u1")

    def test_recommend_sorted_desc(self, tiny_table):
        rec = ItemAverageRecommender(tiny_table)
        scores = [score for _, score in rec.recommend("u4", n=10)]
        assert scores == sorted(scores, reverse=True)

    def test_recommend_respects_n(self, small_trace):
        rec = ItemAverageRecommender(small_trace.target.ratings)
        user = sorted(small_trace.target.users)[0]
        assert len(rec.recommend(user, n=3)) == 3
