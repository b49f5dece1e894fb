"""Unit tests for the NX-Map / X-Map pipeline facades (repro.core.pipeline)."""

import pytest

from repro.core.pipeline import NXMapRecommender, XMapConfig, XMapRecommender
from repro.errors import ConfigError, ReproError


class TestConfig:
    def test_defaults_valid(self):
        XMapConfig().validated()

    def test_bad_mode(self):
        with pytest.raises(ConfigError, match="mode"):
            XMapConfig(mode="hybrid").validated()

    def test_alpha_requires_item_mode(self):
        with pytest.raises(ConfigError, match="item-based"):
            XMapConfig(mode="user", alpha=0.1).validated()

    def test_bad_cf_k(self):
        with pytest.raises(ConfigError):
            XMapConfig(cf_k=0).validated()

    def test_with_overrides(self):
        config = XMapConfig().with_overrides(cf_k=10, mode="user")
        assert config.cf_k == 10
        assert config.mode == "user"
        with pytest.raises(ConfigError):
            XMapConfig().with_overrides(cf_k=-1)


class TestNXMapPipeline:
    @pytest.fixture(scope="class")
    def fitted(self, small_split):
        config = XMapConfig(prune_k=8, cf_k=20)
        return NXMapRecommender(config).fit(
            small_split.train, users=small_split.test_users)

    def test_unfitted_raises(self):
        rec = NXMapRecommender(XMapConfig())
        with pytest.raises(ReproError, match="not fitted"):
            rec.predict("u", "i")
        with pytest.raises(ReproError):
            rec.item_mapping()

    def test_variant_names(self):
        assert NXMapRecommender(XMapConfig(mode="item")).variant_name == "NX-Map-ib"
        assert NXMapRecommender(XMapConfig(mode="user")).variant_name == "NX-Map-ub"
        assert XMapRecommender(XMapConfig(mode="user")).variant_name == "X-Map-ub"

    def test_predicts_in_scale(self, fitted, small_split):
        for user, item, _ in small_split.hidden_pairs()[:30]:
            assert 1.0 <= fitted.predict(user, item) <= 5.0

    def test_recommends_target_items_only(self, fitted, small_split):
        user = small_split.test_users[0]
        recommended = fitted.recommend(user, n=5)
        target_items = small_split.train.target.items
        assert all(item in target_items for item, _ in recommended)

    def test_cold_start_user_gets_recommendations(self, fitted, small_split):
        user = small_split.test_users[0]
        assert not small_split.train.target.ratings.user_items(user)
        assert len(fitted.recommend(user, n=5)) == 5

    def test_item_mapping_targets_target_domain(self, fitted, small_split):
        mapping = fitted.item_mapping()
        assert mapping
        target_items = small_split.train.target.items
        assert all(t in target_items for t in mapping.values())

    def test_exposes_pipeline_artifacts(self, fitted):
        assert fitted.baseline is not None
        assert fitted.partition is not None
        assert fitted.xsim_map
        assert fitted.augmented_target is not None

    def test_alterego_in_augmented_table(self, fitted, small_split):
        user = small_split.test_users[0]
        assert fitted.augmented_target.user_items(user)


class TestXMapPipeline:
    @pytest.fixture(scope="class")
    def fitted(self, small_split):
        config = XMapConfig(prune_k=8, cf_k=20, epsilon=0.3, epsilon_prime=0.8, seed=5)
        return XMapRecommender(config).fit(
            small_split.train, users=small_split.test_users)

    def test_accountant_ledger(self, fitted):
        labels = [label for label, _ in fitted.accountant.entries]
        assert any("PRS" in label for label in labels)
        assert any("PNSA" in label for label in labels)
        assert any("PNCF" in label for label in labels)
        # ε + ε′ in total
        assert fitted.accountant.total == pytest.approx(0.3 + 0.8)

    def test_predicts_in_scale(self, fitted, small_split):
        for user, item, _ in small_split.hidden_pairs()[:20]:
            assert 1.0 <= fitted.predict(user, item) <= 5.0

    def test_seed_reproducibility(self, small_split):
        config = XMapConfig(prune_k=8, cf_k=10, seed=9)
        user, item, _ = small_split.hidden_pairs()[0]
        first = XMapRecommender(config).fit(
            small_split.train, users=small_split.test_users).predict(user, item)
        second = XMapRecommender(config).fit(
            small_split.train, users=small_split.test_users).predict(user, item)
        assert first == pytest.approx(second)

    def test_user_mode(self, small_split):
        config = XMapConfig(prune_k=8, cf_k=10, mode="user", seed=1)
        fitted = XMapRecommender(config).fit(
            small_split.train, users=small_split.test_users)
        user, item, _ = small_split.hidden_pairs()[0]
        assert 1.0 <= fitted.predict(user, item) <= 5.0

    def test_mf_mode_rejected_for_private(self, small_split):
        config = XMapConfig(prune_k=8, mode="mf", seed=1)
        with pytest.raises(ConfigError, match="non-private"):
            XMapRecommender(config).fit(small_split.train, users=small_split.test_users)


class TestMFMode:
    def test_nxmap_mf_predicts_in_scale(self, small_split):
        config = XMapConfig(prune_k=8, mode="mf", seed=1)
        fitted = NXMapRecommender(config).fit(
            small_split.train, users=small_split.test_users)
        assert fitted.variant_name == "NX-Map-mf"
        for user, item, _ in small_split.hidden_pairs()[:10]:
            assert 1.0 <= fitted.predict(user, item) <= 5.0
