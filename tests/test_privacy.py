"""Unit tests for the differential-privacy substrate (repro.privacy)."""

import math

import numpy as np
import pytest

from repro.data.ratings import Rating, RatingTable
from repro.errors import PrivacyError
from repro.privacy.accountant import PrivacyAccountant
from repro.privacy.attack import optimal_replacements, reidentification_rate
from repro.privacy.mechanisms import (
    exponential_mechanism,
    exponential_sample_without_replacement,
    laplace_noise,
)
from repro.privacy.pnsa import PNSAConfig, private_neighbor_selection, truncation_width
from repro.privacy.prs import private_replacement
from repro.privacy.sensitivity import (
    XSIM_GLOBAL_SENSITIVITY,
    item_similarity_sensitivity,
    user_similarity_sensitivity,
)


class TestLaplace:
    def test_zero_sensitivity_zero_noise(self):
        rng = np.random.default_rng(0)
        assert laplace_noise(0.0, 1.0, rng) == 0.0

    def test_scale_grows_with_sensitivity(self):
        rng = np.random.default_rng(0)
        small = [abs(laplace_noise(0.1, 1.0, rng)) for _ in range(500)]
        rng = np.random.default_rng(0)
        large = [abs(laplace_noise(10.0, 1.0, rng)) for _ in range(500)]
        assert np.mean(large) > np.mean(small)

    def test_invalid_epsilon(self):
        rng = np.random.default_rng(0)
        with pytest.raises(PrivacyError):
            laplace_noise(1.0, 0.0, rng)
        with pytest.raises(PrivacyError):
            laplace_noise(1.0, -1.0, rng)

    def test_negative_sensitivity(self):
        rng = np.random.default_rng(0)
        with pytest.raises(PrivacyError):
            laplace_noise(-1.0, 1.0, rng)


class TestExponentialMechanism:
    def test_prefers_high_scores(self):
        rng = np.random.default_rng(1)
        scores = {"good": 1.0, "bad": -1.0}
        picks = [exponential_mechanism(scores, 8.0, 2.0, rng) for _ in range(300)]
        assert picks.count("good") > 250

    def test_empty_candidates(self):
        with pytest.raises(PrivacyError):
            exponential_mechanism({}, 1.0, 2.0, np.random.default_rng(0))

    def test_nonpositive_sensitivity(self):
        with pytest.raises(PrivacyError):
            exponential_mechanism({"a": 1.0}, 1.0, 0.0, np.random.default_rng(0))

    def test_dp_likelihood_ratio_bound(self):
        """Empirical ε-DP check: for two score sets differing by the
        global sensitivity on one candidate, outcome probabilities
        differ by at most exp(ε) (with sampling slack)."""
        rng = np.random.default_rng(2)
        epsilon = 1.0
        scores_1 = {"a": 0.5, "b": 0.0, "c": -0.5}
        scores_2 = {"a": 0.5 - 2.0, "b": 0.0, "c": -0.5}  # GS = 2 shift
        n = 30_000
        count_1 = sum(exponential_mechanism(scores_1, epsilon, 2.0, rng) == "a"
                      for _ in range(n)) / n
        count_2 = sum(exponential_mechanism(scores_2, epsilon, 2.0, rng) == "a"
                      for _ in range(n)) / n
        assert count_2 > 0
        # exponential mechanism guarantees ratio <= exp(eps); allow slack.
        assert count_1 / count_2 <= math.exp(epsilon) * 1.15

    def test_per_candidate_sensitivities(self):
        rng = np.random.default_rng(3)
        pick = exponential_mechanism(
            {"a": 1.0, "b": 0.0}, 1.0, {"a": 0.5, "b": 0.5}, rng)
        assert pick in {"a", "b"}

    def test_sampling_without_replacement(self):
        rng = np.random.default_rng(4)
        chosen = exponential_sample_without_replacement(
            {"a": 1.0, "b": 0.5, "c": 0.1}, rounds=2,
            epsilon_per_round=1.0, sensitivity=2.0, rng=rng)
        assert len(chosen) == 2
        assert len(set(chosen)) == 2

    def test_rounds_exceeding_candidates(self):
        rng = np.random.default_rng(5)
        chosen = exponential_sample_without_replacement(
            {"a": 1.0}, rounds=5, epsilon_per_round=1.0,
            sensitivity=2.0, rng=rng)
        assert chosen == ["a"]


class TestPRS:
    def test_requires_candidates(self):
        with pytest.raises(PrivacyError):
            private_replacement({}, 0.5, np.random.default_rng(0))

    def test_high_epsilon_approaches_argmax(self):
        rng = np.random.default_rng(6)
        candidates = {"best": 1.0, "worst": -1.0}
        picks = [private_replacement(candidates, 50.0, rng) for _ in range(100)]
        assert picks.count("best") >= 99

    def test_low_epsilon_approaches_uniform(self):
        rng = np.random.default_rng(7)
        candidates = {"best": 1.0, "worst": -1.0}
        picks = [private_replacement(candidates, 0.01, rng) for _ in range(2000)]
        fraction = picks.count("best") / len(picks)
        assert 0.45 < fraction < 0.55

    def test_global_sensitivity_constant(self):
        assert XSIM_GLOBAL_SENSITIVITY == 2.0


class TestSensitivity:
    def test_always_positive_finite(self, small_trace):
        table = small_trace.target.ratings
        items = sorted(table.items)[:12]
        for i in items:
            for j in items:
                if i < j:
                    value = item_similarity_sensitivity(table, i, j)
                    assert 0.0 < value <= 2.0
                    assert math.isfinite(value)

    def test_no_corater_is_global_worst_case(self):
        table = RatingTable([
            Rating("u1", "a", 5.0), Rating("u1", "x", 1.0),
            Rating("u2", "b", 4.0), Rating("u2", "y", 2.0)])
        assert item_similarity_sensitivity(table, "a", "b") == 2.0

    def test_more_raters_lower_sensitivity(self):
        def table_with(n):
            ratings = []
            for k in range(n):
                ratings.append(Rating(f"u{k}", "a", 4.0 + (k % 2)))
                ratings.append(Rating(f"u{k}", "b", 3.0 + (k % 2)))
                ratings.append(Rating(f"u{k}", "c", 1.0 + (k % 3)))
            return RatingTable(ratings)
        thin = item_similarity_sensitivity(table_with(3), "a", "b")
        thick = item_similarity_sensitivity(table_with(30), "a", "b")
        assert thick < thin

    def test_user_variant_positive(self, small_trace):
        table = small_trace.target.ratings
        users = sorted(table.users)[:8]
        for a in users:
            for b in users:
                if a < b:
                    value = user_similarity_sensitivity(table, a, b)
                    assert 0.0 < value <= 2.0


# ----------------------------------------------------------------------
# Theorem 2 over Rating dicts: the naive reference the store-backed
# sensitivities must match bit for bit.
# ----------------------------------------------------------------------

def _pair_sensitivity_reference(vector_i, vector_j):
    common = [u for u in vector_i if u in vector_j]
    if not common:
        return 2.0
    norm_sq_i = math.fsum(v * v for v in vector_i.values())
    norm_sq_j = math.fsum(v * v for v in vector_j.values())
    dot = math.fsum(vector_i[u] * vector_j[u] for u in common)
    norm_i = math.sqrt(norm_sq_i)
    norm_j = math.sqrt(norm_sq_j)

    best = 0.0
    degenerate = False
    for user in common:
        reduced_norm_i = math.sqrt(max(0.0, norm_sq_i - vector_i[user] ** 2))
        reduced_norm_j = math.sqrt(max(0.0, norm_sq_j - vector_j[user] ** 2))
        if reduced_norm_i == 0.0 or reduced_norm_j == 0.0:
            degenerate = True
            continue
        term_contribution = abs(
            vector_i[user] * vector_j[user]) / (reduced_norm_i * reduced_norm_j)
        term_renorm = 0.0
        if norm_i > 0.0 and norm_j > 0.0:
            term_renorm = abs(
                dot / (reduced_norm_i * reduced_norm_j)
                - dot / (norm_i * norm_j))
        best = max(best, term_contribution, term_renorm)
    if degenerate and best == 0.0:
        return 2.0
    return min(best, 2.0) if best > 0.0 else (2.0 if degenerate else max(best, 1e-12))


def _item_sensitivity_reference(table, item_i, item_j):
    """User-mean-centred rating vectors of the two items."""
    vector_i = {
        user: rating.value - table.user_mean(user)
        for user, rating in table.item_profile(item_i).items()}
    vector_j = {
        user: rating.value - table.user_mean(user)
        for user, rating in table.item_profile(item_j).items()}
    return _pair_sensitivity_reference(vector_i, vector_j)


def _user_sensitivity_reference(table, user_a, user_b):
    """Item-mean-centred rating vectors of the two users."""
    vector_a = {
        item: rating.value - table.item_mean(item)
        for item, rating in table.user_profile(user_a).items()}
    vector_b = {
        item: rating.value - table.item_mean(item)
        for item, rating in table.user_profile(user_b).items()}
    return _pair_sensitivity_reference(vector_a, vector_b)


class TestSensitivityMatchesDictReference:
    def test_every_item_pair_bit_identical(self, small_trace):
        table = small_trace.target.ratings
        items = sorted(table.items)
        for n, i in enumerate(items):
            for j in items[n:]:
                got = item_similarity_sensitivity(table, i, j)
                want = _item_sensitivity_reference(table, i, j)
                assert got.hex() == want.hex(), (i, j)

    def test_every_user_pair_bit_identical(self, small_trace):
        table = small_trace.target.ratings
        users = sorted(table.users)
        for n, a in enumerate(users):
            for b in users[n:]:
                got = user_similarity_sensitivity(table, a, b)
                want = _user_sensitivity_reference(table, a, b)
                assert got.hex() == want.hex(), (a, b)

    def test_no_corater_and_unknown_ids(self):
        table = RatingTable([
            Rating("u1", "a", 5.0), Rating("u1", "x", 1.0),
            Rating("u2", "b", 4.0), Rating("u2", "y", 2.0)])
        for i, j in (("a", "b"), ("a", "ghost"), ("ghost", "phantom")):
            assert item_similarity_sensitivity(table, i, j) == 2.0
            assert _item_sensitivity_reference(table, i, j) == 2.0
        for a, b in (("u1", "u2"), ("u1", "ghost")):
            assert user_similarity_sensitivity(table, a, b) == 2.0
            assert _user_sensitivity_reference(table, a, b) == 2.0

    def test_lone_corater_is_degenerate(self):
        # Both items have one rater: removing them empties both vectors.
        table = RatingTable([Rating("u1", "a", 5.0), Rating("u1", "b", 1.0)])
        assert item_similarity_sensitivity(table, "a", "b") == 2.0
        assert _item_sensitivity_reference(table, "a", "b") == 2.0

    def test_zero_mass_pair_gets_the_positive_floor(self):
        # u1 rates at their own mean, so the one co-rater carries no
        # mass: no term is positive and no reduced norm is zero.
        table = RatingTable([
            Rating("u1", "a", 3.0), Rating("u1", "b", 3.0),
            Rating("u2", "a", 5.0), Rating("u2", "x", 1.0),
            Rating("u3", "b", 5.0), Rating("u3", "y", 1.0)])
        assert item_similarity_sensitivity(table, "a", "b") == 1e-12
        assert _item_sensitivity_reference(table, "a", "b") == 1e-12


class TestPNSA:
    def test_config_validation(self):
        with pytest.raises(PrivacyError):
            PNSAConfig(k=0, epsilon=1.0).validated()
        with pytest.raises(PrivacyError):
            PNSAConfig(k=5, epsilon=-1.0).validated()
        with pytest.raises(PrivacyError):
            PNSAConfig(k=5, epsilon=1.0, rho=1.5).validated()

    def test_small_candidate_set_returned_whole(self):
        config = PNSAConfig(k=10, epsilon=1.0)
        chosen = private_neighbor_selection(
            {"a": 0.9, "b": 0.1}, {"a": 0.5, "b": 0.5},
            config, np.random.default_rng(0))
        assert chosen == ["a", "b"]

    def test_returns_k_distinct(self):
        similarities = {f"i{n}": n / 20 for n in range(20)}
        sensitivities = {key: 0.2 for key in similarities}
        config = PNSAConfig(k=5, epsilon=1.0)
        chosen = private_neighbor_selection(
            similarities, sensitivities, config, np.random.default_rng(1))
        assert len(chosen) == 5
        assert len(set(chosen)) == 5

    def test_missing_sensitivity_rejected(self):
        config = PNSAConfig(k=1, epsilon=1.0)
        with pytest.raises(PrivacyError, match="sensitivities"):
            private_neighbor_selection(
                {"a": 0.5, "b": 0.1}, {"a": 0.5}, config,
                np.random.default_rng(0))

    def test_truncation_width_nonnegative_and_capped(self):
        config = PNSAConfig(k=5, epsilon=0.5)
        width = truncation_width(config, sim_k=0.4,
                                 max_sensitivity=0.3, n_candidates=50)
        assert 0.0 <= width <= 0.4

    def test_high_epsilon_recovers_topk_mostly(self):
        similarities = {f"i{n}": n / 20 for n in range(20)}
        sensitivities = {key: 0.05 for key in similarities}
        config = PNSAConfig(k=3, epsilon=200.0)
        chosen = private_neighbor_selection(
            similarities, sensitivities, config, np.random.default_rng(2))
        assert set(chosen) == {"i19", "i18", "i17"}

    def test_empty_candidates(self):
        config = PNSAConfig(k=3, epsilon=1.0)
        assert private_neighbor_selection(
            {}, {}, config, np.random.default_rng(0)) == []


class TestAccountant:
    def test_records_and_totals(self):
        accountant = PrivacyAccountant()
        accountant.spend("prs", 0.3)
        accountant.spend("pnsa", 0.4)
        assert accountant.total == pytest.approx(0.7)
        assert accountant.entries == (("prs", 0.3), ("pnsa", 0.4))
        assert accountant.remaining() is None

    def test_budget_enforced(self):
        accountant = PrivacyAccountant(budget=0.5)
        accountant.spend("a", 0.4)
        with pytest.raises(PrivacyError, match="exceeds budget"):
            accountant.spend("b", 0.2)
        assert accountant.remaining() == pytest.approx(0.1)

    def test_nonpositive_spend_rejected(self):
        with pytest.raises(PrivacyError):
            PrivacyAccountant().spend("x", 0.0)

    def test_describe_mentions_total(self):
        accountant = PrivacyAccountant(budget=2.0)
        accountant.spend("prs", 0.3)
        assert "0.3" in accountant.describe()


class TestAttack:
    def test_optimal_replacements_argmax(self):
        xsim_map = {"s1": {"a": 0.9, "b": 0.1}, "s2": {}}
        assert optimal_replacements(xsim_map) == {"s1": "a"}

    def test_reidentification_monotone_in_epsilon(self):
        xsim_map = {
            f"s{k}": {f"t{j}": (0.9 if j == k else 0.1) for j in range(6)}
            for k in range(6)}
        rng = np.random.default_rng(0)
        weak = reidentification_rate(xsim_map, 0.05, trials=30, rng=rng)
        rng = np.random.default_rng(0)
        strong = reidentification_rate(xsim_map, 60.0, trials=30, rng=rng)
        assert weak < strong
        assert strong > 0.9

    def test_empty_map_rejected(self):
        with pytest.raises(PrivacyError):
            reidentification_rate({}, 1.0, 10, np.random.default_rng(0))
