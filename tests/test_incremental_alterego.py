"""Unit tests for the incremental AlterEgo builder (§4.3)."""

import pytest

from repro.core.alterego import AlterEgoGenerator, ReplacementPolicy
from repro.core.extender import XSimMap
from repro.data.ratings import Rating
from repro.errors import ConfigError


@pytest.fixture()
def generator():
    xsim_map = XSimMap.from_rows({
        "s1": {"t1": 0.9, "t2": 0.5, "t3": 0.1},
        "s2": {"t1": 0.4, "t4": 0.8},
        "s3": {},
    })
    return AlterEgoGenerator(xsim_map, n_replacements=2)


class TestIncremental:
    def test_matches_batch_profile(self, generator):
        profile = {"s1": Rating("u", "s1", 5.0, 0), "s2": Rating("u", "s2", 2.0, 1)}
        batch = generator.alterego_profile("u", profile)
        builder = generator.incremental("u")
        builder.add(profile["s1"])
        builder.add(profile["s2"])
        assert builder.profile() == batch

    def test_order_independent(self, generator):
        ratings = [Rating("u", "s1", 5.0, 0), Rating("u", "s2", 2.0, 1)]
        forward = generator.incremental("u")
        backward = generator.incremental("u")
        for rating in ratings:
            forward.add(rating)
        for rating in reversed(ratings):
            backward.add(rating)
        assert forward.profile() == backward.profile()

    def test_duplicate_source_item_rejected(self, generator):
        builder = generator.incremental("u")
        builder.add(Rating("u", "s1", 5.0, 0))
        with pytest.raises(ConfigError, match="already folded"):
            builder.add(Rating("u", "s1", 4.0, 1))

    def test_unmappable_item_is_noop(self, generator):
        builder = generator.incremental("u")
        builder.add(Rating("u", "s3", 3.0, 0))
        assert builder.profile() == []
        assert len(builder) == 0

    def test_grows_monotonically(self, generator):
        builder = generator.incremental("u")
        builder.add(Rating("u", "s1", 5.0, 0))
        first = len(builder)
        builder.add(Rating("u", "s2", 2.0, 1))
        assert len(builder) >= first

    def test_private_incremental_consistent(self):
        xsim_map = XSimMap.from_rows({"s1": {"t1": 0.9, "t2": 0.1}})
        generator = AlterEgoGenerator(
            xsim_map, policy=ReplacementPolicy.PRIVATE,
            epsilon=1.0, seed=4, n_replacements=1)
        batch = generator.alterego_profile("u", {"s1": Rating("u", "s1", 4.0, 2)})
        builder = generator.incremental("u")
        builder.add(Rating("u", "s1", 4.0, 2))
        # memoised replacement draws make the two paths agree
        assert builder.profile() == batch
