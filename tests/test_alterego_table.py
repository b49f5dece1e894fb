"""The Generator's array fold against the per-rating fold.

``AlterEgoGenerator.alterego_table`` folds every user at once over
arrays; ``alterego_profile`` / ``IncrementalAlterEgo`` fold one source
rating at a time and stay as the oracle. Comparisons are ``==`` on
floats.
"""

from __future__ import annotations

import time

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.alterego import AlterEgoGenerator, ReplacementPolicy
from repro.core.baseliner import Baseliner
from repro.core.extender import Extender, ExtenderConfig, XSimMap
from repro.core.layers import LayerPartition
from repro.core.pipeline import NXMapRecommender, XMapConfig
from repro.data.matrix import MatrixRatingStore
from repro.data.ratings import Rating, RatingTable
from repro.data.synthetic import SyntheticConfig, amazon_like
from repro.obs import get_registry
from repro.similarity.knn import top_k

SOURCE_SCALE = (1.0, 5.0)
#: Narrower than the source scale, so mapped means clip at both ends.
TARGET_SCALE = (2.0, 4.0)


def per_rating_table(generator, users, source_table, target_table):
    """``alterego_table`` spelt with the per-rating fold: the rows of
    the augmented table as ``{(user, item): (value, timestep)}``."""
    rows = {(r.user, r.item): (r.value, r.timestep) for r in target_table}
    for user in sorted(set(users)):
        real = target_table.user_items(user)
        for rating in generator.alterego_profile(user, source_table.user_profile(user)):
            if rating.item not in real:
                rows[(user, rating.item)] = (
                    target_table.clip(rating.value), rating.timestep)
    return rows


def table_rows(table):
    return {(r.user, r.item): (r.value, r.timestep) for r in table}


# -- bug: the merged timestep is the latest, also below zero -------------


def test_merged_timestep_is_the_latest_even_when_negative():
    generator = AlterEgoGenerator(
        XSimMap.from_rows({"a": {"x": 0.5}, "b": {"x": 0.25}}))
    source = RatingTable([Rating("u", "a", 4.0, -5), Rating("u", "b", 2.0, -3)])
    (profile,) = generator.alterego_profile("u", source.user_profile("u"))
    assert profile.timestep == -3
    table = generator.alterego_table(["u"], source, RatingTable([]))
    assert table.get("u", "x").timestep == -3
    builder = generator.incremental("u")
    builder.add(Rating("u", "a", 4.0, -5))
    assert builder.current("x").timestep == -5


def test_collisions_are_added_in_sorted_source_item_order():
    # Four source items land on one target; the weighted mean is
    # 2.15625 added a → d and 2.1562499999999996 added d → a.
    weights = {"a": 0.1, "b": 0.3, "c": 0.7, "d": 0.5}
    values = {"a": 1.0, "b": 1.0, "c": 1.0, "d": 4.7}
    generator = AlterEgoGenerator(
        XSimMap.from_rows({item: {"x": w} for item, w in weights.items()}))
    source = RatingTable(
        [Rating("u", item, values[item], 0) for item in ("d", "b", "a", "c")])
    table = generator.alterego_table(["u"], source, RatingTable([]))
    assert table.value("u", "x") == 2.15625
    assert table_rows(table) == per_rating_table(
        generator, ["u"], source, RatingTable([]))


# -- property: array fold == per-rating fold ------------------------------

_USERS = [f"u{k}" for k in range(5)]
_SOURCE = [f"s{k}" for k in range(6)]
_TARGET = [f"t{k}" for k in range(6)]
# Ties (0.5 twice), values at and below the 1e-12 floor, negatives —
# and weights whose sums depend on the order they are added in.
_XSIM = st.sampled_from([-0.75, 0.0, 1e-13, 1e-12, 0.1, 0.3, 0.5, 0.5, 0.7, 1.0])


@st.composite
def generator_inputs(draw):
    xsim_map = XSimMap.from_rows(draw(st.dictionaries(
        st.sampled_from(_SOURCE[:5]),  # s5 is never in the map
        st.dictionaries(st.sampled_from(_TARGET), _XSIM, max_size=6),
        max_size=5)))
    source_pairs = draw(st.lists(
        st.tuples(st.sampled_from(_USERS[:4]), st.sampled_from(_SOURCE)),
        unique=True, max_size=18))
    source = RatingTable(
        [Rating(user, item, draw(st.sampled_from([1.0, 2.3, 3.1, 4.7, 5.0])),
                draw(st.integers(-9, 9))) for user, item in source_pairs],
        scale=SOURCE_SCALE)
    target_pairs = draw(st.lists(
        st.tuples(st.sampled_from(_USERS), st.sampled_from(_TARGET)),
        unique=True, max_size=8))
    target = RatingTable(
        [Rating(user, item, draw(st.sampled_from([2.0, 3.5, 4.0])), 1)
         for user, item in target_pairs], scale=TARGET_SCALE)
    # u4 never has a source profile; duplicates in `users` are allowed.
    users = draw(st.lists(st.sampled_from(_USERS), max_size=7))
    return xsim_map, source, target, users


@settings(max_examples=200, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(inputs=generator_inputs(), n_replacements=st.sampled_from([1, 3, 12]))
def test_array_table_equals_the_per_rating_fold(inputs, n_replacements):
    xsim_map, source, target, users = inputs
    generator = AlterEgoGenerator(xsim_map, n_replacements=n_replacements)
    table = generator.alterego_table(users, source, target)
    assert table.scale == TARGET_SCALE
    assert table_rows(table) == per_rating_table(
        AlterEgoGenerator(xsim_map, n_replacements=n_replacements),
        users, source, target)
    # Column-backed: every interned id is one some row uses, so the
    # store reads the same universe the Rating objects spell.
    rebuilt = MatrixRatingStore(RatingTable(list(table), scale=TARGET_SCALE))
    assert (table.matrix().users, table.matrix().items) == (
        rebuilt.users, rebuilt.items)
    assert table.matrix().user_values.tolist() == rebuilt.user_values.tolist()
    # The bulk selection is top_k's, tie-break and floor included.
    for item, candidates in xsim_map.items():
        assert generator.replacements_for(item) == top_k(
            candidates, n_replacements, minimum=1e-12)


@settings(max_examples=100, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(inputs=generator_inputs(), n_replacements=st.sampled_from([1, 3, 12]),
       seed=st.integers(0, 3))
def test_private_table_draws_in_the_per_item_order(inputs, n_replacements, seed):
    xsim_map, source, target, users = inputs

    def private():
        return AlterEgoGenerator(
            xsim_map, policy=ReplacementPolicy.PRIVATE, epsilon=0.3, seed=seed,
            n_replacements=n_replacements)

    by_arrays, per_item = private(), private()
    table = by_arrays.alterego_table(users, source, target)
    # The per-item path consumes the RNG on first use: users sorted,
    # then source items sorted. Same seed, same stream, same table —
    # and the draws left for item_mapping() come out the same too.
    assert table_rows(table) == per_rating_table(per_item, users, source, target)
    assert by_arrays.item_mapping() == per_item.item_mapping()


# -- property: the array ranking is top_k per row --------------------------

#: Twelve targets, so rows run shorter and longer than R; exact ties,
#: both zeros, values at and below the floor, negatives.
_RANK_TARGETS = [f"t{k:02d}" for k in range(12)]
_RANK_XSIM = st.sampled_from([-0.75, -0.0, 0.0, 1e-13, 1e-12, 0.1, 0.5, 0.5, 0.7, 1.0])


@settings(max_examples=200, deadline=None)
@given(rows=st.dictionaries(
           st.sampled_from(_SOURCE),
           st.dictionaries(st.sampled_from(_RANK_TARGETS), _RANK_XSIM, max_size=12),
           max_size=6),
       n_replacements=st.sampled_from([1, 2, 5, 30]))
def test_rank_all_is_top_k_per_row(rows, n_replacements):
    xsim_map = XSimMap.from_rows(rows)
    ptr, names, weights = AlterEgoGenerator(
        xsim_map, n_replacements=n_replacements)._rank_all()
    assert len(ptr) == len(xsim_map) + 1
    for row, source in enumerate(xsim_map):
        ranked = list(zip(names[ptr[row]:ptr[row + 1]], weights[ptr[row]:ptr[row + 1]]))
        assert ranked == top_k(rows[source], n_replacements, minimum=1e-12)


def test_the_non_private_fit_never_reads_a_row_of_the_map(
        small_trace, tmp_path, monkeypatch):
    # The ranking reads the map's arrays; fit → snapshot → save must not
    # build a single per-source row dict.
    reads = []
    read = XSimMap.__getitem__

    def spy(self, source):
        reads.append(source)
        return read(self, source)

    monkeypatch.setattr(XSimMap, "__getitem__", spy)
    pipeline = NXMapRecommender(XMapConfig(mode="item")).fit(small_trace)
    pipeline.snapshot().save(tmp_path / "model")
    assert pipeline.xsim_map.n_pairs and reads == []
    # The spy is live: the private policy draws from a row dict.
    private = AlterEgoGenerator(
        pipeline.xsim_map, policy=ReplacementPolicy.PRIVATE, epsilon=1.0)
    private.replacements_for(pipeline.xsim_map.sources[0])
    assert reads == [pipeline.xsim_map.sources[0]]


def test_table_order_is_users_then_items_sorted():
    generator = AlterEgoGenerator(XSimMap.from_rows(
        {"a": {"y": 0.5, "x": 0.25}, "b": {"x": 1.0, "z": 0.5}}))
    source = RatingTable([
        Rating("v", "b", 2.0, 1), Rating("u", "b", 3.0, 2), Rating("u", "a", 5.0, 3)])
    table = generator.alterego_table(["v", "u"], source, RatingTable([]))
    assert [(r.user, r.item) for r in table] == [
        ("u", "x"), ("u", "y"), ("u", "z"), ("v", "x"), ("v", "z")]


# -- telemetry -----------------------------------------------------------


def _stage_sums():
    samples = get_registry().snapshot().get(
        "alterego_stage_seconds", {}).get("samples", {})
    return {key: cell["sum"] for key, cell in samples.items()}


@pytest.mark.slow
def test_stage_seconds_explain_the_table_wall():
    # The bench's xmap_fit trace at the pipeline's settings.
    data = amazon_like(SyntheticConfig(ratings_per_user=15.0, seed=7))
    merged = data.merged()
    baseline = Baseliner().compute(data, merged=merged)
    partition = LayerPartition.from_graph(baseline.graph, data.domain_map())
    xsim_map = Extender(ExtenderConfig(k=50, max_paths_per_item=5000)).extend(
        baseline.graph, partition, merged, data.source.name)
    generator = AlterEgoGenerator(xsim_map)
    before = _stage_sums()
    started = time.perf_counter()
    table = generator.alterego_table(
        sorted(data.source.users), data.source.ratings, data.target.ratings)
    wall = time.perf_counter() - started
    after = _stage_sums()
    assert set(after) == {'["select"]', '["fold"]', '["table"]'}
    staged = sum(after[key] - before.get(key, 0.0) for key in after)
    assert 0.9 * wall <= staged <= wall
    assert len(table) > len(data.target.ratings)
