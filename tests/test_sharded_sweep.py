"""Equivalence, determinism and telemetry tests for the Baseliner sweep.

The contract (see ``repro/engine/sharded_sweep.py``):

* the sweep is the store path — its adjacency equals
  ``MatrixRatingStore.build_adjacency`` bit for bit, and the
  object-graph reference to 1e-9 (only the summation order differs);
* the stateless graph build and :class:`IncrementalSweep` produce the
  same graph bit for bit, the latter with its serving index selected in
  the same sort;
* the co-rater counts are **exact** integers, and Definition-2
  significance, read per pair or per edge from the store, does not
  depend on the sweep at all;
* every build observes one ``sweep_stage_seconds`` sample per stage.
"""

from __future__ import annotations

import time

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.baseliner import Baseliner
from repro.data.matrix import MatrixRatingStore
from repro.data.ratings import Rating, RatingTable
from repro.data.synthetic import SyntheticConfig, amazon_like
from repro.engine.sharded_sweep import (
    IncrementalSweep,
    run_sweep,
    sharded_pair_accumulation,
)
from repro.obs.metrics import get_registry
from repro.similarity.adjusted_cosine import all_pairs_adjusted_cosine_reference
from repro.similarity.graph import build_similarity_graph
from repro.similarity.knn import top_k
from repro.similarity.significance import significance_reference

# -- strategies (same shape as test_matrix_store) -----------------------

_users = st.sampled_from([f"u{k}" for k in range(10)])
_items = st.sampled_from([f"i{k}" for k in range(8)])
_values = st.sampled_from([1.0, 1.5, 2.0, 3.0, 4.0, 4.5, 5.0])


@st.composite
def rating_tables(draw, min_size=4, max_size=40):
    """Random small rating tables with unique (user, item) pairs."""
    pairs = draw(st.lists(
        st.tuples(_users, _items), min_size=min_size, max_size=max_size,
        unique=True))
    ratings = [Rating(u, i, draw(_values), timestep=k)
               for k, (u, i) in enumerate(pairs)]
    return RatingTable(ratings)


_common = settings(max_examples=40, deadline=None,
                   suppress_health_check=[HealthCheck.too_slow])


# -- the sweep is the store path ----------------------------------------

@_common
@given(table=rating_tables(), min_common=st.integers(1, 3),
       min_abs=st.sampled_from([0.0, 0.2]))
def test_sweep_matches_the_reference(table, min_common, min_abs):
    store = MatrixRatingStore(table)
    _, assembled = run_sweep(
        store, min_common_users=min_common, min_abs_similarity=min_abs)
    assert assembled.adjacency == store.build_adjacency(
        min_common_users=min_common, min_abs_similarity=min_abs)
    reference = {item: {} for item in table.items}
    for item_i, item_j, sim in all_pairs_adjusted_cosine_reference(
            table, min_common_users=min_common):
        reference[item_i][item_j] = reference[item_j][item_i] = sim
    assert assembled.adjacency.keys() == reference.keys()
    for item, neighbors in reference.items():
        got = assembled.adjacency[item]
        for neighbor in got.keys() | neighbors.keys():
            want = neighbors.get(neighbor, 0.0)
            if abs(abs(want) - min_abs) < 1e-9:
                continue  # on the floor: either side of it is right
            if abs(want) < min_abs:
                want = 0.0
            assert got.get(neighbor, 0.0) == pytest.approx(want, abs=1e-9)


@_common
@given(table=rating_tables())
def test_stateless_and_stateful_builds_are_one_graph(table):
    stateless = build_similarity_graph(table)
    stateful = IncrementalSweep(table)
    assert stateless._adjacency == stateful.graph._adjacency
    assert stateless._index is None
    assert stateful.graph._index is stateful.index


@_common
@given(table=rating_tables(), max_profile=st.sampled_from([2, 3, 5]))
def test_profile_cap_drops_long_profiles_exactly(table, max_profile):
    store = MatrixRatingStore(table)
    acc = sharded_pair_accumulation(store, max_profile_size=max_profile)
    kept = [set(table.user_profile(user)) for user in table.users
            if len(table.user_profile(user)) <= max_profile]
    expected = {}
    for profile in kept:
        ordered = sorted(profile)
        for a, item_i in enumerate(ordered):
            for item_j in ordered[a + 1:]:
                expected[item_i, item_j] = expected.get((item_i, item_j), 0) + 1
    got = {(store.items[key // store.n_items], store.items[key % store.n_items]): count
           for key, count in zip(acc.keys.tolist(), acc.counts.tolist())}
    assert got == expected


@_common
@given(table=rating_tables())
def test_significance_counts_exact(table):
    """The integer side of the contract: the accumulation holds every
    co-rated pair with its exact co-rater count, and the store's
    one-pass ``edge_significance`` over those pairs is the per-pair
    lookup, which is the object-graph reference."""
    store = MatrixRatingStore(table)
    acc = sharded_pair_accumulation(store)
    left = acc.keys // store.n_items
    right = acc.keys % store.n_items
    raw, normalized = store.edge_significance(left, right)
    pairs = [(store.items[l], store.items[r])
             for l, r in zip(left.tolist(), right.tolist())]
    for (item_i, item_j), common, s_raw, s_norm in zip(
            pairs, acc.counts.tolist(), raw.tolist(), normalized.tolist()):
        assert item_i < item_j
        assert common == store.common_raters(item_i, item_j)
        assert s_raw == store.significance(item_i, item_j) \
            == significance_reference(table, item_i, item_j)
        assert s_norm == store.normalized_significance(item_i, item_j)
    # every co-rated pair is present — exactly the nonzero-intersection
    # pairs the per-pair path would see
    items = sorted(table.items)
    present = set(pairs)
    for a_pos, item_i in enumerate(items):
        for item_j in items[a_pos + 1:]:
            assert ((item_i, item_j) in present) \
                == (store.common_raters(item_i, item_j) > 0)


# -- the serving index --------------------------------------------------

@_common
@given(table=rating_tables())
def test_index_selected_during_assembly(table):
    """The NeighborIndex rows assembled in the adjacency's sort are
    exactly the top-k ranking of the adjacency rows."""
    _, assembled = run_sweep(MatrixRatingStore(table), with_index=True)
    assert assembled.index is not None
    for item, neighbors in assembled.adjacency.items():
        width = len(neighbors) + 1
        assert assembled.index.top(item, width) == top_k(neighbors, width)
        assert assembled.index.neighbor_dict(item) == neighbors


def test_index_not_built_unless_requested(tiny_table):
    assert run_sweep(tiny_table.matrix())[1].index is None


def test_empty_table():
    _, assembled = run_sweep(RatingTable().matrix(), with_index=True)
    assert assembled.adjacency == {}
    assert assembled.index.n_entries == 0


# -- telemetry ----------------------------------------------------------

def _stage_cells() -> dict:
    samples = get_registry().snapshot().get(
        "sweep_stage_seconds", {}).get("samples", {})
    return {key: (cell["count"], cell["sum"]) for key, cell in samples.items()}


def _stage_delta(before: dict, after: dict) -> dict:
    return {key: (count - before.get(key, (0, 0.0))[0],
                  total - before.get(key, (0, 0.0))[1])
            for key, (count, total) in after.items()}


@pytest.mark.parametrize("keep_state", [False, True])
def test_each_build_observes_one_sample_per_stage(small_trace, keep_state):
    merged = small_trace.merged()
    merged.matrix()
    before = _stage_cells()
    Baseliner(keep_state=keep_state).compute(small_trace, merged=merged)
    delta = _stage_delta(before, _stage_cells())
    assert {key: count for key, (count, _) in delta.items()} \
        == {'["accumulate"]': 1, '["assemble"]': 1}
    assert all(seconds > 0.0 for _, seconds in delta.values())


def test_stage_seconds_explain_the_stateful_build():
    # The bench's xmap_fit trace; the store is built first, so the
    # timed build is the sweep plus wrapping its rows in a graph.
    table = amazon_like(SyntheticConfig(ratings_per_user=15.0, seed=7)).merged()
    table.matrix()
    before = _stage_cells()
    started = time.perf_counter()
    IncrementalSweep(table)
    wall = time.perf_counter() - started
    staged = sum(seconds for _, seconds in _stage_delta(before, _stage_cells()).values())
    assert 0.8 * wall <= staged <= wall


# -- pipeline integration -----------------------------------------------

class TestBaselinerIntegration:
    def test_env_shards_produce_equivalent_baseline(self, small_trace, monkeypatch):
        # REPRO_SHARDS named a shard layout that no longer exists: a
        # leftover setting must change nothing, bit for bit.
        monkeypatch.delenv("REPRO_SHARDS", raising=False)
        reference = Baseliner().compute(small_trace)
        monkeypatch.setenv("REPRO_SHARDS", "4")
        sharded = Baseliner().compute(small_trace)
        assert sharded.n_homogeneous == reference.n_homogeneous
        assert sharded.n_heterogeneous == reference.n_heterogeneous
        assert sharded.graph._adjacency == reference.graph._adjacency
