"""Equivalence and determinism tests for the sharded Eq-6 sweep.

The contract (see ``repro/engine/sharded_sweep.py``):

* one shard ⇒ **bit-identical** to the single-process store path
  (``MatrixRatingStore.build_adjacency``);
* fixed shard count ⇒ a pure function of the table (partials merge in
  shard index order);
* any shard count ⇒ similarities agree with the store path to 1e-9
  (only the float merge order moves), while the co-rater counts stay
  **exactly** equal — they are integer sums, which merge associatively
  — and Definition-2 significance, read per pair or per edge from the
  store, does not depend on the sweep at all.
"""

from __future__ import annotations

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.baseliner import Baseliner
from repro.data.matrix import MatrixRatingStore
from repro.data.ratings import Rating, RatingTable
from repro.engine.sharded_sweep import (
    resolve_edge_partitions,
    resolve_n_shards,
    shard_user_indices,
    sharded_adjacency,
    sharded_pair_accumulation,
)
from repro.errors import EngineError
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

# Id only, no argument: keeps the "[numpy]" suffix these tests have
# always had, so lists and logs that name a test keep naming it.
_numpy_id = pytest.mark.parametrize((), [pytest.param(id="numpy")])


def _max_abs_diff(left: dict, right: dict) -> float:
    assert left.keys() == right.keys()
    worst = 0.0
    for item, nbrs in left.items():
        other = right[item]
        for j in set(nbrs) | set(other):
            worst = max(worst, abs(nbrs.get(j, 0.0) - other.get(j, 0.0)))
    return worst


# -- the tentpole's correctness contract --------------------------------

@_numpy_id
@_common
@given(table=rating_tables())
def test_one_shard_bit_identical_to_store_path(table):
    store = MatrixRatingStore(table)
    result = sharded_adjacency(store, n_shards=1)
    assert result.adjacency == store.build_adjacency()


@pytest.mark.parametrize("n_shards", [1, 2, 7])
@_numpy_id
@_common
@given(table=rating_tables())
def test_sharded_matches_store_path_1e9(table, n_shards):
    store = MatrixRatingStore(table)
    result = sharded_adjacency(store, n_shards=n_shards)
    assert _max_abs_diff(result.adjacency, store.build_adjacency()) < 1e-9


@_numpy_id
@_common
@given(table=rating_tables(), min_common=st.integers(1, 3),
       min_abs=st.sampled_from([0.0, 0.2]))
def test_sharded_respects_edge_guards(table, min_common, min_abs):
    store = MatrixRatingStore(table)
    result = sharded_adjacency(
        store, n_shards=3, min_common_users=min_common,
        min_abs_similarity=min_abs)
    reference = store.build_adjacency(
        min_common_users=min_common, min_abs_similarity=min_abs)
    assert _max_abs_diff(result.adjacency, reference) < 1e-9


@_numpy_id
@_common
@given(table=rating_tables(), max_profile=st.sampled_from([2, 3, 5]))
def test_sharded_respects_profile_cap(table, max_profile):
    store = MatrixRatingStore(table)
    result = sharded_adjacency(store, n_shards=3, max_profile_size=max_profile)
    reference = store.build_adjacency(max_profile_size=max_profile)
    assert _max_abs_diff(result.adjacency, reference) < 1e-9


@_numpy_id
@_common
@given(table=rating_tables(), n_shards=st.integers(1, 7))
def test_significance_counts_exact_for_any_shard_count(table, n_shards):
    """The integer side of the contract: at any shard count the merged
    accumulation holds every co-rated pair with its exact co-rater
    count, and the store's one-pass ``edge_significance`` over those
    pairs is the per-pair lookup, which is the object-graph reference."""
    store = MatrixRatingStore(table)
    acc, _ = sharded_pair_accumulation(store, n_shards=n_shards)
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


# -- the partitioned assembly back half ---------------------------------

@pytest.mark.parametrize("n_partitions", [1, 2, 7])
@_numpy_id
@_common
@given(table=rating_tables())
def test_partitioned_assembly_matches_driver_path(table, n_partitions):
    """Item-partitioned merge + assembly vs the single driver pass.

    Splitting pairs by left item never reorders any per-pair addition,
    so the adjacency is bit-identical to the one-partition pass at any
    partition count — and both stay within the 1e-9 contract of the
    unsharded store path.
    """
    store = MatrixRatingStore(table)
    partitioned = sharded_adjacency(store, n_shards=3, n_edge_partitions=n_partitions)
    driver = sharded_adjacency(store, n_shards=3, n_edge_partitions=1)
    assert partitioned.adjacency == driver.adjacency
    assert _max_abs_diff(partitioned.adjacency, store.build_adjacency()) < 1e-9
    assert partitioned.stats.n_edge_partitions == n_partitions
    assert len(partitioned.stats.partition_pairs) == n_partitions
    assert sum(partitioned.stats.partition_pairs) == \
        sum(driver.stats.partition_pairs)


@_numpy_id
@_common
@given(table=rating_tables())
def test_one_shard_one_partition_bit_identical(table):
    store = MatrixRatingStore(table)
    result = sharded_adjacency(store, n_shards=1, n_edge_partitions=1)
    assert result.adjacency == store.build_adjacency()


@pytest.mark.parametrize("n_partitions", [1, 3])
@_numpy_id
@_common
@given(table=rating_tables())
def test_index_selected_during_assembly(table, n_partitions):
    """The NeighborIndex rows assembled per partition are exactly the
    top-k ranking of the adjacency rows, at every partition count."""
    store = MatrixRatingStore(table)
    result = sharded_adjacency(
        store, n_shards=2, n_edge_partitions=n_partitions, with_index=True)
    assert result.index is not None
    for item, neighbors in result.adjacency.items():
        width = len(neighbors) + 1
        assert result.index.top(item, width) == top_k(neighbors, width)
        assert result.index.neighbor_dict(item) == neighbors


def test_index_not_built_unless_requested(tiny_table):
    assert sharded_adjacency(tiny_table, n_shards=2).index is None


# -- layout, stats and guards -------------------------------------------

class TestShardLayout:
    def test_layout_is_a_partition(self, tiny_table):
        store = tiny_table.matrix()
        shards = shard_user_indices(store, 3)
        flat = sorted(index for shard in shards for index in shard)
        assert flat == list(range(store.n_users))
        for shard in shards:
            assert shard == sorted(shard)

    def test_stats_cover_all_shards(self, tiny_table):
        result = sharded_adjacency(tiny_table.matrix(), n_shards=3)
        stats = result.stats
        assert stats.n_shards == 3
        assert len(stats.shard_users) == 3
        assert sum(stats.shard_users) == tiny_table.matrix().n_users
        assert len(stats.durations) == 3
        assert len(stats.shard_pairs) == 3

    def test_empty_table(self):
        result = sharded_adjacency(RatingTable().matrix(), n_shards=4)
        assert result.adjacency == {}

    def test_more_shards_than_users(self, tiny_table):
        store = tiny_table.matrix()
        result = sharded_adjacency(store, n_shards=64)
        assert _max_abs_diff(result.adjacency, store.build_adjacency()) < 1e-9

    def test_rating_table_accepted_directly(self, tiny_table):
        by_table = sharded_adjacency(tiny_table, n_shards=2)
        by_store = sharded_adjacency(tiny_table.matrix(), n_shards=2)
        assert by_table.adjacency == by_store.adjacency


class TestEnvResolution:
    def test_defaults(self, monkeypatch):
        monkeypatch.delenv("REPRO_SHARDS", raising=False)
        assert resolve_n_shards(None) == 1

    def test_env_read_when_unspecified(self, monkeypatch):
        monkeypatch.setenv("REPRO_SHARDS", "6")
        assert resolve_n_shards(None) == 6

    def test_explicit_argument_wins(self, monkeypatch):
        monkeypatch.setenv("REPRO_SHARDS", "6")
        assert resolve_n_shards(3) == 3

    def test_invalid_values_rejected(self, monkeypatch):
        monkeypatch.setenv("REPRO_SHARDS", "many")
        with pytest.raises(EngineError):
            resolve_n_shards(None)
        with pytest.raises(EngineError):
            resolve_n_shards(0)

    def test_edge_partitions_follow_shard_count_by_default(self, monkeypatch):
        monkeypatch.delenv("REPRO_EDGE_PARTITIONS", raising=False)
        assert resolve_edge_partitions(None, n_shards=1) == 1
        assert resolve_edge_partitions(None, n_shards=6) == 6

    def test_edge_partitions_env_and_argument(self, monkeypatch):
        monkeypatch.setenv("REPRO_EDGE_PARTITIONS", "3")
        assert resolve_edge_partitions(None, n_shards=6) == 3
        assert resolve_edge_partitions(5, n_shards=6) == 5
        with pytest.raises(EngineError):
            resolve_edge_partitions(0)
        monkeypatch.setenv("REPRO_EDGE_PARTITIONS", "few")
        with pytest.raises(EngineError):
            resolve_edge_partitions(None)


# -- pipeline integration -----------------------------------------------

class TestBaselinerIntegration:
    def test_env_shards_produce_equivalent_baseline(self, small_trace, monkeypatch):
        monkeypatch.delenv("REPRO_SHARDS", raising=False)
        reference = Baseliner().compute(small_trace)
        monkeypatch.setenv("REPRO_SHARDS", "4")
        sharded = Baseliner().compute(small_trace)
        assert sharded.n_homogeneous == reference.n_homogeneous
        assert sharded.n_heterogeneous == reference.n_heterogeneous
        edges_ref = {(i, j): s for i, j, s in reference.graph.edges()}
        edges_sharded = {(i, j): s for i, j, s in sharded.graph.edges()}
        assert edges_ref.keys() == edges_sharded.keys()
        for key, sim in edges_ref.items():
            assert edges_sharded[key] == pytest.approx(sim, abs=1e-9)
