"""Equivalence tests for the interned MatrixRatingStore fast paths.

The store-backed similarity layer must match the formulas it replaces:
same values (to 1e-9), same guard semantics. These tests pit the fast
paths — the Eq-6 sweep and its ``NeighborIndex`` rows, Eq 1's
``user_similarities``, significance — against the retained
``*_reference`` and naive oracles on random tables, including the
``min_common_users`` / ``max_profile_size`` guards, and check the
store's arrays, exactly, against their definitions over the table.
"""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.data.matrix import MatrixRatingStore
from repro.data.ratings import Rating, RatingTable
from repro.errors import SimilarityError
from repro.similarity.adjusted_cosine import (
    all_pairs_adjusted_cosine,
    all_pairs_adjusted_cosine_reference,
)
from repro.similarity.significance import (
    normalized_significance,
    significance,
    significance_reference,
)

# -- strategies ---------------------------------------------------------

_users = st.sampled_from([f"u{k}" for k in range(8)])
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


_common = settings(max_examples=60, deadline=None,
                   suppress_health_check=[HealthCheck.too_slow])


def _as_pair_dict(triples):
    result = {}
    for item_i, item_j, sim in triples:
        key = (item_i, item_j) if item_i < item_j else (item_j, item_i)
        assert key not in result, f"pair {key} yielded twice"
        result[key] = sim
    return result


# -- all-pairs equivalence (the tentpole's correctness contract) --------

@_common
@given(table=rating_tables(),
       min_common=st.integers(1, 3),
       max_profile=st.sampled_from([None, 2, 3, 5]))
def test_all_pairs_matches_reference_with_guards(table, min_common, max_profile):
    fast = _as_pair_dict(all_pairs_adjusted_cosine(
        table, min_common_users=min_common, max_profile_size=max_profile))
    reference = _as_pair_dict(all_pairs_adjusted_cosine_reference(
        table, min_common_users=min_common, max_profile_size=max_profile))
    for key in fast.keys() | reference.keys():
        assert fast.get(key, 0.0) == pytest.approx(
            reference.get(key, 0.0), abs=1e-9), key


@_common
@given(table=rating_tables())
def test_store_arrays_match_table_oracle(table):
    """Exact: fsum rounds once whatever the order, centering is one IEEE op."""
    store = MatrixRatingStore(table)
    users, items = store.users, store.items
    assert (users, items) == (sorted(table.users), sorted(table.items))
    u_mean = [math.fsum(r.value for r in table.user_profile(u).values())
              / len(table.user_profile(u)) for u in users]
    i_mean = [math.fsum(r.value for r in table.item_profile(i).values())
              / len(table.item_profile(i)) for i in items]
    assert (store.user_means.tolist(), store.item_means.tolist()) == (u_mean, i_mean)
    for k, user in enumerate(users):  # CSR rows: ascending and complete
        row = store.user_item_idx[slice(*store._user_row(k))].tolist()
        assert [items[j] for j in row] == sorted(table.user_profile(user))
        eq1 = [table.value(user, items[j]) - i_mean[j] for j in row]
        assert store.user_item_centered[slice(*store._user_row(k))].tolist() == eq1
        assert store.user_item_centered_norms[k] == math.sqrt(
            math.fsum(c * c for c in eq1))
    for k, item in enumerate(items):  # CSC columns: ascending and complete
        col = store.item_user_idx[slice(*store._item_col(k))].tolist()
        assert [users[u] for u in col] == sorted(table.item_profile(item))
        values = [table.value(users[u], item) for u in col]
        assert store.item_values[slice(*store._item_col(k))].tolist() == values
        assert store.item_likes[slice(*store._item_col(k))].tolist() == [
            v >= i_mean[k] for v in values]
        centered = [v - u_mean[u] for v, u in zip(values, col)]
        assert store.item_centered[slice(*store._item_col(k))].tolist() == centered
        assert store.item_centered_norms[k] == math.sqrt(
            math.fsum(c * c for c in centered))


@_common
@given(table=rating_tables())
def test_all_pairs_yields_sorted_pairs_once(table):
    triples = list(all_pairs_adjusted_cosine(table))
    keys = [(i, j) for i, j, _ in triples]
    assert all(i < j for i, j in keys)
    assert keys == sorted(keys)
    assert len(keys) == len(set(keys))


# -- single-pair metric equivalence -------------------------------------

@_common
@given(table=rating_tables())
def test_single_pair_metrics_match_naive(table):
    store = table.matrix()
    index = store.neighbor_index()
    items = sorted(table.items)[:5]
    for a in items:
        ids, weights = index.row(store.item_index[a])
        row = {store.items[j]: w for j, w in zip(ids.tolist(), weights.tolist())}
        for b in items:
            if a == b:
                continue
            assert significance(table, a, b) == significance_reference(table, a, b)
            # An index row holds every nonzero Eq-6 neighbor; no entry is 0.
            assert row.get(b, 0.0) == pytest.approx(
                _naive_adjusted_cosine(table, a, b), abs=1e-9)
    for a in sorted(table.users)[:5]:
        others, sims = store.user_similarities(a)
        assert others.tolist() == sorted(set(others.tolist()))
        got = {store.users[o]: sim for o, sim in zip(others.tolist(), sims.tolist())}
        assert a not in got
        for b in table.users - {a}:
            assert got.get(b, 0.0) == pytest.approx(
                _naive_pearson_users(table, a, b), abs=1e-9)


@_common
@given(table=rating_tables())
def test_normalized_significance_matches_union_formula(table):
    items = sorted(table.items)[:5]
    for a in items:
        for b in items:
            if a >= b:
                continue
            union = len(table.item_users(a) | table.item_users(b))
            assert normalized_significance(table, a, b) == pytest.approx(
                significance_reference(table, a, b) / union)


@_common
@given(table=rating_tables())
def test_edge_significance_equals_the_per_pair_lookups(table):
    store = table.matrix()
    names = store.items + ["never-rated"]
    ids = list(range(len(store.items))) + [-1]
    # Every ordered pair, self-pairs and an unknown item (index −1)
    # included; a pair of two unknowns has no raters at all and raises
    # on both paths, so it is left out here and pinned below.
    pairs = [(a, b) for a in range(len(ids)) for b in range(len(ids))
             if ids[a] >= 0 or ids[b] >= 0]
    left = np.asarray([ids[a] for a, _ in pairs])
    right = np.asarray([ids[b] for _, b in pairs])
    raw, normalized = store.edge_significance(left, right)
    assert raw.tolist() == [
        store.significance(names[a], names[b]) for a, b in pairs]
    assert normalized.tolist() == [
        store.normalized_significance(names[a], names[b]) for a, b in pairs]
    with pytest.raises(SimilarityError):
        store.edge_significance(np.asarray([-1]), np.asarray([-1]))
    empty = store.edge_significance(left[:0], right[:0])
    assert [len(column) for column in empty] == [0, 0]


# -- naive oracles (straight transcriptions of the formulas) ------------

def _naive_adjusted_cosine(table, item_i, item_j):
    common = table.item_users(item_i) & table.item_users(item_j)
    numerator = math.fsum(
        (table.value(u, item_i) - table.user_mean(u))
        * (table.value(u, item_j) - table.user_mean(u)) for u in common)
    norms = 1.0
    for item in (item_i, item_j):
        norms *= math.sqrt(math.fsum(
            (r.value - table.user_mean(u)) ** 2
            for u, r in table.item_profile(item).items()))
    if numerator == 0.0 or norms == 0.0:
        return 0.0
    return max(-1.0, min(1.0, numerator / norms))


def _naive_pearson_users(table, user_a, user_b):
    common = table.user_items(user_a) & table.user_items(user_b)
    numerator = math.fsum(
        (table.value(user_a, i) - table.item_mean(i))
        * (table.value(user_b, i) - table.item_mean(i)) for i in common)
    if numerator == 0.0:
        return 0.0
    denom = 1.0
    for user in (user_a, user_b):
        denom *= math.sqrt(math.fsum(
            (r.value - table.item_mean(i)) ** 2
            for i, r in table.user_profile(user).items()))
    if denom == 0.0:
        return 0.0
    return max(-1.0, min(1.0, numerator / denom))


# -- store construction & guard semantics -------------------------------

class TestStoreBasics:
    def test_interning_is_sorted_and_deterministic(self, tiny_table):
        store = tiny_table.matrix()
        assert store.users == sorted(tiny_table.users)
        assert store.items == sorted(tiny_table.items)
        assert store.n_ratings == len(tiny_table)

    def test_matrix_is_memoized(self, tiny_table):
        assert tiny_table.matrix() is tiny_table.matrix()

    def test_means_match_table(self, tiny_table):
        store = tiny_table.matrix()
        for k, user in enumerate(store.users):
            assert store.user_means[k] == tiny_table.user_mean(user)
        for k, item in enumerate(store.items):
            assert store.item_means[k] == tiny_table.item_mean(item)
        assert store.global_mean == tiny_table.global_mean()

    def test_empty_table(self):
        store = RatingTable().matrix()
        assert store.n_users == 0
        assert store.n_items == 0
        assert list(store.all_pairs_adjusted_cosine()) == []

    def test_unknown_items_behave_like_reference(self, tiny_table):
        assert significance(tiny_table, "nope", "nada") == 0
        # One known item: union is nonempty, significance is 0.
        assert normalized_significance(tiny_table, "a", "nope") == 0.0
        with pytest.raises(SimilarityError):
            normalized_significance(RatingTable(), "x", "y")

    def test_unknown_users_pearson_zero(self, tiny_table):
        store = tiny_table.matrix()
        others, _ = store.user_similarities("u1")
        assert len(others) and store.user_index.get("ghost") is None
        assert [len(column) for column in store.user_similarities("ghost")] == [0, 0]


class TestGraphBulkAndTopK:
    def test_add_edges_rejects_self_loop(self):
        # The bulk builder is ItemGraph.from_edges.
        from repro.errors import GraphError
        from repro.similarity.graph import ItemGraph
        with pytest.raises(GraphError):
            ItemGraph.from_edges("ab", [("a", "b", 0.5), ("a", "a", 1.0)])

    def test_top_neighbors_accepts_frozenset(self):
        from repro.similarity.graph import ItemGraph
        graph = ItemGraph.from_edges(
            "qabc", [("q", "a", 0.9), ("q", "b", 0.8), ("q", "c", 0.7)])
        members = frozenset({"b", "c"})
        assert graph.top_neighbors("q", 2, among=members) == [("b", 0.8), ("c", 0.7)]

    def test_top_k_accepts_pair_iterable(self):
        from repro.similarity.knn import top_k
        pairs = [("a", 0.5), ("c", 0.9), ("b", 0.5)]
        assert top_k(pairs, 2) == [("c", 0.9), ("a", 0.5)]
        assert top_k(iter(pairs), 2, exclude=frozenset({"c"})) == [
            ("a", 0.5), ("b", 0.5)]
