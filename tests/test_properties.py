"""Property-based tests (hypothesis) for the core invariants.

These generate random rating tables and random metric inputs and check
the algebraic properties the paper's formulas rely on: boundedness,
symmetry, normalization, monotone certainty decay, DP-mechanism support.
"""

from __future__ import annotations

import math

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.data.ratings import Rating, RatingTable
from repro.core.xsim import aggregate_xsim, path_certainty, path_similarity
from repro.errors import SimilarityError
from repro.evaluation.metrics import mae, rmse
from repro.privacy.mechanisms import exponential_mechanism
from repro.privacy.sensitivity import item_similarity_sensitivity
from repro.similarity.knn import top_k
from repro.similarity.significance import (
    normalized_significance,
    significance,
)

# -- strategies ---------------------------------------------------------

_users = st.sampled_from([f"u{k}" for k in range(6)])
_items = st.sampled_from([f"i{k}" for k in range(6)])
_values = st.sampled_from([1.0, 2.0, 3.0, 4.0, 5.0])


@st.composite
def rating_tables(draw, min_size=4, max_size=30):
    """Random small rating tables with unique (user, item) pairs."""
    pairs = draw(st.lists(
        st.tuples(_users, _items), min_size=min_size, max_size=max_size,
        unique=True))
    ratings = [Rating(u, i, draw(_values), timestep=k)
               for k, (u, i) in enumerate(pairs)]
    return RatingTable(ratings)


_common = settings(max_examples=40, deadline=None,
                   suppress_health_check=[HealthCheck.too_slow])


# -- similarity properties ---------------------------------------------

@_common
@given(table=rating_tables())
def test_adjusted_cosine_bounded_and_symmetric(table):
    # Eq 6 as the NeighborIndex rows hold it, both ways round.
    store = table.matrix()
    index = store.neighbor_index()
    rows = [dict(zip(*(column.tolist() for column in index.row(i))))
            for i in range(store.n_items)]
    for i, row in enumerate(rows):
        for j, sim in row.items():
            assert -1.0 <= sim <= 1.0
            assert rows[j][i] == sim


@_common
@given(table=rating_tables())
def test_pearson_users_bounded_and_symmetric(table):
    # Eq 1 from MatrixRatingStore.user_similarities, both ways round.
    store = table.matrix()
    sims = [dict(zip(*(column.tolist() for column in store.user_similarities(user))))
            for user in store.users]
    for a, row in enumerate(sims):
        assert a not in row
        for b, sim in row.items():
            assert -1.0 <= sim <= 1.0 and sim != 0.0
            assert sims[b][a] == sim


@_common
@given(table=rating_tables())
def test_significance_bounds(table):
    items = sorted(table.items)
    for a in items[:4]:
        for b in items[:4]:
            if a >= b:
                continue
            raw = significance(table, a, b)
            common = len(table.item_users(a) & table.item_users(b))
            assert 0 <= raw <= common
            normalized = normalized_significance(table, a, b)
            assert 0.0 <= normalized <= 1.0


@_common
@given(table=rating_tables())
def test_sensitivity_positive_finite(table):
    items = sorted(table.items)
    for a in items[:3]:
        for b in items[:3]:
            if a >= b:
                continue
            value = item_similarity_sensitivity(table, a, b)
            assert 0.0 < value <= 2.0
            assert math.isfinite(value)


# -- X-Sim math ---------------------------------------------------------

@_common
@given(edges=st.lists(
    st.tuples(st.floats(-1.0, 1.0), st.integers(0, 100)),
    min_size=1, max_size=6))
def test_path_similarity_within_edge_range(edges):
    try:
        value = path_similarity(edges)
    except SimilarityError:
        assert sum(sig for _, sig in edges) == 0
        return
    sims = [sim for sim, _ in edges]
    assert min(sims) - 1e-9 <= value <= max(sims) + 1e-9


@_common
@given(factors=st.lists(st.floats(0.0, 1.0), min_size=1, max_size=6))
def test_path_certainty_monotone_decreasing_in_length(factors):
    value = path_certainty(factors)
    assert 0.0 <= value <= 1.0
    for prefix in range(1, len(factors)):
        assert path_certainty(factors[:prefix]) >= value - 1e-12


@_common
@given(paths=st.lists(
    st.tuples(st.floats(-1.0, 1.0), st.floats(0.0, 1.0)),
    min_size=1, max_size=8))
def test_aggregate_xsim_is_convex_combination(paths):
    value = aggregate_xsim(paths)
    if value is None:
        assert all(c <= 0.0 for _, c in paths)
        return
    sims = [s for s, c in paths if c > 0]
    assert min(sims) - 1e-9 <= value <= max(sims) + 1e-9


# -- selection / metrics --------------------------------------------------

@_common
@given(similarities=st.dictionaries(
    st.text(min_size=1, max_size=4), st.floats(-1.0, 1.0),
    min_size=0, max_size=20), k=st.integers(0, 10))
def test_top_k_properties(similarities, k):
    chosen = top_k(similarities, k)
    assert len(chosen) <= k
    values = [v for _, v in chosen]
    assert values == sorted(values, reverse=True)
    if chosen and len(similarities) > len(chosen):
        floor = min(values)
        dropped = [v for key, v in similarities.items() if key not in dict(chosen)]
        assert all(v <= floor + 1e-12 for v in dropped)


@_common
@given(pairs=st.lists(
    st.tuples(st.floats(1.0, 5.0), st.floats(1.0, 5.0)),
    min_size=1, max_size=40))
def test_mae_rmse_bounds(pairs):
    predictions = [p for p, _ in pairs]
    truths = [t for _, t in pairs]
    error = mae(predictions, truths)
    assert 0.0 <= error <= 4.0
    assert rmse(predictions, truths) >= error - 1e-12


@_common
@given(scores=st.dictionaries(
    st.text(min_size=1, max_size=3), st.floats(-1.0, 1.0),
    min_size=1, max_size=8),
    epsilon=st.floats(0.01, 10.0))
def test_exponential_mechanism_output_in_support(scores, epsilon):
    rng = np.random.default_rng(0)
    pick = exponential_mechanism(scores, epsilon, 2.0, rng)
    assert pick in scores


# -- rating table round-trip property -------------------------------------

@_common
@given(table=rating_tables())
def test_table_derivation_conserves_ratings(table):
    users = sorted(table.users)
    half = set(users[: len(users) // 2])
    kept = table.without_users(half)
    removed = table.filter(lambda r: r.user in half)
    assert len(kept) + len(removed) == len(table)
    merged = kept.merged_with(removed)
    assert len(merged) == len(table)
