"""A column-backed ``RatingTable`` against the object-built one.

``RatingTable.from_columns`` holds arrays and builds the dict views on
first read; the constructor over the same rows is the oracle. Stores
compare with ``==`` on every array.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.pipeline import NXMapRecommender, XMapConfig
from repro.data.matrix import MatrixRatingStore
from repro.data.ratings import Rating, RatingColumns, RatingTable
from repro.errors import DataError
from repro.obs import get_registry
from repro.serving.snapshot import STORE_ARRAY_NAMES

_USERS = [f"u{k}" for k in range(6)]
_ITEMS = [f"i{k}" for k in range(6)]
_VALUES = st.sampled_from([1.0, 2.3, 3.1, 4.7, 5.0])


def _columns(rows, users=None, items=None) -> RatingColumns:
    """*rows* interned over the given id orders (default: reversed
    sorted — neither row order nor the store's sorted rank)."""
    users = users or sorted({user for user, *_ in rows}, reverse=True)
    items = items or sorted({item for _, item, *_ in rows}, reverse=True)
    return RatingColumns(
        users, items,
        np.asarray([users.index(user) for user, *_ in rows], dtype=np.int64),
        np.asarray([items.index(item) for _, item, *_ in rows], dtype=np.int64),
        np.asarray([value for *_, value, _ in rows], dtype=np.float64),
        np.asarray([timestep for *_, timestep in rows], dtype=np.int64))


def _views_built() -> int:
    return get_registry().counter("rating_table_views_built_total").value


def _view_seconds() -> float:
    return get_registry().counter("rating_table_view_build_seconds_total").value


def _rows(table):
    return [(r.user, r.item, r.value, r.timestep) for r in table]


def assert_stores_equal(got: MatrixRatingStore, want: MatrixRatingStore) -> None:
    assert got.users == want.users
    assert got.items == want.items
    assert got.global_mean == want.global_mean
    for name in STORE_ARRAY_NAMES:
        assert getattr(got, name).tolist() == getattr(want, name).tolist(), name


@st.composite
def rating_rows(draw, max_size=24):
    pairs = draw(st.lists(
        st.tuples(st.sampled_from(_USERS), st.sampled_from(_ITEMS)),
        unique=True, max_size=max_size))
    return [(user, item, draw(_VALUES), draw(st.integers(-9, 9)))
            for user, item in pairs]


@settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(rows=rating_rows(), batch=rating_rows(max_size=8))
def test_column_backed_table_equals_the_object_built_one(rows, batch):
    want = RatingTable([Rating(*row) for row in rows])
    table = RatingTable.from_columns(_columns(rows))
    built = _views_built()
    assert len(table) == len(want)
    assert table.scale == want.scale
    # The store reads the columns, not the views — and equals the one
    # built from the table's own Rating objects.
    assert_stores_equal(table.matrix(), MatrixRatingStore(want))
    assert _views_built() == built
    assert_stores_equal(table.matrix(), MatrixRatingStore(RatingTable(list(table))))
    assert _views_built() == built + 1
    assert table.users == want.users
    assert table.items == want.items
    assert _rows(table) == _rows(want)
    for user in _USERS:
        assert list(table.user_profile(user).items()) == list(
            want.user_profile(user).items())
        for item in _ITEMS:
            assert table.get(user, item) == want.get(user, item)
            assert ((user, item) in table) == ((user, item) in want)
    for item in _ITEMS:
        assert list(table.item_profile(item).items()) == list(
            want.item_profile(item).items())
    for user, item, value, _ in rows:
        assert table.value(user, item) == value
    assert table.global_mean() == want.global_mean()
    # Derivation over it: the small-batch and the re-merge branch of
    # with_ratings (the batch alone, then four times over), merged_with.
    extra = [Rating(*row) for row in batch]
    assert _rows(table.with_ratings(extra)) == _rows(want.with_ratings(extra))
    wide = [Rating(f"w{k}", "i0", 3.0, k) for k in range(len(rows))]
    assert _rows(table.with_ratings(wide)) == _rows(want.with_ratings(wide))
    fresh = RatingTable([r for r in extra if (r.user, r.item) not in want])
    merged = table.merged_with(fresh)
    assert _rows(merged) == _rows(want.merged_with(fresh))
    assert_stores_equal(merged.matrix(), MatrixRatingStore(merged))
    assert _views_built() == built + 1


def test_object_built_table_yields_its_columns_in_iteration_order(tiny_table):
    columns = tiny_table.columns()
    assert _rows(RatingTable.from_columns(columns)) == _rows(tiny_table)
    assert list(columns.users) == ["u1", "u2", "u3", "u4"]
    assert columns.timesteps.tolist() == [r.timestep for r in tiny_table]


def _error_of(build) -> str:
    with pytest.raises(DataError) as caught:
        build()
    return str(caught.value)


@pytest.mark.parametrize("rows", [
    [("u", "a", 3.0, 0), ("v", "a", 5.5, 1), ("u", "b", 0.5, 2)],
    [("u", "a", 3.0, 0), ("v", "a", float("nan"), 1)],
    [("u", "a", 3.0, 0), ("v", "b", 2.0, 1), ("u", "a", 4.0, 2), ("v", "b", 1.0, 3)],
    # Whichever comes first in row order is the one reported.
    [("u", "a", 3.0, 0), ("u", "a", 4.0, 1), ("v", "a", 9.0, 2)],
    [("u", "a", 3.0, 0), ("v", "a", 9.0, 1), ("u", "a", 4.0, 2)],
    [("u", "a", 3.0, 0), ("u", "a", 9.0, 1)],
], ids=["scale", "nan", "duplicate", "duplicate-first", "scale-first", "both"])
def test_vectorised_checks_raise_the_constructors_error(rows):
    want = _error_of(lambda: RatingTable([Rating(*row) for row in rows]))
    assert _error_of(lambda: RatingTable.from_columns(_columns(rows))) == want


def test_from_columns_refuses_an_inverted_scale():
    with pytest.raises(DataError, match="scale"):
        RatingTable.from_columns(_columns([]), scale=(5.0, 1.0))


def test_fit_snapshot_save_leave_the_views_unbuilt(small_split, tmp_path):
    built, seconds = _views_built(), _view_seconds()
    pipeline = NXMapRecommender(XMapConfig(mode="item")).fit(small_split.train)
    augmented = pipeline.augmented_target
    assert len(augmented) > len(small_split.train.target.ratings)
    pipeline.snapshot().save(tmp_path / "model")
    assert _views_built() == built
    assert _view_seconds() == seconds
    # predict on the un-snapshotted pipeline reads item means and the
    # user's profile: that builds the views, once, and is counted.
    user, item, _ = small_split.hidden_pairs()[0]
    pipeline.predict(user, item)
    pipeline.predict(user, item)
    assert _views_built() == built + 1
    assert _view_seconds() > seconds
