"""The Eq-6 kernel (``MatrixRatingStore._accumulate``) against a naive
accumulation, bit for bit, and its memory bound.

The oracle adds Python floats one user at a time in the canonical order
(profile length ascending, user index ascending within a length), one
add per co-rating, starting from ``0.0``: the order every accumulation
promises. Keys, ``float.hex`` of the sums and the counts must match for
the full sweep (``pair_accumulation``) and for an append's delta
(``delta_pair_accumulation``, the naive sum restricted to the touched
items), at the module's budgets and at budgets small enough that one
left item's positions span several chunks and blocks cut rows apart,
on dense stores and on sparse catalogues, whose runs of left items are
summed over their own sorted cells.
"""

from __future__ import annotations

import importlib.util
import sys
import tracemalloc
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.data import matrix
from repro.data.matrix import MatrixRatingStore
from repro.data.ratings import Rating, RatingTable

_users = st.sampled_from([f"u{k}" for k in range(10)])
_items = st.sampled_from([f"i{k}" for k in range(10)])
_batch_users = st.sampled_from([f"u{k}" for k in range(13)])
_batch_items = st.sampled_from([f"i{k}" for k in range(13)])
# Full mantissas (``k / 999983`` is no dyadic fraction): a sum's bits
# then depend on the order of its addends.
_values = st.integers(0, 999_983).map(lambda k: 1.0 + 4.0 * k / 999_983)

_common = settings(max_examples=40, deadline=None,
                   suppress_health_check=[HealthCheck.too_slow])

#: (_BLOCK_CELLS, _CHUNK_PAIRS): the module's, and small enough that a
#: block holds 1–3 left items of a 10-item store and a chunk 1–3 pairs.
BUDGETS = [(matrix._BLOCK_CELLS, matrix._CHUNK_PAIRS), (16, 3), (1, 1), (30, 2)]


@st.composite
def ratings(draw, pairs=st.tuples(_users, _items), min_size=25, max_size=70,
            first_timestep=0):
    drawn = draw(st.lists(pairs, min_size=min_size, max_size=max_size, unique=True))
    return [Rating(u, i, draw(_values), timestep=first_timestep + k)
            for k, (u, i) in enumerate(drawn)]


def _naive_accumulation(store, max_profile_size=None, items=None):
    """``{(i, j): (sum hex, count)}`` over the pairs of *items* (every
    item when ``None``), Python floats added in canonical user order."""
    lengths = np.diff(store.user_ptr).tolist()
    order = sorted((length, u) for u, length in enumerate(lengths)
                   if length >= 2 and (max_profile_size is None
                                       or length <= max_profile_size))
    sums: dict[tuple[int, int], float] = {}
    counts: dict[tuple[int, int], int] = {}
    for _, u in order:
        start, end = store._user_row(u)
        row = [(i, c) for i, c in zip(store.user_item_idx[start:end].tolist(),
                                      store.user_centered[start:end].tolist())
               if items is None or i in items]
        for a, (i, ci) in enumerate(row):
            for j, cj in row[a + 1:]:
                sums[(i, j)] = sums.get((i, j), 0.0) + ci * cj
                counts[(i, j)] = counts.get((i, j), 0) + 1
    return {pair: (total.hex(), counts[pair]) for pair, total in sums.items()}


def _as_naive(store, acc):
    keys = acc.keys.tolist()
    assert keys == sorted(set(keys)), "keys must be strictly increasing"
    assert (acc.keys.dtype, acc.sums.dtype, acc.counts.dtype) == (
        np.int64, np.float64, np.int64)
    n = store.n_items
    return {(k // n, k % n): (total.hex(), count) for k, total, count in zip(
        keys, acc.sums.tolist(), acc.counts.tolist())}


def _budgets(cells, chunk):
    return mock.patch.multiple(matrix, _BLOCK_CELLS=cells, _CHUNK_PAIRS=chunk)


@pytest.mark.parametrize("cells, chunk", BUDGETS)
@_common
@given(base=ratings(), max_profile=st.sampled_from([None, 2, 3, 6]))
def test_pair_accumulation_equals_naive_sum_bit_for_bit(
        cells, chunk, base, max_profile):
    store = MatrixRatingStore(RatingTable(base))
    with _budgets(cells, chunk):
        got = _as_naive(store, store.pair_accumulation(max_profile_size=max_profile))
    assert got == _naive_accumulation(store, max_profile_size=max_profile)


@pytest.mark.parametrize("cells, chunk", BUDGETS)
@_common
@given(base=ratings(), batch=ratings(st.tuples(_batch_users, _batch_items), 1, 8, 100))
def test_delta_accumulation_equals_naive_sum_over_touched_items(
        cells, chunk, base, batch):
    new_store, delta = MatrixRatingStore(RatingTable(base)).append_ratings(batch)
    with _budgets(cells, chunk):
        got = _as_naive(new_store, new_store.delta_pair_accumulation(delta))
    assert got == _naive_accumulation(new_store, items=set(delta.touched_items))


@pytest.mark.parametrize("cells, chunk", BUDGETS)
@_common
@given(base=ratings(st.tuples(_users, st.one_of(
    st.sampled_from(["h0", "h1", "h2"]), st.sampled_from([f"t{k}" for k in range(40)])))))
def test_sparse_catalogue_accumulation_equals_naive_sum_bit_for_bit(cells, chunk, base):
    """300 lone items, each rated by a one-rating user, make far more
    dense cells than contributions: runs of whole left items are summed
    over their own sorted cells, and the head items' pairs gather
    several addends whose order shows in the bits."""
    lone = [Rating(f"f{k:03d}", f"z{k:03d}", 3.0) for k in range(300)]
    store = MatrixRatingStore(RatingTable(base + lone))
    with _budgets(cells, chunk):
        got = _as_naive(store, store.pair_accumulation())
    assert got == _naive_accumulation(store)


@pytest.mark.parametrize("cells, chunk", BUDGETS)
def test_one_rating_users_and_lone_items_add_nothing(cells, chunk):
    table = RatingTable([
        Rating("a", "i1", 4.0), Rating("a", "i2", 2.0), Rating("a", "i3", 5.0),
        Rating("b", "i1", 3.0), Rating("b", "i3", 1.0),
        Rating("c", "i4", 5.0),            # one-rating user: i4 has no co-rater
        Rating("d", "i2", 1.0), Rating("d", "i3", 4.5)])
    store = MatrixRatingStore(table)
    with _budgets(cells, chunk):
        got = _as_naive(store, store.pair_accumulation())
    assert got == _naive_accumulation(store)
    assert set(got) == {(0, 1), (0, 2), (1, 2)}
    assert got[(0, 2)][1] == 2 and got[(1, 2)][1] == 2


def test_no_eligible_user_gives_an_empty_accumulation():
    store = MatrixRatingStore(RatingTable(
        [Rating("a", "i1", 4.0), Rating("b", "i2", 2.0), Rating("c", "i1", 1.0)]))
    assert _as_naive(store, store.pair_accumulation()) == {}
    capped = MatrixRatingStore(RatingTable(
        [Rating("a", "i1", 4.0), Rating("a", "i2", 2.0), Rating("a", "i3", 1.0)]))
    assert _as_naive(capped, capped.pair_accumulation(max_profile_size=2)) == {}
    assert _as_naive(capped, capped.pair_accumulation()) == _naive_accumulation(capped)


def test_one_left_item_spans_many_chunks_in_user_order():
    """Twelve users all rate i0 and i1: i0's twelve positions are added
    into one cell a chunk at a time, still in canonical user order."""
    base = [Rating(f"u{k:02d}", item, 1.0 + (k * 7 + n) % 4 + 0.07 * k)
            for k in range(12) for n, item in enumerate(("i0", "i1", "i2")[:2 + k % 2])]
    store = MatrixRatingStore(RatingTable(base))
    with _budgets(1, 1):
        got = _as_naive(store, store.pair_accumulation())
    assert got == _naive_accumulation(store)
    assert got[(0, 1)][1] == 12


# -- memory: the freeze's accumulation stays bounded --------------------

def _golden():
    if "golden" not in sys.modules:
        script = Path(__file__).resolve().parent.parent / "scripts" / "golden.py"
        spec = importlib.util.spec_from_file_location("golden", script)
        sys.modules["golden"] = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(sys.modules["golden"])
    return sys.modules["golden"]


def test_freeze_accumulation_peak_is_bounded():
    """The ``trace_s`` fit's augmented table (``bench/``'s ``xmap_fit``
    freeze): one ``(key, value)`` pair per contribution traced 48 MB;
    the kernel holds the result plus its blocks and chunks."""
    pipeline, _ = _golden().fit("trace_s")
    store = pipeline.augmented_target.matrix()
    tracemalloc.start()
    try:
        acc = store.pair_accumulation()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert acc.n_pairs > 40_000
    assert peak <= 16 * 2**20, f"traced peak {peak / 2**20:.1f} MB"
