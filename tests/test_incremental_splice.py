"""The entry-level splice behind ``IncrementalSweep.update``.

Three implementations must agree after every batch: the splice
(:meth:`MatrixRatingStore.splice_row_refresh` — re-rank only the entries
with a touched endpoint, merge them into the kept ones), the whole-row
reference (:meth:`MatrixRatingStore.assemble_row_refresh` — every
affected row re-assembled whole) and a fresh build over the final table.
Equality is exact: accumulation and adjacency by ``==``, ``ptr`` /
``neighbor_ids`` / ``weights`` bit for bit, and the per-update
``affected_items`` and edge census.

The small tables of ``tests/test_incremental.py`` mostly re-rank every
affected row whole; the ``amazon_like`` tables here are large enough
that one update keeps most entries of its affected rows.
"""

from __future__ import annotations

import functools
import random

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.data.ratings import Rating, RatingTable
from repro.data.synthetic import SyntheticConfig, amazon_like
from repro.engine.sharded_sweep import IncrementalSweep
from repro.obs.metrics import get_registry
from test_incremental import _acc_tuple, _index_tuple, assert_stores_equal

_SHAPES = ((40, 45, 8, 5.0), (70, 60, 10, 7.0))


@functools.lru_cache(maxsize=None)
def _table(seed: int, shape: int) -> RatingTable:
    n_users, n_items, n_overlap, ratings_per_user = _SHAPES[shape]
    return amazon_like(SyntheticConfig(
        n_users_source=n_users, n_users_target=n_users, n_overlap=n_overlap,
        n_items_source=n_items, n_items_target=n_items - 2,
        ratings_per_user=ratings_per_user, min_ratings_per_user=2,
        seed=seed)).merged()


def _reference_sweep(table, **kwargs) -> IncrementalSweep:
    """A sweep pinned to the whole-row reference refresh."""
    sweep = IncrementalSweep(table, **kwargs)
    sweep._refresh = sweep._refresh_whole_rows
    return sweep


def _run_and_compare(table, batches, **kwargs):
    """Push *batches* through a splicing sweep and a reference sweep in
    lockstep, compare every update's report, then both against a fresh
    build. Returns the splicing sweep's per-update stats."""
    spliced = IncrementalSweep(table, **kwargs)
    reference = _reference_sweep(table, **kwargs)
    all_stats = []
    for batch in batches:
        got = spliced.update(batch)
        want = reference.update(batch)
        assert got.affected_items == want.affected_items
        assert got.n_affected_rows == want.n_affected_rows
        assert got.edges_added == want.edges_added
        assert got.edges_removed == want.edges_removed
        assert got.n_changed_entries <= want.n_changed_entries
        table = table.with_ratings(batch)
        all_stats.append(got)
    fresh = IncrementalSweep(RatingTable(list(table)), **kwargs)
    for sweep in (spliced, reference):
        assert_stores_equal(sweep.store, fresh.store)
        assert _acc_tuple(sweep.store, sweep.accumulation) == \
            _acc_tuple(fresh.store, fresh.accumulation)
        assert _index_tuple(sweep.index) == _index_tuple(fresh.index)
        assert sweep.graph.index is sweep.index
    return all_stats


def _draw_batch(rng: random.Random, table: RatingTable, size: int) -> list[Rating]:
    """Ratings by head, tail and brand-new users over head, tail and
    brand-new items; new item ids sort *between* existing ones."""
    users = sorted(table.users, key=lambda u: (-len(table.user_profile(u)), u))
    items = sorted(table.items, key=lambda i: (-len(table.item_profile(i)), i))
    user_pool = users[:3] + users[-3:] + ["n%03d" % rng.randrange(2), "zz-new"]
    item_pool = items[:4] + items[len(items) // 2:][:6] + items[-4:] \
        + [rng.choice(items) + "x", "a-first"]
    batch = {}
    for k in range(size):
        pair = rng.choice(user_pool), rng.choice(item_pool)
        batch[pair] = Rating(*pair, float(rng.randint(1, 5)), timestep=10_000 + k)
    return list(batch.values())


@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(seed=st.integers(0, 3), shape=st.integers(0, len(_SHAPES) - 1),
       batch_seed=st.integers(0, 10_000),
       sizes=st.lists(st.integers(1, 8), min_size=1, max_size=3),
       min_common_users=st.sampled_from([1, 2]),
       min_abs_similarity=st.sampled_from([0.0, 0.25]))
def test_splice_equals_reference_equals_rebuild(
        seed, shape, batch_seed, sizes, min_common_users, min_abs_similarity):
    table = _table(seed, shape)
    rng = random.Random(batch_seed)
    batches = []
    grown = table
    for size in sizes:
        batches.append(_draw_batch(rng, grown, size))
        grown = grown.with_ratings(batches[-1])
    _run_and_compare(
        table, batches,
        min_common_users=min_common_users,
        min_abs_similarity=min_abs_similarity)


@pytest.mark.parametrize("shape", range(len(_SHAPES)))
def test_one_head_update_reranks_part_of_the_index(shape):
    """A head user re-rating one item moves their mean, so every item
    they rated is touched; their partners are affected too, yet only
    the touched-endpoint entries are re-ranked — and the counter says
    so."""
    table = _table(1, shape)
    head = min(table.users, key=lambda u: (-len(table.user_profile(u)), u))
    batch = [Rating(head, min(table.user_profile(head)), 1.0, timestep=9_000)]
    entries = get_registry().counter("incremental_entries_changed_total")
    before = entries.value
    # Both sweeps of _run_and_compare feed the registry: the reference
    # counts every affected row's entries as placed.
    [stats] = _run_and_compare(table, [batch])
    assert stats.n_touched_items == len(table.user_profile(head))
    assert stats.n_touched_items < stats.n_affected_rows
    assert 0 < stats.n_changed_entries < IncrementalSweep(
        table.with_ratings(batch)).index.n_entries
    assert entries.value - before > stats.n_changed_entries


# -- the fold's and splice's branches and slice edges -------------------

def _branch_batches(name: str, table: RatingTable) -> list[list[Rating]]:
    items = sorted(table.items)
    users = sorted(table.users, key=lambda u: (len(table.user_profile(u)), u))
    tail, head = users[0], users[-1]
    unrated = [i for i in items if i not in table.user_profile(tail)]
    if name == "no_new_item":  # the identity item map: what bench/ runs
        return [[Rating("n-new", i, 4.0) for i in unrated[:4]]
                + [Rating(tail, unrated[-1], 2.0)]]
    if name == "new_items_mid_and_both_ends":
        mid = items[len(items) // 2] + "x"
        return [[Rating(head, "0-first", 5.0), Rating(head, mid, 1.0),
                 Rating(head, "zz-last", 3.0), Rating("n-new", "0-first", 2.0),
                 Rating("n-new", "zz-last", 4.0), Rating("n-new", items[3], 5.0)]]
    if name == "replacements_only":
        return [[Rating(head, i, table.value(head, i) % 5 + 1)
                 for i in sorted(table.user_profile(head))[:3]]]
    # Item 0 and the last item co-rated, then both touched again: the
    # pair's key, 0·n + (n − 1), is the last one in item 0's key slice.
    return [[Rating(tail, items[0], 5.0), Rating(tail, items[-1], 1.0)],
            [Rating("n-new", items[0], 2.0), Rating("n-new", items[-1], 4.0)]]


@pytest.mark.parametrize("name", ["no_new_item", "new_items_mid_and_both_ends",
                                  "replacements_only", "first_and_last_item"])
@pytest.mark.parametrize("shape", range(len(_SHAPES)))
def test_fold_and_splice_branches(name, shape):
    """Fold == full accumulation and splice == whole-row reference ==
    rebuild (all checked by ``_run_and_compare``) on each branch."""
    table = _table(2, shape)
    batches = _branch_batches(name, table)
    stats = _run_and_compare(table, batches)
    items = sorted(table.items)
    assert stats[-1].n_new_items == (3 if name == "new_items_mid_and_both_ends" else 0)
    if name == "replacements_only":
        assert stats[-1].n_new_users == 0
        assert len(table.with_ratings(batches[0])) == len(table)
    if name == "first_and_last_item":
        assert {items[0], items[-1]} <= set(stats[-1].affected_items)
    assert all(s.n_changed_entries > 0 for s in stats)


# -- hand-built cases ---------------------------------------------------

def _ratings(spec: dict[str, dict[str, float]]) -> list[Rating]:
    return [Rating(user, item, value)
            for user, profile in spec.items() for item, value in profile.items()]


def test_zero_numerator_drops_an_edge_and_a_rows_last_entry():
    # u1 centers a, b at +1, -1 (numerator -1); the batch's u2 centers
    # them at +1, +1 (and c at -2), so the a-b numerator lands on 0.0.
    base = _ratings({"u1": {"a": 5.0, "b": 3.0}})
    batch = _ratings({"u2": {"a": 4.0, "b": 4.0, "c": 1.0}})
    [stats] = _run_and_compare(RatingTable(base), [batch])
    assert stats.edges_removed == (("a", "b"),)
    assert stats.edges_added == (("a", "c"), ("b", "c"))
    # Two co-raters each way and a two-co-rater floor: the third items
    # form no edge, so a and b each lose their last entry.
    base = _ratings({"u0": {"a": 5.0, "b": 3.0}, "u1": {"a": 5.0, "b": 3.0}})
    batch = _ratings({"u2": {"a": 4.0, "b": 4.0, "y": 1.0},
                      "u3": {"a": 4.0, "b": 4.0, "z": 1.0}})
    sweep = IncrementalSweep(RatingTable(base), min_common_users=2)
    assert list(sweep.graph.neighbors("a")) == ["b"]
    [stats] = _run_and_compare(RatingTable(base), [batch], min_common_users=2)
    assert stats.edges_removed == (("a", "b"),)
    assert stats.edges_added == ()
    sweep.update(batch)
    assert sweep.graph.n_edges() == 0 and sweep.index.n_entries == 0


def test_threshold_drop_empties_an_untouched_row():
    """``min_abs_similarity``: a new rater grows t's norm, x-t falls
    under the floor, and x — untouched, its entry to t dropped — loses
    its only neighbor."""
    base = _ratings({"u1": {"t": 5.0, "x": 3.0}, "u2": {"p": 5.0, "q": 1.0, "r": 2.0}})
    batch = _ratings({"u3": {"t": 1.0, "p": 5.0}})
    sweep = IncrementalSweep(RatingTable(base), min_abs_similarity=0.5)
    assert sweep.graph.neighbors("x") == {"t": -1.0}
    [stats] = _run_and_compare(RatingTable(base), [batch], min_abs_similarity=0.5)
    assert ("t", "x") in stats.edges_removed
    assert "x" in stats.affected_items
    sweep.update(batch)
    assert sweep.graph.neighbors("x") == {}
    assert sweep.index.degree("x") == 0


def test_new_items_mid_alphabet_remap_kept_entries():
    """Items interned between existing ones shift every later index;
    kept entries must come out remapped, still rank-ordered."""
    base = _ratings({
        "u1": {"c": 5.0, "e": 1.0, "g": 4.0, "i": 2.0},
        "u2": {"c": 2.0, "e": 4.0, "g": 5.0},
        "u3": {"k": 5.0, "m": 1.0, "o": 3.0},
        "u4": {"k": 1.0, "m": 4.0, "o": 5.0, "q": 2.0}})
    batch = _ratings({"new": {"b": 4.0, "d": 2.0, "k": 5.0, "n": 1.0}})
    [stats] = _run_and_compare(RatingTable(base), [batch])
    assert stats.n_new_items == 3
    # c/e/g/i are outside the blast radius; m/o/q are partners of k.
    assert stats.affected_items == ("b", "d", "k", "m", "n", "o", "q")


def test_equal_weights_merge_in_id_order():
    """One co-rater gives every pair weight ±1.0 exactly. q is touched
    by a rating that leaves its norm alone, so x→q is dropped and placed
    again at 1.0 — between the kept x→p and x→r, by id."""
    base = _ratings({
        "u1": {"p": 5.0, "q": 5.0, "r": 5.0, "x": 5.0, "y": 1.0},
        "u2": {"z": 3.0, "zz": 3.0}})
    batch = _ratings({"u2": {"q": 3.0}})  # u2's mean stays 3: centered 0
    sweep = IncrementalSweep(RatingTable(base))
    [stats] = _run_and_compare(RatingTable(base), [batch])
    sweep.update(batch)
    assert sweep.index.top("x", 4) == [("p", 1.0), ("q", 1.0), ("r", 1.0), ("y", -1.0)]
    assert stats.edges_added == stats.edges_removed == ()


def test_item_without_a_prior_row_gains_one():
    """An isolated vertex (its only rater rated nothing else) and a
    brand-new item both start from an empty row."""
    base = _ratings({"u1": {"a": 5.0, "b": 1.0}, "u2": {"lone": 4.0}})
    batch = _ratings({"u2": {"a": 2.0, "fresh": 5.0}})
    [stats] = _run_and_compare(RatingTable(base), [batch])
    assert set(stats.edges_added) == {("a", "fresh"), ("a", "lone"), ("fresh", "lone")}


def test_empty_batch_and_empty_base():
    table = RatingTable(_ratings({"u1": {"a": 5.0, "b": 1.0}}))
    [stats] = _run_and_compare(table, [[]])
    assert stats.affected_items == () and stats.n_changed_entries == 0
    _run_and_compare(RatingTable(), [_ratings({"u1": {"a": 5.0, "b": 1.0}})])
