"""The incremental update path: append a rating batch without rebuilds.

The equality contract under test, at every layer: appending a batch
through the incremental machinery produces **the same object a full
rebuild would** — bit-identical store arrays, accumulations, adjacency
and serving-index rows. Batches cover
the hard cases: new users, new items, ratings from existing users, and
value overrides of existing (user, item) pairs.
"""

from __future__ import annotations

import random

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.alterego import AlterEgoGenerator, OnlineAlterEgoUpdater
from repro.core.baseliner import Baseliner
from repro.data.dataset import CrossDomainDataset, Dataset
from repro.data.matrix import MatrixRatingStore
from repro.data.ratings import Rating, RatingTable
from repro.engine.sharded_sweep import IncrementalSweep
from repro.errors import ConfigError

# -- strategies ---------------------------------------------------------

_users = st.sampled_from([f"u{k}" for k in range(8)])
_items = st.sampled_from([f"i{k}" for k in range(8)])
# Batches draw from a superset so they introduce new users and items.
_batch_users = st.sampled_from([f"u{k}" for k in range(11)])
_batch_items = st.sampled_from([f"i{k}" for k in range(11)])
_values = st.sampled_from([1.0, 1.5, 2.0, 3.0, 4.0, 4.5, 5.0])


@st.composite
def base_and_batch(draw, min_base=2, max_base=30, max_batch=6):
    """A random base table plus an append batch that may add new users,
    new items, ratings from existing users, and value overrides."""
    pairs = draw(st.lists(
        st.tuples(_users, _items), min_size=min_base, max_size=max_base,
        unique=True))
    base = [Rating(u, i, draw(_values), timestep=k) for k, (u, i) in enumerate(pairs)]
    batch_pairs = draw(st.lists(
        st.tuples(_batch_users, _batch_items), min_size=1,
        max_size=max_batch, unique=True))
    batch = [Rating(u, i, draw(_values), timestep=100 + k)
             for k, (u, i) in enumerate(batch_pairs)]
    return base, batch


_common = settings(max_examples=50, deadline=None,
                   suppress_health_check=[HealthCheck.too_slow])

_STORE_ARRAYS = (
    "user_means", "item_means", "user_ptr", "user_item_idx", "user_values",
    "user_centered", "user_item_centered", "user_item_centered_norms",
    "item_ptr", "item_user_idx", "item_values", "item_centered",
    "item_likes", "item_centered_norms", "item_raw_norms")


def _aslist(values):
    return values.tolist()


def assert_stores_equal(appended: MatrixRatingStore,
                        rebuilt: MatrixRatingStore) -> None:
    """Bit-identical equality over every interning and derived array."""
    assert appended.users == rebuilt.users
    assert appended.items == rebuilt.items
    assert appended.user_index == rebuilt.user_index
    assert appended.item_index == rebuilt.item_index
    assert appended.n_ratings == rebuilt.n_ratings
    assert appended.global_mean == rebuilt.global_mean
    for name in _STORE_ARRAYS:
        got = _aslist(getattr(appended, name))
        want = _aslist(getattr(rebuilt, name))
        assert got == want, name


def _acc_tuple(store, acc):
    """Canonical (keys, sums, counts) view of an accumulation — float
    equality is exact, so == means bit-identical."""
    return acc.keys.tolist(), acc.sums.tolist(), acc.counts.tolist()


def _index_tuple(index):
    if index is None:
        return None
    return (list(index.items), _aslist(index.ptr),
            _aslist(index.neighbor_ids), _aslist(index.weights))


# -- store append == rebuild (the tentpole's base contract) -------------

@_common
@given(data=base_and_batch())
def test_append_ratings_equals_rebuild(data):
    base, batch = data
    table = RatingTable(base)
    appended, delta = MatrixRatingStore(table).append_ratings(batch)
    rebuilt = MatrixRatingStore(table.with_ratings(batch))
    assert_stores_equal(appended, rebuilt)
    # The delta's interning maps are consistent with the new store.
    for old_idx, name in enumerate(sorted(table.items)):
        assert appended.items[delta.item_map[old_idx]] == name
    for old_idx, name in enumerate(sorted(table.users)):
        assert appended.users[delta.user_map[old_idx]] == name


def test_append_to_empty_store():
    table = RatingTable()
    batch = [Rating("u", "a", 3.0, 0), Rating("v", "a", 5.0, 1)]
    appended, delta = MatrixRatingStore(table).append_ratings(batch)
    assert_stores_equal(appended, MatrixRatingStore(table.with_ratings(batch)))
    assert delta.new_users == ("u", "v")
    assert delta.new_items == ("a",)


def test_empty_batch_is_identity(tiny_table):
    store = MatrixRatingStore(tiny_table)
    appended, delta = store.append_ratings([])
    assert_stores_equal(appended, store)
    assert delta.touched_users == []
    assert delta.touched_items == []


# -- delta accumulation fold == full sweep ------------------------------

@_common
@given(data=base_and_batch())
def test_delta_fold_equals_full_accumulation(data):
    base, batch = data
    store = MatrixRatingStore(RatingTable(base))
    old_acc = store.pair_accumulation()
    new_store, delta = store.append_ratings(batch)
    delta_acc = new_store.delta_pair_accumulation(delta)
    folded = new_store.apply_accumulation_delta(old_acc, delta_acc, delta)
    fresh = new_store.pair_accumulation()
    assert _acc_tuple(new_store, folded) == _acc_tuple(new_store, fresh)


# -- end to end: IncrementalSweep.update == fresh build -----------------

def test_sweep_update_equals_rebuild():
    rng = random.Random(7)
    base, pairs = [], set()
    for _ in range(60):
        user, item = f"u{rng.randint(0, 11)}", f"i{rng.randint(0, 11)}"
        if (user, item) in pairs:
            continue
        pairs.add((user, item))
        base.append(Rating(user, item, float(rng.randint(1, 5))))
    sweep = IncrementalSweep(RatingTable(base))
    table = RatingTable(base)
    for round_ in range(3):
        batch = [Rating(f"u{rng.randint(0, 13)}", f"i{rng.randint(0, 13)}",
                        float(rng.randint(1, 5)), timestep=round_)
                 for _ in range(rng.randint(1, 5))]
        sweep.update(batch)
        table = table.with_ratings(batch)
    fresh = IncrementalSweep(RatingTable(list(table)))
    assert_stores_equal(sweep.store, fresh.store)
    assert _acc_tuple(sweep.store, sweep.accumulation) == \
        _acc_tuple(fresh.store, fresh.accumulation)
    assert sweep.graph._adjacency == fresh.graph._adjacency
    assert _index_tuple(sweep.index) == _index_tuple(fresh.index)


def test_update_reports_edge_census():
    base = [Rating("u1", "a", 5.0), Rating("u1", "b", 3.0),
            Rating("u2", "b", 4.0), Rating("u2", "c", 2.0)]
    sweep = IncrementalSweep(RatingTable(base))
    before = {frozenset(edge) for edge in ((i, j) for i, j, _ in sweep.graph.edges())}
    stats = sweep.update([Rating("u3", "a", 4.0), Rating("u3", "c", 5.0)])
    after = {frozenset(edge) for edge in ((i, j) for i, j, _ in sweep.graph.edges())}
    added = {frozenset(edge) for edge in stats.edges_added}
    removed = {frozenset(edge) for edge in stats.edges_removed}
    assert after - before == added
    assert before - after == removed
    assert frozenset(("a", "c")) in added


# -- the table-level delta handoff --------------------------------------

class TestDeltaHandoff:
    def _base(self):
        rng = random.Random(3)
        ratings = list({(r.user, r.item): r for r in (
            Rating(f"u{rng.randint(0, 7)}", f"i{rng.randint(0, 7)}",
                   float(rng.randint(1, 5)), timestep=k)
            for k in range(60))}.values())
        return RatingTable(ratings)

    def test_with_ratings_hands_off_built_store(self):
        base = self._base()
        base.matrix()  # memoize
        batch = [Rating("u-new", "i0", 4.0, 0), Rating("u0", "i-new", 2.0, 1)]
        derived = base.with_ratings(batch)
        assert derived._matrix_delta_base is not None
        assert_stores_equal(derived.matrix(), MatrixRatingStore(derived))

    def test_no_handoff_without_built_store(self):
        base = self._base()
        derived = base.with_ratings([Rating("u-new", "i0", 4.0, 0)])
        assert derived._matrix_delta_base is None

    def test_no_handoff_for_large_batches(self):
        base = self._base()
        base.matrix()
        batch = [Rating(f"w{k}", "i0", 3.0, k) for k in range(len(base))]
        derived = base.with_ratings(batch)
        assert derived._matrix_delta_base is None
        assert_stores_equal(derived.matrix(), MatrixRatingStore(derived))

    def test_merged_with_hands_off_built_store(self):
        base = self._base()
        base.matrix()
        other = RatingTable([Rating("u-new", "i1", 5.0, 0),
                             Rating("u-new", "i2", 1.0, 1)])
        merged = base.merged_with(other)
        assert merged._matrix_delta_base is not None
        assert_stores_equal(merged.matrix(), MatrixRatingStore(merged))


# -- the online AlterEgo path -------------------------------------------

class TestOnlineAlterEgo:
    def _generator(self):
        xsim_map = {
            "s1": {"t1": 0.9, "t2": 0.5, "t3": 0.1},
            "s2": {"t1": 0.4, "t4": 0.8},
            "s3": {},
        }
        return AlterEgoGenerator(xsim_map, n_replacements=2)

    def _tables(self):
        source = RatingTable([Rating("u", "s1", 5.0, 0), Rating("w", "s2", 2.0, 0)])
        target = RatingTable([Rating("u", "t4", 3.0, 0), Rating("other", "t1", 4.0, 0)])
        return source, target

    def test_flush_matches_batch_alterego_table(self):
        generator = self._generator()
        source, target = self._tables()
        updater = OnlineAlterEgoUpdater(
            generator, source, target,
            augmented=generator.alterego_table(["u", "w"], source, target))
        arrivals = [Rating("u", "s2", 4.0, 5), Rating("w", "s1", 1.0, 6)]
        for rating in arrivals:
            updater.observe(rating)
        augmented, batch = updater.flush()
        extended = source.with_ratings(arrivals)
        want = self._generator().alterego_table(["u", "w"], extended, target)
        got = {(r.user, r.item): (r.value, r.timestep) for r in augmented}
        expected = {(r.user, r.item): (r.value, r.timestep) for r in want}
        assert got == expected
        assert batch  # the flush reported the ratings it appended
        assert updater.pending() == 0

    def test_real_target_ratings_keep_precedence(self):
        generator = self._generator()
        source, target = self._tables()
        updater = OnlineAlterEgoUpdater(generator, source, target)
        # s2 maps to t4 (0.8) and t1 (0.4); u already rated t4 for real.
        updater.observe(Rating("u", "s2", 1.0, 3))
        augmented, batch = updater.flush()
        assert augmented.value("u", "t4") == 3.0
        assert all(r.item != "t4" for r in batch)

    def test_unmappable_source_item_is_noop(self):
        generator = self._generator()
        source, target = self._tables()
        updater = OnlineAlterEgoUpdater(generator, source, target)
        assert updater.observe(Rating("u", "s3", 2.0, 1)) == []
        augmented, batch = updater.flush()
        assert batch == []
        assert augmented is target

    def test_duplicate_observation_rejected(self):
        generator = self._generator()
        source, target = self._tables()
        updater = OnlineAlterEgoUpdater(generator, source, target)
        with pytest.raises(ConfigError, match="already folded"):
            updater.observe(Rating("u", "s1", 2.0, 9))

    def test_flush_uses_store_delta_handoff(self):
        generator = self._generator()
        rng = random.Random(5)
        source = RatingTable([Rating("u", "s1", 5.0, 0)])
        target = RatingTable(list({(r.user, r.item): r for r in (
            Rating(f"v{rng.randint(0, 9)}", f"t{rng.randint(5, 14)}",
                   float(rng.randint(1, 5)), timestep=k)
            for k in range(50))}.values()))
        target.matrix()
        updater = OnlineAlterEgoUpdater(generator, source, target)
        updater.observe(Rating("u", "s2", 4.0, 1))
        augmented, _ = updater.flush()
        assert augmented._matrix_delta_base is not None
        assert_stores_equal(augmented.matrix(), MatrixRatingStore(augmented))


# -- Baseliner.update ----------------------------------------------------

def _scenario_with(extra_books: list[Rating]) -> CrossDomainDataset:
    movies = [Rating("alice", "interstellar", 5.0, 0),
              Rating("alice", "gravity", 4.0, 1),
              Rating("bob", "interstellar", 5.0, 0),
              Rating("bob", "inception", 5.0, 1),
              Rating("cecilia", "inception", 5.0, 0)]
    books = [Rating("cecilia", "forever-war", 5.0, 1),
             Rating("cecilia", "hyperion", 4.0, 2),
             Rating("emma", "forever-war", 5.0, 0),
             Rating("emma", "hyperion", 5.0, 2)]
    return CrossDomainDataset(
        Dataset("movies", RatingTable(movies)),
        Dataset("books", RatingTable(books + extra_books)))


class TestBaselinerUpdate:
    def test_update_matches_fresh_compute(self):
        batch = [Rating("alice", "forever-war", 4.0, 9),
                 Rating("emma", "dune", 5.0, 9),
                 Rating("cecilia", "dune", 4.0, 9)]
        baseliner = Baseliner(keep_state=True)
        baseline = baseliner.compute(_scenario_with([]))
        updated_data = _scenario_with(batch)
        updated, stats = baseliner.update(baseline, batch, updated_data.domain_map())
        fresh = baseliner.compute(updated_data)
        assert updated.n_homogeneous == fresh.n_homogeneous
        assert updated.n_heterogeneous == fresh.n_heterogeneous
        assert updated.graph._adjacency == fresh.graph._adjacency
        assert stats.n_batch == len(batch)
        assert stats.n_new_items == 1

    def test_update_requires_kept_state(self):
        data = _scenario_with([])
        baseline = Baseliner().compute(data)
        with pytest.raises(ConfigError, match="keep_state"):
            Baseliner().update(baseline, [], data.domain_map())

    def test_keep_state_matches_stateless_compute(self):
        data = _scenario_with([])
        stateless = Baseliner().compute(data)
        stateful = Baseliner(keep_state=True).compute(data)
        assert stateful.n_homogeneous == stateless.n_homogeneous
        assert stateful.n_heterogeneous == stateless.n_heterogeneous
        assert stateful.graph._adjacency == stateless.graph._adjacency
        assert stateful.state is not None
