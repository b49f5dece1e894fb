"""The serving subsystem: snapshots, the hot-swap registry, the service.

Contracts under test:

* **Snapshot round trip** — save → load is bit-identical
  (every store array, the index flat rows, the AlterEgo mapping).
* **Registry hot swap** — publishes are atomic, pinned readers keep a
  coherent version while updates land (checked under a real thread),
  superseded versions are retired once unpinned.
* **Service** — the batched vectorized pass returns exactly the
  per-request path's responses; the ranked-row cache's invalidation is
  delta-targeted (an update evicts precisely the census'
  ``affected_items``), the response cache is version-scoped.
"""

from __future__ import annotations

import json
import threading
import time
from tempfile import TemporaryDirectory

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.baseliner import Baseliner
from repro.core.pipeline import NXMapRecommender, XMapConfig
from repro.data.matrix import MatrixRatingStore
from repro.data.ratings import Rating, RatingTable
from repro.data.synthetic import SyntheticConfig, amazon_like
from repro.engine.sharded_sweep import IncrementalSweep
from repro.errors import ConfigError, ServingError
from repro.serving.registry import ModelRegistry
from repro.serving.service import LRUCache, RecommendationService
from repro.serving.snapshot import STORE_ARRAY_NAMES, ModelSnapshot

_common = settings(max_examples=25, deadline=None,
                   suppress_health_check=[HealthCheck.too_slow])

_users = st.sampled_from([f"u{k}" for k in range(9)])
_items = st.sampled_from([f"i{k}" for k in range(9)])
_values = st.sampled_from([1.0, 1.5, 2.0, 3.0, 4.0, 4.5, 5.0])


@st.composite
def tables(draw, min_size=2, max_size=30):
    pairs = draw(st.lists(st.tuples(_users, _items), min_size=min_size,
                          max_size=max_size, unique=True))
    return RatingTable([
        Rating(user, item, draw(_values), timestep=k)
        for k, (user, item) in enumerate(pairs)])


def _aslist(values):
    return values.tolist()


def _snapshot(table: RatingTable, k: int = 10, **kwargs) -> ModelSnapshot:
    store = MatrixRatingStore(table)
    return ModelSnapshot(store, store.neighbor_index(), cf_k=k,
                         scale=table.scale, **kwargs)


def assert_snapshots_equal(got: ModelSnapshot, want: ModelSnapshot) -> None:
    """Bit-identical equality over everything a snapshot captures."""
    assert got.store.users == want.store.users
    assert got.store.items == want.store.items
    assert got.store.n_ratings == want.store.n_ratings
    assert got.store.global_mean == want.store.global_mean
    for name in STORE_ARRAY_NAMES:
        assert _aslist(getattr(got.store, name)) \
            == _aslist(getattr(want.store, name)), name
    assert _aslist(got.index.ptr) == _aslist(want.index.ptr)
    assert _aslist(got.index.neighbor_ids) \
        == _aslist(want.index.neighbor_ids)
    assert _aslist(got.index.weights) == _aslist(want.index.weights)
    assert got.cf_k == want.cf_k
    assert got.positive_only == want.positive_only
    assert got.scale == want.scale
    assert got.alterego == want.alterego


def _probe_pairs(table: RatingTable):
    users = sorted(table.users)
    items = sorted(table.items)
    return [(user, item) for user in users[:6] for item in items[:6]]


# ----------------------------------------------------------------------
# Snapshot round trips
# ----------------------------------------------------------------------

@_common
@given(table=tables())
def test_snapshot_roundtrip_bit_identical(table):
    snapshot = _snapshot(table)
    with TemporaryDirectory() as directory:
        snapshot.save(directory)
        loaded = ModelSnapshot.load(directory)
        assert_snapshots_equal(loaded, snapshot)
        reference = snapshot.recommender()
        served = loaded.recommender()
        for user, item in _probe_pairs(table):
            assert served.predict(user, item) \
                == reference.predict(user, item)


def test_manifest_naming_the_removed_backend_still_loads(tiny_table, tmp_path):
    """``backend_written`` only ever recorded who wrote the bytes, never
    how: a catalog the second backend left behind loads unchanged."""
    snapshot = _snapshot(tiny_table)
    snapshot.save(tmp_path)
    manifest_path = tmp_path / "MANIFEST.json"
    manifest = json.loads(manifest_path.read_text(encoding="utf-8"))
    assert manifest["backend_written"] == "numpy"
    manifest["backend_written"] = "python"
    manifest_path.write_text(json.dumps(manifest), encoding="utf-8")
    assert_snapshots_equal(ModelSnapshot.load(tmp_path), snapshot)


def test_snapshot_extras_roundtrip(tiny_table):
    alterego = {"m1": (("a", 0.75), ("b", 0.25)), "m2": (("d", 1.0),)}
    snapshot = _snapshot(tiny_table, alterego=alterego)
    with TemporaryDirectory() as directory:
        snapshot.save(directory)
        loaded = ModelSnapshot.load(directory)
        assert_snapshots_equal(loaded, snapshot)
        assert loaded.item_mapping() == {"m1": "a", "m2": "d"}


def test_snapshot_table_and_graph_match_sources(tiny_table):
    snapshot = _snapshot(tiny_table)
    with TemporaryDirectory() as directory:
        snapshot.save(directory)
        loaded = ModelSnapshot.load(directory)
    # The reconstructed table holds exactly the original ratings (sans
    # timesteps) and adopts the loaded store instead of re-interning.
    table = loaded.table()
    assert table.users == tiny_table.users
    assert table.items == tiny_table.items
    assert len(table) == len(tiny_table)
    for rating in tiny_table:
        assert table.value(rating.user, rating.item) == rating.value
    assert table.matrix() is loaded.store
    # The derived graph equals the graph assembled with the adjacency.
    adjacency = MatrixRatingStore(tiny_table).build_adjacency()
    graph = loaded.graph()
    assert set(graph.items) == set(adjacency)
    for item, row in adjacency.items():
        assert dict(graph.neighbors(item)) == row


def test_snapshot_resave_into_own_directory(tiny_table, tmp_path):
    """Re-saving a loaded snapshot over itself must not fault through
    its own memmaps (regression: tofile truncated the backing files)."""
    ModelSnapshot.from_table(tiny_table, k=5).save(tmp_path)
    loaded = ModelSnapshot.load(tmp_path)
    # Occupied directories are refused by default: overwriting rewrites
    # files another process may have memory-mapped.
    with pytest.raises(ServingError, match="already holds"):
        loaded.save(tmp_path)
    loaded.save(tmp_path, overwrite=True)
    again = ModelSnapshot.load(tmp_path)
    assert_snapshots_equal(again, loaded)


def test_snapshot_rejects_unicode_line_break_ids(tmp_path):
    """Every id the reader's splitlines() would split is rejected at
    save time — not discovered as a count mismatch at load time."""
    for bad in ("a\nb", "a\rb", "a\x0bb", "a\x85b", "a b"):
        table = RatingTable([Rating("u1", bad, 3.0),
                             Rating("u1", "ok", 4.0),
                             Rating("u2", bad, 2.0),
                             Rating("u2", "ok", 5.0)])
        with pytest.raises(ServingError, match="line"):
            ModelSnapshot.from_table(table, k=2).save(tmp_path / "s")


def test_snapshot_rejects_missing_or_corrupt(tmp_path):
    with pytest.raises(ServingError, match="not a model snapshot"):
        ModelSnapshot.load(tmp_path)
    (tmp_path / "MANIFEST.json").write_text("{not json", encoding="utf-8")
    with pytest.raises(ServingError, match="corrupt"):
        ModelSnapshot.load(tmp_path)
    (tmp_path / "MANIFEST.json").write_text(
        '{"format": "something-else"}', encoding="utf-8")
    with pytest.raises(ServingError, match="not a model snapshot"):
        ModelSnapshot.load(tmp_path)


def test_snapshot_rejects_truncated_array_file(tmp_path, tiny_table):
    """A .bin whose byte length disagrees with the manifest fails the
    load with a clear diagnosis — not a downstream memmap/struct error
    (or, worse, a partially wrong model)."""
    ModelSnapshot.from_table(tiny_table, k=2).save(tmp_path / "s")
    target = tmp_path / "s" / "user_values.bin"
    whole = target.read_bytes()
    target.write_bytes(whole[:len(whole) - 3])
    with pytest.raises(ServingError, match="truncated or corrupt"):
        ModelSnapshot.load(tmp_path / "s")
    target.write_bytes(whole + b"\x00" * 8)  # too long is corrupt too
    with pytest.raises(ServingError, match="truncated or corrupt"):
        ModelSnapshot.load(tmp_path / "s")
    target.write_bytes(whole)
    ModelSnapshot.load(tmp_path / "s")  # restored: loads again


def test_snapshot_rejects_missing_array_file(tmp_path, tiny_table):
    ModelSnapshot.from_table(tiny_table, k=2).save(tmp_path / "s")
    (tmp_path / "s" / "index_weights.bin").unlink()
    with pytest.raises(ServingError, match="missing"):
        ModelSnapshot.load(tmp_path / "s")


def _edit_manifest(directory, mutate) -> None:
    """Rewrite the manifest: *mutate* edits the parsed document in
    place, or returns the document to write in its stead."""
    path = directory / "MANIFEST.json"
    manifest = json.loads(path.read_text(encoding="utf-8"))
    replaced = mutate(manifest)
    path.write_text(
        json.dumps(manifest if replaced is None else replaced), encoding="utf-8")


def _drop(key, of=lambda manifest: manifest):
    def mutate(manifest):
        del of(manifest)[key]
    return mutate


def _set(key, value, of=lambda manifest: manifest):
    def mutate(manifest):
        of(manifest)[key] = value
    return mutate


def _user_ptr_entry(manifest):
    return manifest["arrays"]["user_ptr"]


@pytest.mark.parametrize("mutate, names", [
    *(pytest.param(_drop(key), key, id=f"no-{key}") for key in (
        "arrays", "n_users", "n_items", "n_ratings", "global_mean", "cf_k",
        "positive_only", "scale", "index_k", "version")),
    pytest.param(_set("arrays", ["user_ptr"]), "arrays", id="arrays-a-list"),
    pytest.param(_set("n_users", "4"), "n_users", id="n_users-a-string"),
    pytest.param(_set("cf_k", True), "cf_k", id="cf_k-a-bool"),
    pytest.param(_set("scale", [1.0]), "scale", id="scale-one-bound"),
    pytest.param(_set("scale", "1-5"), "scale", id="scale-a-string"),
    pytest.param(_drop("item_means", of=lambda manifest: manifest["arrays"]),
                 "item_means", id="array-entry-missing"),
    pytest.param(_drop("size", of=_user_ptr_entry), "size",
                 id="array-entry-without-size"),
    pytest.param(_drop("kind", of=_user_ptr_entry), "kind",
                 id="array-entry-without-kind"),
    pytest.param(_set("kind", "c16", of=_user_ptr_entry), "c16",
                 id="array-entry-unknown-kind"),
    pytest.param(_set("size", "9", of=_user_ptr_entry), "size",
                 id="array-entry-size-a-string"),
    pytest.param(lambda manifest: [manifest], "not a JSON object", id="a-json-list"),
])
def test_incomplete_manifest_is_a_serving_error(tiny_table, tmp_path, mutate, names):
    """A JSON-valid manifest that lacks (or mistypes) a key must be a
    ``ServingError`` naming it: the watcher's reload loop catches that
    and nothing else, so a ``KeyError`` here kills every worker."""
    ModelSnapshot.from_table(tiny_table, k=2).save(tmp_path)
    _edit_manifest(tmp_path, mutate)
    with pytest.raises(ServingError, match=names):
        ModelSnapshot.load(tmp_path)


def test_truncated_index_guards(tiny_table, tmp_path):
    """Nothing builds a truncated index any more, so the one place a
    truncated row can still arrive from is a manifest written elsewhere:
    the loader refuses it — Eq 4 over a cut row under-selects silently."""
    ModelSnapshot.from_table(tiny_table, k=2).save(tmp_path)
    manifest_path = tmp_path / "MANIFEST.json"
    manifest = json.loads(manifest_path.read_text(encoding="utf-8"))
    assert manifest["index_k"] is None
    manifest["index_k"] = 1
    manifest_path.write_text(json.dumps(manifest), encoding="utf-8")
    with pytest.raises(ServingError, match="truncated"):
        ModelSnapshot.load(tmp_path)


# ----------------------------------------------------------------------
# Pipeline snapshots
# ----------------------------------------------------------------------

@pytest.fixture(scope="module")
def fitted_pipeline():
    data = amazon_like(SyntheticConfig(
        n_users_source=60, n_users_target=60, n_overlap=25,
        n_items_source=50, n_items_target=50,
        ratings_per_user=10.0, seed=13))
    pipeline = NXMapRecommender(XMapConfig(
        mode="item", prune_k=8, cf_k=10)).fit(data)
    return data, pipeline


def test_pipeline_snapshot_serves_bit_identically(fitted_pipeline):
    data, pipeline = fitted_pipeline
    snapshot = pipeline.snapshot()
    assert snapshot.alterego
    with TemporaryDirectory() as directory:
        snapshot.save(directory)
        loaded = ModelSnapshot.load(directory)
    assert_snapshots_equal(loaded, snapshot)
    assert loaded.item_mapping() == pipeline.item_mapping()
    service = RecommendationService(loaded)
    users = sorted(data.source.users)[:8]
    items = sorted(data.target.ratings.items)[:8]
    for user in users:
        assert service.recommend(user, 5) == pipeline.recommend(user, 5)
        for item in items:
            assert service.predict(user, item) \
                == pipeline.predict(user, item)


def test_pipeline_snapshot_rejects_non_item_modes(fitted_pipeline):
    data, _ = fitted_pipeline
    pipeline = NXMapRecommender(XMapConfig(mode="user", prune_k=8, cf_k=10)).fit(
            data, users=sorted(data.source.users)[:5])
    with pytest.raises(ServingError, match="item-mode"):
        pipeline.snapshot()


# ----------------------------------------------------------------------
# On-disk format v1: pinned as literals, old writers' directories load
# ----------------------------------------------------------------------

_V1_ARRAYS = {
    "user_ptr": "i8", "user_item_idx": "i8", "user_values": "f8",
    "user_centered": "f8", "user_item_centered": "f8", "user_means": "f8",
    "user_item_centered_norms": "f8", "item_ptr": "i8", "item_user_idx": "i8",
    "item_values": "f8", "item_centered": "f8", "item_likes": "b1",
    "item_means": "f8", "item_centered_norms": "f8", "item_raw_norms": "f8",
    "index_ptr": "i8", "index_neighbor_ids": "i8", "index_weights": "f8",
}
_V1_FILES = {"MANIFEST.json", "users.txt", "items.txt"} \
    | {f"{name}.bin" for name in _V1_ARRAYS}
_V1_MANIFEST_KEYS = {
    "format", "format_version", "byte_order", "backend_written", "version",
    "cf_k", "positive_only", "scale", "n_users", "n_items", "n_ratings",
    "global_mean", "index_k", "with_significance", "with_alterego", "arrays",
}
_V1_CONFIG_KEYS = {
    "n_shards", "min_common_users", "min_abs_similarity", "with_significance",
    "cf_k", "positive_only", "group_commit", "segment_bytes", "fsync", "policy",
}


def _files(directory) -> set[str]:
    return {entry.name for entry in directory.iterdir()}


def test_format_v1_is_pinned(tmp_path):
    """What a pipeline snapshot and a durable store leave on disk, as
    literals: file set, manifest keys, array names and kinds, pointer
    and config keys — with the two format-v1 constants a durable store
    still writes for older readers (``with_significance`` false,
    ``n_shards`` 1)."""
    from repro.durability.manager import CHECKPOINT_FILE, DurableSweep

    data = amazon_like(SyntheticConfig(
        n_users_source=30, n_users_target=30, n_overlap=12,
        n_items_source=20, n_items_target=20, ratings_per_user=6.0, seed=5))
    pipeline = NXMapRecommender(XMapConfig(mode="item", prune_k=5, cf_k=5)).fit(data)
    saved = pipeline.snapshot().save(tmp_path / "pipeline")
    assert _files(saved) == _V1_FILES | {"alterego.json"}
    manifest = json.loads((saved / "MANIFEST.json").read_text(encoding="utf-8"))
    assert set(manifest) == _V1_MANIFEST_KEYS
    assert {name: entry["kind"] for name, entry in manifest["arrays"].items()} \
        == _V1_ARRAYS
    assert all(set(entry) == {"kind", "size"}
               for entry in manifest["arrays"].values())
    assert manifest["index_k"] is None
    assert manifest["with_significance"] is False

    store_dir = tmp_path / "store"
    DurableSweep(store_dir, data.merged()).close()
    assert _files(store_dir) == {CHECKPOINT_FILE, "wal", "snapshots"}
    pointer = json.loads((store_dir / CHECKPOINT_FILE).read_text(encoding="utf-8"))
    assert set(pointer) == {
        "format", "format_version", "applied_seq", "snapshot", "config"}
    assert set(pointer["config"]) == _V1_CONFIG_KEYS
    assert pointer["config"]["with_significance"] is False
    assert pointer["config"]["n_shards"] == 1
    assert _files(store_dir / pointer["snapshot"]) == _V1_FILES


def test_snapshot_written_with_bulk_significance_still_loads(tiny_table, tmp_path):
    """Format v1 backward compatibility, by hand: the directory a build
    that persisted the bulk Definition-2 table wrote — ``sig_items.txt``,
    four ``sig_*`` arrays, ``"with_significance": true`` — loads and
    serves exactly as the same snapshot without them."""
    import numpy as np

    snapshot = _snapshot(tiny_table, k=3, alterego={"m1": (("a", 1.0),)})
    plain = snapshot.save(tmp_path / "plain")
    flagged = snapshot.save(tmp_path / "flagged")
    (flagged / "sig_items.txt").write_text("a\nb\nm-only\n", encoding="utf-8")
    sig = {"sig_left": [0, 1], "sig_right": [1, 2], "sig_raw": [2, 1],
           "sig_common": [3, 1]}
    for name, values in sig.items():
        np.asarray(values, dtype="<i8").tofile(flagged / f"{name}.bin")

    def _flag(manifest):
        manifest["with_significance"] = True
        for name in sig:
            manifest["arrays"][name] = {"kind": "i8", "size": 2}

    _edit_manifest(flagged, _flag)
    loaded = ModelSnapshot.load(flagged)
    assert_snapshots_equal(loaded, ModelSnapshot.load(plain))
    users = sorted(tiny_table.users)
    assert RecommendationService(loaded).recommend_batch(users, 3) \
        == RecommendationService(snapshot).recommend_batch(users, 3)


# ----------------------------------------------------------------------
# Registry
# ----------------------------------------------------------------------

def _micro_table(seed_items=("a", "b", "c", "d")):
    ratings = []
    for u in range(8):
        for pos, item in enumerate(seed_items):
            if (u + pos) % 3 != 0:
                ratings.append(Rating(f"u{u}", item, float(1 + (u * 2 + pos) % 5)))
    return RatingTable(ratings)


def test_registry_publish_pin_retire(tiny_table):
    first = ModelSnapshot.from_table(tiny_table, k=5)
    registry = ModelRegistry(snapshot=first)
    assert registry.current_version() == 1
    pinned = registry.pin()
    assert pinned.version == 1
    second = _snapshot(tiny_table, k=5)
    assert registry.publish(second) == 2
    # v1 stays retained (and coherent) while pinned; new readers get v2.
    assert registry.versions() == [1, 2]
    assert registry.current() is second
    assert registry.reader_count(1) == 1
    pinned.release()
    pinned.release()  # idempotent
    assert registry.versions() == [2]
    assert registry.reader_count() == 0
    with pytest.raises(ServingError, match="already published"):
        registry.publish(second)


def test_registry_honours_preassigned_versions(tiny_table, tmp_path):
    """A loaded snapshot keeps its persisted version through publish
    (regression: publish restamped every snapshot from 1)."""
    snapshot = ModelSnapshot.from_table(tiny_table, k=5, version=7)
    snapshot.save(tmp_path)
    loaded = ModelSnapshot.load(tmp_path)
    registry = ModelRegistry(snapshot=loaded)
    assert registry.current_version() == 7
    assert loaded.version == 7
    # The next unversioned publish continues from there...
    follow_up = _snapshot(tiny_table, k=5)
    assert registry.publish(follow_up) == 8
    # ...and a stale pre-assigned version cannot move the registry back.
    stale = ModelSnapshot.from_table(tiny_table, k=5, version=3)
    with pytest.raises(ServingError, match="behind"):
        registry.publish(stale)


def test_registry_requires_a_model():
    registry = ModelRegistry()
    with pytest.raises(ServingError, match="no published model"):
        registry.current()
    with pytest.raises(ServingError, match="no writer sweep"):
        registry.update([Rating("u", "i", 3.0)])


def test_registry_update_publishes_spliced_versions():
    table = _micro_table()
    registry = ModelRegistry(sweep=IncrementalSweep(table), cf_k=5)
    pinned = registry.pin()
    probes = [(f"u{k}", item) for k in range(8) for item in "abcd"]
    before = {pair: pinned.snapshot.recommender().predict(*pair) for pair in probes}

    batch = [Rating("u0", "e", 5.0), Rating("u9", "a", 2.0)]
    version, stats = registry.update(batch)
    assert version == 2
    assert stats.batch_users == ("u0", "u9")
    assert len(stats.affected_items) == stats.n_affected_rows
    assert list(stats.affected_items) == sorted(stats.affected_items)

    # The pinned reader still serves the pre-update model, bit for bit.
    for pair, want in before.items():
        assert pinned.snapshot.recommender().predict(*pair) == want
    # The new version equals a from-scratch model on the updated table.
    fresh = ModelSnapshot.from_table(table.with_ratings(batch), k=5)
    current = registry.current()
    assert current.version == 2
    served = current.recommender()
    reference = fresh.recommender()
    for user in list(fresh.store.users):
        assert served.recommend(user, 3) == reference.recommend(user, 3)
    pinned.release()
    assert registry.versions() == [2]


def test_registry_hot_swap_under_threaded_reader():
    """A reader thread pinning versions mid-publish always observes a
    coherent model: every prediction read under one pin equals the
    from-scratch value for *some* prefix of the update stream."""
    table = _micro_table()
    registry = ModelRegistry(sweep=IncrementalSweep(table), cf_k=5)
    batches = [
        [Rating("u0", "e", 5.0), Rating("u1", "a", 1.0)],
        [Rating("u9", "e", 4.0), Rating("u2", "b", 2.0)],
        [Rating("u3", "f", 3.0)],
        [Rating("u9", "f", 1.5), Rating("u4", "c", 4.5)],
    ]
    probes = [(f"u{k}", item) for k in range(5) for item in "abce"]

    def _fresh(state: RatingTable) -> dict:
        # A from-scratch sweep — the incremental splice is
        # bit-identical to it (tests/test_incremental.py).
        reference = ModelSnapshot.from_sweep(
            IncrementalSweep(state), cf_k=5).recommender()
        return {pair: reference.predict(*pair) for pair in probes}

    # Ground truth per version: predictions of a fresh model after each
    # prefix of the update stream.
    expected = {1: _fresh(table)}
    state = table
    for prefix, batch in enumerate(batches, start=2):
        state = state.with_ratings(batch)
        expected[prefix] = _fresh(state)

    failures: list = []
    seen_versions: list[int] = []
    stop = threading.Event()

    def reader() -> None:
        while not stop.is_set():
            with registry.pin() as pinned:
                version = pinned.version
                seen_versions.append(version)
                recommender = pinned.snapshot.recommender()
                first = [recommender.predict(*pair) for pair in probes]
                time.sleep(0.001)  # let a publish land mid-request
                second = [recommender.predict(*pair) for pair in probes]
                if first != second:
                    failures.append(("torn read", version))
                want = [expected[version][pair] for pair in probes]
                if first != want:
                    failures.append(("wrong model", version))

    thread = threading.Thread(target=reader)
    thread.start()
    try:
        for batch in batches:
            registry.update(batch)
            time.sleep(0.003)
    finally:
        stop.set()
        thread.join()
    assert not failures, failures[:3]
    assert seen_versions, "reader never pinned a version"
    assert seen_versions == sorted(seen_versions)  # swaps are monotone
    assert registry.current_version() == len(batches) + 1


def test_baseliner_serving_registry(two_domain_micro):
    baseline = Baseliner(keep_state=True).compute(two_domain_micro)
    registry = baseline.serving_registry(cf_k=5)
    service = RecommendationService(registry)
    merged = two_domain_micro.merged()
    reference = ModelSnapshot.from_table(merged, k=5).recommender()
    users = sorted(merged.users)
    assert service.recommend_batch(users, 3) \
        == [reference.recommend(user, 3) for user in users]
    version, _ = registry.update([Rating("s1", "b3", 4.0)])
    assert version == 2
    stateless = Baseliner().compute(two_domain_micro)
    with pytest.raises(ConfigError, match="keep_state"):
        stateless.serving_registry()


# ----------------------------------------------------------------------
# Service
# ----------------------------------------------------------------------

@_common
@given(table=tables(min_size=4))
def test_batched_equals_per_request(table):
    snapshot = _snapshot(table, k=3)
    service = RecommendationService(snapshot, response_cache_size=0)
    users = sorted(table.users) + ["nobody"]
    batched = service.recommend_batch(users, 4)
    reference = snapshot.recommender()
    assert batched == [reference.recommend(user, 4) for user in users]


def test_batched_equals_per_request_wide_layout():
    """More than 255 items and more than 65,535 index entries: the
    layout's owners widen to uint16 and its positions to uint32 (the
    dtypes a production-sized snapshot gets), under the same oracle."""
    import numpy as np

    rng = np.random.default_rng(21)
    n_users, n_items = 90, 300
    table = RatingTable([
        Rating(f"u{u:02d}", f"i{i:03d}", float(rng.integers(1, 6)))
        for u in range(n_users)
        for i in np.flatnonzero(rng.random(n_items) < (0.7, 0.3, 0.08)[u % 3])])
    snapshot = _snapshot(table, k=40)
    assert snapshot.index.n_items > 255 and len(snapshot.index.weights) > 65535
    service = RecommendationService(snapshot, response_cache_size=0)
    (_, _, owners, transpose, _), _ = service._index_layout(snapshot)
    assert owners.dtype == np.uint16 and transpose.dtype == np.uint32
    users = ["u00", "u01", "u02", "u30", "u44", "nobody"]
    assert len(table.user_items("u00")) > 40 > len(table.user_items("u02"))  # cap on, off
    reference = snapshot.recommender()
    assert service.recommend_batch(users, 10) \
        == [reference.recommend(user, 10) for user in users]


def test_layout_holds_plain_arrays(tiny_table, tmp_path):
    """Every array the per-user pass reads is a base-class ndarray over
    the mapped file — a memmap in the layout would run the subclass's
    Python hooks on every slice of every request."""
    import numpy as np

    _snapshot(tiny_table, k=5).save(tmp_path)
    loaded = ModelSnapshot.load(tmp_path)
    assert isinstance(loaded.index.weights, np.memmap)  # load still maps
    layout = RecommendationService(loaded)._index_layout(loaded)
    arrays = [part for side in layout for part in side if not isinstance(part, list)]
    assert all(type(array) is np.ndarray for array in arrays)
    mapped = (loaded.index.neighbor_ids, loaded.index.weights,
              loaded.store.user_item_idx, loaded.store.user_values,
              loaded.store.item_means)
    for source in mapped:
        assert any(np.shares_memory(array, source) for array in arrays)


def _opposed_table() -> RatingTable:
    """``a`` and ``b`` are rated in opposition (their similarity is
    negative); ``solo`` rated only ``a``, so under ``positive_only``
    every neighbor entry ``solo`` could use is filtered out."""
    return RatingTable([
        Rating("u1", "a", 5.0), Rating("u1", "b", 1.0),
        Rating("u2", "a", 1.0), Rating("u2", "b", 5.0),
        Rating("u3", "b", 4.0), Rating("u3", "c", 5.0), Rating("u3", "d", 1.0),
        Rating("u4", "b", 2.0), Rating("u4", "c", 1.0), Rating("u4", "d", 5.0),
        Rating("solo", "a", 4.0)])


@pytest.mark.parametrize("user, n, positive_only", [
    pytest.param("u1", 0, True, id="n-zero"),
    pytest.param("u1", -1, True, id="n-negative"),
    pytest.param("u3", 1, True, id="n-equals-unrated"),
    pytest.param("u1", 3, True, id="n-beyond-unrated"),
    pytest.param("nobody", 2, True, id="unknown-user"),
    pytest.param("solo", 3, True, id="every-neighbor-filtered"),
    pytest.param("nobody", 9, True, id="catalogue-smaller-than-n"),
    pytest.param("solo", 3, False, id="negative-weights"),
    pytest.param("u3", 2, False, id="negative-weights-mixed"),
])
def test_batched_selection_edge_cases(user, n, positive_only):
    table = _opposed_table()
    snapshot = _snapshot(table, k=2, positive_only=positive_only)
    assert (snapshot.index.weights < 0).any()
    if user == "solo" and positive_only:
        a = snapshot.index.item_index["a"]
        assert not (snapshot.index.row(a)[1] > 0).any()
    service = RecommendationService(snapshot, response_cache_size=0)
    want = snapshot.recommender().recommend(user, n)
    assert service.recommend_batch([user], n) == [want]
    assert service.recommend_batch_pinned([user], n) == (1, [want])


_ratings_1_to_5 = st.sampled_from([1.0, 2.0, 3.0, 4.0, 5.0])
_two_domain_items = st.sampled_from(
    [f"m{k}" for k in range(5)] + [f"b{k}" for k in range(5)])


@st.composite
def two_domain_cases(draw):
    """A small two-domain table with integer ratings (equal item means,
    so scores tie across the n-th place), an append batch, and serving
    parameters with ``cf_k`` below, at or above the longest profile."""
    pairs = draw(st.lists(st.tuples(_users, _two_domain_items), min_size=6,
                          max_size=40, unique=True))
    table = RatingTable([
        Rating(user, item, draw(_ratings_1_to_5), timestep=k)
        for k, (user, item) in enumerate(pairs)])
    batch_pairs = draw(st.lists(
        st.tuples(st.sampled_from(["u0", "u1", "u9"]), _two_domain_items),
        min_size=1, max_size=4, unique=True))
    batch = [Rating(user, item, draw(_ratings_1_to_5), timestep=100 + k)
             for k, (user, item) in enumerate(batch_pairs)]
    longest = max(len(table.user_items(user)) for user in table.users)
    cf_k = max(1, longest + draw(st.sampled_from([-1, 0, 1])))
    return table, batch, cf_k, draw(st.booleans()), draw(st.integers(1, 6))


@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(case=two_domain_cases())
def test_batched_is_exact_across_layouts_and_versions(case):
    """``==`` the per-request oracle for every user — cap engaged and
    vacuous, both filters, in-process and memory-mapped — and each
    version is answered from its own layout while an old pin is held."""
    table, batch, cf_k, positive_only, n = case

    def oracle(snapshot, users):
        reference = snapshot.recommender()
        return [reference.recommend(user, n) for user in users]

    registry = ModelRegistry(
        sweep=IncrementalSweep(table),
        cf_k=cf_k, positive_only=positive_only)
    service = RecommendationService(registry, response_cache_size=0)
    users = sorted(table.users) + ["nobody"]
    with registry.pin() as old:
        want_old = oracle(old.snapshot, users)
        assert service.recommend_batch(users, n) == want_old
        with TemporaryDirectory() as directory:
            old.snapshot.save(directory)
            loaded = ModelSnapshot.load(directory)
            mapped = RecommendationService(loaded, response_cache_size=0)
            assert mapped.recommend_batch(users, n) == want_old
        registry.update(batch)
        new_users = sorted(registry.current().store.users)
        want_new = oracle(registry.current(), new_users)
        assert service.recommend_batch(new_users, n) == want_new
        # the reader still pinned to v1 gets v1's layout, not the slot's
        assert service._batch_topn(old.snapshot, users, n) == want_old
        assert service.recommend_batch(new_users, n) == want_new
    assert service.n_layout_builds >= 2  # at least one per version


def test_batched_mixes_cache_hits_and_misses(tiny_table):
    snapshot = _snapshot(tiny_table, k=5)
    service = RecommendationService(snapshot)
    users = sorted(tiny_table.users)
    warm = service.recommend(users[0], 3)  # prime one response
    batched = service.recommend_batch(users, 3)
    assert batched[0] == warm
    assert service.stats()["response_cache"]["hits"] == 1
    again = service.recommend_batch(users, 3)
    assert again == batched
    assert service.stats()["response_cache"]["hits"] == 1 + len(users)


def test_row_cache_eviction_is_delta_targeted():
    # Two co-rating islands: an update inside one cannot move any row
    # of the other, so its census is a strict subset of the catalogue.
    ratings = []
    for cluster, item_group in enumerate((("a", "b", "c"), ("x", "y", "z"))):
        for u in range(4):
            for pos, item in enumerate(item_group):
                ratings.append(Rating(
                    f"c{cluster}u{u}", item,
                    float(1 + (u * 2 + pos) % 5)))
    table = RatingTable(ratings)
    registry = ModelRegistry(sweep=IncrementalSweep(table), cf_k=5)
    service = RecommendationService(registry)
    items = sorted(table.items)
    for item in items:
        service.similar_items(item, k=3)
    assert service.stats()["row_cache"]["size"] == len(items)

    batch = [Rating("c0u0", "a", 5.0)]
    _, stats = registry.update(batch)
    affected = set(stats.affected_items)
    assert affected and affected < set(registry.current().store.items)
    survivors = set(items) - affected
    assert survivors, "update unexpectedly touched every row"
    for item in survivors:
        assert item in service._row_cache
    for item in affected:
        assert item not in service._row_cache

    # Post-eviction rows are recomputed from the new version and match
    # a from-scratch index; surviving entries were exactly unchanged.
    fresh = ModelSnapshot.from_table(table.with_ratings(batch), k=5)
    for item in items:
        want = fresh.index.top(item, fresh.index.degree(item))
        assert service.similar_items(item, k=len(want) + 1) == want


def test_plain_publish_clears_all_caches(tiny_table):
    snapshot = ModelSnapshot.from_table(tiny_table, k=5)
    registry = ModelRegistry(snapshot=snapshot)
    service = RecommendationService(registry)
    service.similar_items("a", k=2)
    service.recommend("u1", 2)
    assert service.stats()["row_cache"]["size"] == 1
    assert service.stats()["response_cache"]["size"] == 1
    registry.publish(_snapshot(tiny_table, k=5))
    assert service.stats()["row_cache"]["size"] == 0
    assert service.stats()["response_cache"]["size"] == 0


def test_similar_items_filters(tiny_table):
    snapshot = ModelSnapshot.from_table(tiny_table, k=5)
    service = RecommendationService(snapshot)
    index = snapshot.index
    full = index.top("a", index.degree("a"))
    assert service.similar_items("a", k=2) == full[:2]
    assert service.similar_items("a", k=len(full), minimum=0.0) \
        == [pair for pair in full if pair[1] >= 0.0]
    assert service.similar_items("a", k=0) == []
    assert service.similar_items("missing", k=3) == []


def test_service_close_detaches_from_registry(tiny_table):
    registry = ModelRegistry(snapshot=ModelSnapshot.from_table(tiny_table, k=5))
    service = RecommendationService(registry)
    survivor = RecommendationService(registry)
    service.recommend("u1", 2)
    service.close()
    service.close()  # idempotent
    # A closed service keeps serving but no longer caches (it would
    # never see the invalidations), and publishes no longer walk it.
    assert service.recommend("u1", 2)
    assert service.stats()["response_cache"]["size"] == 0
    survivor.recommend("u1", 2)
    registry.publish(_snapshot(tiny_table, k=5))
    assert survivor.stats()["response_cache"]["size"] == 0  # invalidated
    registry.unsubscribe(service._on_publish)  # unknown → no-op


def test_injected_index_must_match_item_universe(tiny_table):
    from repro.cf.item_knn import ItemKNNRecommender

    other = RatingTable([Rating("u1", "zz", 3.0), Rating("u2", "zz", 4.0),
                         Rating("u1", "yy", 2.0), Rating("u2", "yy", 5.0)])
    foreign = other.matrix().neighbor_index()
    with pytest.raises(ConfigError, match="item universe"):
        ItemKNNRecommender(tiny_table, k=2, index=foreign)
    with pytest.raises(ConfigError, match="contradicts"):
        ItemKNNRecommender(tiny_table, k=2, use_index=False,
                           index=tiny_table.matrix().neighbor_index())


def test_lru_put_if_respects_invalidation_generation():
    cache = LRUCache(4)
    generation = cache.generation
    assert cache.put_if("a", 1, generation)
    cache.evict(["a"])  # bumps the generation
    assert not cache.put_if("a", "stale", generation)
    assert cache.get("a") is None
    assert cache.put_if("a", 2, cache.generation)
    assert cache.get("a") == 2
    cache.clear()
    assert not cache.put_if("b", 3, generation + 1)


def test_lru_cache_bounds_and_counters():
    cache = LRUCache(2)
    cache.put("a", 1)
    cache.put("b", 2)
    assert cache.get("a") == 1
    cache.put("c", 3)  # evicts "b", the least recently used
    assert cache.get("b") is None
    assert cache.get("a") == 1
    assert cache.get("c") == 3
    assert (cache.hits, cache.misses) == (3, 1)
    assert cache.evict(["a", "zz"]) == 1
    cache.clear()
    assert len(cache) == 0
    disabled = LRUCache(0)
    disabled.put("a", 1)
    assert disabled.get("a") is None
    with pytest.raises(ServingError):
        LRUCache(-1)
