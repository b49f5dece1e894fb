"""Immutable, versioned model snapshots with zero-copy save/load.

A :class:`ModelSnapshot` captures everything the serving side needs to
answer predictions without re-running any offline job: the interned
:class:`~repro.data.matrix.MatrixRatingStore` arrays of the serving
table, the rank-ordered :class:`~repro.similarity.knn.NeighborIndex`
flat rows (from which the symmetric adjacency is a pure function — see
:meth:`ModelSnapshot.graph`), and the Generator's AlterEgo replacement
mapping.

Snapshots are immutable: nothing in this module mutates a captured
array, and the incremental-update path never mutates them either
(:meth:`~repro.data.matrix.MatrixRatingStore.append_ratings` and
:meth:`~repro.similarity.knn.NeighborIndex.updated` both return new
objects), which is what makes the registry's hot swap safe for pinned
readers.

On-disk format (one directory per snapshot)::

    MANIFEST.json        # written last — its presence marks a complete
                         # snapshot; scalars, flags and the array table
    users.txt, items.txt # interned id lists, newline-delimited
    <name>.bin           # one raw little-endian array per entry in the
                         # manifest's "arrays" table (int64 / float64 /
                         # byte-per-bool)
    alterego.json        # source item → [[target, weight], ...]

Format v1 once carried a bulk Definition-2 table (``sig_items.txt`` +
four ``sig_*`` arrays behind a manifest flag) and a per-row index
truncation. Nothing writes either any more: the manifest keeps both
keys as constants (``false`` / ``null``), :meth:`ModelSnapshot.load`
ignores the flag together with any ``sig_*`` files, and refuses a
non-null truncation — serving needs complete rows.

Every ``.bin`` loads as a read-only ``np.memmap`` (zero copies, the
page cache is the working set), and a save → load round trip is
**bit-identical** — floats travel as their exact IEEE-754 bytes, never
through decimal text (property-tested in ``tests/test_serving.py``).
"""

from __future__ import annotations

import json
import os
from pathlib import Path
from typing import TYPE_CHECKING, Mapping, Sequence

import numpy as _np

from repro.data.matrix import MatrixRatingStore
from repro.data.ratings import DEFAULT_SCALE, Rating, RatingTable, line_break_id
from repro.errors import ServingError
from repro.faults.plan import fault_point
from repro.similarity.knn import NeighborIndex

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.cf.item_knn import ItemKNNRecommender
    from repro.engine.sharded_sweep import IncrementalSweep
    from repro.similarity.graph import ItemGraph

_MANIFEST = "MANIFEST.json"
_FORMAT = "xmap-model-snapshot"
_FORMAT_VERSION = 1

#: (manifest name, store attribute, element kind) for every store array.
_STORE_ARRAYS: tuple[tuple[str, str], ...] = (
    ("user_ptr", "i8"),
    ("user_item_idx", "i8"),
    ("user_values", "f8"),
    ("user_centered", "f8"),
    ("user_item_centered", "f8"),
    ("user_means", "f8"),
    ("user_item_centered_norms", "f8"),
    ("item_ptr", "i8"),
    ("item_user_idx", "i8"),
    ("item_values", "f8"),
    ("item_centered", "f8"),
    ("item_likes", "b1"),
    ("item_means", "f8"),
    ("item_centered_norms", "f8"),
)
#: Store array names alone (tests iterate these for equality checks).
STORE_ARRAY_NAMES = tuple(name for name, _ in _STORE_ARRAYS)

_INDEX_ARRAYS: tuple[tuple[str, str], ...] = (
    ("index_ptr", "i8"),
    ("index_neighbor_ids", "i8"),
    ("index_weights", "f8"),
)

_NP_DTYPES = {"i8": "<i8", "f8": "<f8", "b1": "|b1"}
_ITEM_SIZES = {"i8": 8, "f8": 8, "b1": 1}


def required_field(document, key: str, types: tuple, what: str, error=ServingError):
    """``document[key]`` of a parsed JSON object that came from outside
    the program (*what* names it in the message) — or *error*, naming
    the key, when the object lacks the key or holds a value of another
    type. A bare index would raise ``KeyError`` / ``TypeError`` into
    callers that only handle *error* (a worker's reload loop dies on
    it, and again after every respawn)."""
    if key not in document:
        raise error(f"{what} has no {key!r} key")
    value = document[key]
    if not isinstance(value, types) or (type(value) is bool and bool not in types):
        raise error(
            f"{what} key {key!r} holds {value!r}, expected "
            f"{' or '.join(kind.__name__ for kind in types)}"
        )
    return value


def _fsync_file(path: Path) -> None:
    """fsync an already-written file's bytes to stable storage."""
    fd = os.open(path, os.O_RDONLY)
    try:
        os.fsync(fd)
    finally:
        os.close(fd)


def _fsync_dir(path: Path) -> None:
    """fsync a directory entry so created/renamed names survive a
    power loss (POSIX requires syncing the parent directory)."""
    fd = os.open(path, os.O_RDONLY)
    try:
        os.fsync(fd)
    finally:
        os.close(fd)


def _dump_array(path: Path, values, kind: str) -> None:
    """Write *values* as raw little-endian bytes (exact float bits),
    fsynced — the manifest only means "complete" if every array it
    names is on stable storage before the manifest is."""
    fault_point("snapshot.array.write")
    if isinstance(values, _np.memmap):
        # Saving a loaded snapshot (possibly into its own
        # directory): materialise first — tofile truncates the
        # target, and writing a file while it is the array's own
        # backing store would fault mid-read.
        values = _np.array(values)
    _np.asarray(values, dtype=_np.dtype(_NP_DTYPES[kind])).tofile(path)
    fault_point("snapshot.array.fsync")
    _fsync_file(path)


def _validate_array_bytes(path: Path, kind: str, size: int) -> None:
    """The corruption guard: the file must exist and hold exactly the
    manifest-declared ``size`` × itemsize bytes, otherwise loading
    would fail later inside a memmap/struct with a far less useful
    message (or, worse, partially succeed)."""
    expected = size * _ITEM_SIZES[kind]
    try:
        actual = path.stat().st_size
    except FileNotFoundError:
        raise ServingError(
            f"snapshot array file {path.name} is missing — the "
            f"snapshot directory is incomplete or was corrupted"
        ) from None
    if actual != expected:
        raise ServingError(
            f"snapshot array {path.name} holds {actual} bytes but the "
            f"manifest declares {size} {kind} entries "
            f"({expected} bytes) — the file is truncated or corrupt"
        )


def _read_array(path: Path, kind: str, size: int):
    """Read one raw array back as a read-only ``np.memmap`` (zero-copy;
    the OS pages it in on demand). Byte length is validated against the
    manifest before anything is mapped."""
    _validate_array_bytes(path, kind, size)
    dtype = _np.dtype(_NP_DTYPES[kind])
    if size == 0:
        return _np.zeros(0, dtype=dtype)
    try:
        data = _np.memmap(path, dtype=dtype, mode="r")
    except (OSError, ValueError) as exc:
        raise ServingError(f"cannot map snapshot array {path}: {exc}") from exc
    if len(data) != size:
        raise ServingError(
            f"snapshot array {path.name} has {len(data)} entries, "
            f"manifest says {size}"
        )
    return data


def _dump_ids(path: Path, ids: Sequence[str], what: str) -> None:
    # Anything the reader's splitlines() would split is rejected at save
    # time, not load time: the text is built once and round-tripped,
    # and line_break_id() runs only to name the offender.
    ids = list(ids)
    text = "".join([name + "\n" for name in ids])
    if text.splitlines() != ids:
        raise ServingError(
            f"cannot snapshot {what} id {line_break_id(ids)!r}: ids with "
            f"line breaks are not representable in the id files"
        )
    fault_point("snapshot.ids.write")
    path.write_text(text, encoding="utf-8")
    _fsync_file(path)


def _read_ids(path: Path) -> list[str]:
    text = path.read_text(encoding="utf-8")
    return text.splitlines()


def _store_from_arrays(
    users: list[str],
    items: list[str],
    arrays: Mapping[str, object],
    n_ratings: int,
    global_mean: float,
) -> MatrixRatingStore:
    """Rebuild a :class:`MatrixRatingStore` from loaded arrays — the
    constructor's end state without the construction pass."""
    store = MatrixRatingStore.__new__(MatrixRatingStore)
    store._like_dicts = None
    store._value_total = None
    store.users = users
    store.items = items
    store.user_index = {user: k for k, user in enumerate(users)}
    store.item_index = {item: k for k, item in enumerate(items)}
    store.n_ratings = n_ratings
    store.global_mean = global_mean
    for name, _ in _STORE_ARRAYS:
        setattr(store, name, arrays[name])
    return store


class ModelSnapshot:
    """One immutable, versioned serving model.

    Instances wrap — never copy — the store and index they were built
    from; the heavyweight construction paths are the ``from_*``
    classmethods and :meth:`load`. Derived views (:meth:`table`,
    :meth:`graph`, :meth:`recommender`) are materialised lazily and
    memoized; since they are pure functions of immutable state, the
    memoization is safe under concurrent readers.

    Attributes:
        version: the registry-assigned version number (0 until
            published; :meth:`~repro.serving.registry.ModelRegistry.publish`
            stamps it exactly once).
        store: the serving table's interned array store.
        index: the rank-ordered neighbor index over the same items.
        cf_k: the Eq-4 neighborhood size requests are served with.
        positive_only: the recommender's neighbor filter (see
            :class:`~repro.cf.item_knn.ItemKNNRecommender`).
        scale: the rating scale predictions are clipped into.
        alterego: source item → ``((target, weight), ...)`` replacement
            sets (the Generator's item mapping), or ``None``.
    """

    __slots__ = (
        "version",
        "store",
        "index",
        "cf_k",
        "positive_only",
        "scale",
        "alterego",
        "_table",
        "_recommender",
    )

    def __init__(
        self,
        store: MatrixRatingStore,
        index: NeighborIndex,
        cf_k: int = 50,
        positive_only: bool = True,
        scale: tuple[float, float] = DEFAULT_SCALE,
        version: int = 0,
        alterego: Mapping[str, Sequence[tuple[str, float]]] | None = None,
        table: RatingTable | None = None,
    ) -> None:
        if cf_k <= 0:
            raise ServingError(f"cf_k must be positive, got {cf_k}")
        self.version = version
        self.store = store
        self.index = index
        self.cf_k = cf_k
        self.positive_only = positive_only
        self.scale = (float(scale[0]), float(scale[1]))
        if alterego is None:
            self.alterego = None
        else:
            self.alterego = {
                source: tuple(
                    (target, float(weight)) for target, weight in replacements
                )
                for source, replacements in alterego.items()
            }
        self._table = table
        self._recommender = None

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------

    @classmethod
    def from_table(
        cls,
        table: RatingTable,
        k: int = 50,
        positive_only: bool = True,
        version: int = 0,
    ) -> "ModelSnapshot":
        """Snapshot a single-domain rating table: its memoized store
        plus a freshly assembled neighbor index."""
        store = table.matrix()
        return cls(
            store,
            store.neighbor_index(),
            cf_k=k,
            positive_only=positive_only,
            scale=table.scale,
            version=version,
            table=table,
        )

    @classmethod
    def from_sweep(
        cls,
        sweep: "IncrementalSweep",
        cf_k: int = 50,
        positive_only: bool = True,
        version: int = 0,
    ) -> "ModelSnapshot":
        """Snapshot an :class:`~repro.engine.sharded_sweep.IncrementalSweep`'s
        current state — what the registry republishes after every
        :meth:`~repro.engine.sharded_sweep.IncrementalSweep.update`.

        O(1): the sweep's store and index are adopted by reference, and
        an update replaces both with new objects instead of mutating
        them, so earlier snapshots stay coherent. (The sweep's *graph*
        is its index, so :meth:`graph` is the same graph.)
        """
        return cls(
            sweep.store,
            sweep.index,
            cf_k=cf_k,
            positive_only=positive_only,
            scale=sweep.table.scale,
            version=version,
            table=sweep.table,
        )

    @classmethod
    def from_pipeline(cls, pipeline, version: int = 0) -> "ModelSnapshot":
        """Snapshot a fitted deterministic item-mode pipeline.

        Captures the augmented-target recommender's store and index
        (the arrays every online prediction reads) and the Generator's
        full replacement sets. Restricted to pipelines whose
        recommender is exactly :class:`~repro.cf.item_knn.ItemKNNRecommender`
        — temporal decay needs per-rating timesteps the store does
        not carry, and the private recommenders are randomized, so
        neither can honour the snapshot's bit-identical-serving
        contract.
        """
        from repro.cf.item_knn import ItemKNNRecommender

        recommender: ItemKNNRecommender = pipeline._require_fitted()
        if type(recommender) is not ItemKNNRecommender:
            raise ServingError(
                f"only the deterministic item-mode pipeline "
                f"(ItemKNNRecommender) can be snapshotted; "
                f"got {type(recommender).__name__}"
            )
        index = recommender.neighbor_index()
        table = recommender.table
        alterego = None
        if pipeline.generator is not None:
            generator = pipeline.generator
            alterego = {
                source: tuple(generator.replacements_for(source))
                for source in sorted(generator.xsim_map)
            }
        return cls(
            table.matrix(),
            index,
            cf_k=pipeline.config.cf_k,
            positive_only=recommender.positive_only,
            scale=table.scale,
            version=version,
            alterego=alterego,
            table=table,
        )

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    @property
    def n_users(self) -> int:
        return self.store.n_users

    @property
    def n_items(self) -> int:
        return self.store.n_items

    @property
    def n_ratings(self) -> int:
        return self.store.n_ratings

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"ModelSnapshot(version={self.version}, "
            f"users={self.n_users}, items={self.n_items}, "
            f"ratings={self.n_ratings}, k={self.cf_k})"
        )

    def item_mapping(self) -> dict[str, str]:
        """Source item → primary replacement (head of each AlterEgo
        replacement set); empty when no mapping was captured."""
        if self.alterego is None:
            return {}
        return {
            source: replacements[0][0]
            for source, replacements in self.alterego.items()
            if replacements
        }

    # ------------------------------------------------------------------
    # Derived serving views (lazy, memoized)
    # ------------------------------------------------------------------

    def table(self) -> RatingTable:
        """The serving :class:`~repro.data.ratings.RatingTable`.

        Captured by reference when the snapshot was built in-process;
        reconstructed from the store's CSR arrays after a load. The
        reconstruction carries no timesteps (the store does not keep
        them) — irrelevant to the snapshot-servable recommenders, which
        never read them — and adopts the loaded store as the table's
        memoized matrix, so nothing is re-interned.
        """
        if self._table is None:
            store = self.store
            items = store.items
            idx_column = store.user_item_idx
            value_column = store.user_values
            ratings = []
            for u, user in enumerate(store.users):
                start, end = store._user_row(u)
                for p in range(start, end):
                    ratings.append(
                        Rating(user, items[int(idx_column[p])], float(value_column[p]))
                    )
            table = RatingTable(ratings, scale=self.scale)
            table._matrix_cache = store
            self._table = table
        return self._table

    def graph(self) -> "ItemGraph":
        """The similarity graph as an
        :class:`~repro.similarity.graph.ItemGraph` over :attr:`index`.
        """
        from repro.similarity.graph import ItemGraph

        return ItemGraph(self.index)

    def recommender(self) -> "ItemKNNRecommender":
        """The Algorithm-2 recommender over this snapshot — the
        serving index injected, so the first prediction never pays a
        sweep."""
        if self._recommender is None:
            from repro.cf.item_knn import ItemKNNRecommender

            self._recommender = ItemKNNRecommender(
                self.table(),
                k=self.cf_k,
                positive_only=self.positive_only,
                index=self.index,
            )
        return self._recommender

    # ------------------------------------------------------------------
    # Persistence
    # ------------------------------------------------------------------

    def save(self, directory, overwrite: bool = False) -> Path:
        """Write the snapshot to *directory* (created if missing).

        Arrays are written first and ``MANIFEST.json`` last, so a
        directory with a manifest is a complete snapshot — an
        interrupted save is detectable (and :meth:`load` refuses it).
        The ordering holds across **power loss**, not just process
        death: every array/id file is fsynced before the manifest is
        written (to a temp name, fsynced, then atomically renamed into
        place), and the directory entries are fsynced last, so a
        manifest that survives a crash proves every byte it names
        survived too. Returns the directory path.

        A directory already holding a snapshot is refused unless
        *overwrite* is set: overwriting rewrites the very files a live
        reader's arrays may be memory-mapped from, so it is only safe
        when no process is serving from the directory (re-saving a
        snapshot into its own directory is handled — the writer's own
        maps are materialised first — but other processes' are
        invisible here). The zero-downtime path is a fresh directory
        per version.
        """
        path = Path(directory)
        path.mkdir(parents=True, exist_ok=True)
        manifest_path = path / _MANIFEST
        if manifest_path.exists():
            if not overwrite:
                raise ServingError(
                    f"{path} already holds a snapshot; pass "
                    f"overwrite=True only if no live process is "
                    f"serving from it (its loaded arrays map these "
                    f"files), or save each version to a fresh "
                    f"directory"
                )
            # Dropped first — durably — so a partially overwritten
            # directory can never pass for the previous complete
            # snapshot, even across a power loss mid-overwrite.
            fault_point("snapshot.manifest.unlink")
            manifest_path.unlink()
            _fsync_dir(path)
        store = self.store
        _dump_ids(path / "users.txt", store.users, "user")
        _dump_ids(path / "items.txt", store.items, "item")
        arrays: dict[str, dict[str, object]] = {}

        def _emit(name: str, kind: str, values) -> None:
            _dump_array(path / f"{name}.bin", values, kind)
            arrays[name] = {"kind": kind, "size": len(values)}

        for name, kind in _STORE_ARRAYS:
            _emit(name, kind, getattr(store, name))
        _emit("index_ptr", "i8", self.index.ptr)
        _emit("index_neighbor_ids", "i8", self.index.neighbor_ids)
        _emit("index_weights", "f8", self.index.weights)

        if self.alterego is not None:
            fault_point("snapshot.alterego.write")
            payload = {
                source: [[target, weight] for target, weight in replacements]
                for source, replacements in sorted(self.alterego.items())
            }
            (path / "alterego.json").write_text(
                json.dumps(payload, indent=0, sort_keys=True) + "\n", encoding="utf-8"
            )
            _fsync_file(path / "alterego.json")

        manifest = {
            "format": _FORMAT,
            "format_version": _FORMAT_VERSION,
            "byte_order": "little",
            "backend_written": "numpy",  # format-v1 key; load ignores it
            "version": self.version,
            "cf_k": self.cf_k,
            "positive_only": self.positive_only,
            "scale": [self.scale[0], self.scale[1]],
            "n_users": store.n_users,
            "n_items": store.n_items,
            "n_ratings": store.n_ratings,
            "global_mean": store.global_mean,
            "index_k": None,  # format-v1 constants (module docstring)
            "with_significance": False,
            "with_alterego": self.alterego is not None,
            "arrays": arrays,
        }
        # The completeness marker lands last, atomically: temp file,
        # fsync its bytes, rename into place, fsync the directory so
        # the name itself is durable.
        tmp_path = path / (_MANIFEST + ".tmp")
        fault_point("snapshot.manifest.write")
        tmp_path.write_text(
            json.dumps(manifest, indent=2, sort_keys=True) + "\n", encoding="utf-8"
        )
        fault_point("snapshot.manifest.fsync")
        _fsync_file(tmp_path)
        fault_point("snapshot.manifest.rename")
        os.replace(tmp_path, manifest_path)
        fault_point("snapshot.dir.fsync")
        _fsync_dir(path)
        return path

    @classmethod
    def load(cls, directory) -> "ModelSnapshot":
        """Load a snapshot directory written by :meth:`save`."""
        path = Path(directory)
        manifest_path = path / _MANIFEST
        if not manifest_path.exists():
            raise ServingError(
                f"{path} is not a model snapshot (no {_MANIFEST}; an "
                f"interrupted save leaves none — re-save the snapshot)"
            )
        try:
            manifest = json.loads(manifest_path.read_text(encoding="utf-8"))
        except ValueError as exc:
            raise ServingError(
                f"corrupt snapshot manifest {manifest_path}: {exc}"
            ) from exc
        if not isinstance(manifest, dict):
            raise ServingError(
                f"corrupt snapshot manifest {manifest_path}: not a JSON object"
            )
        if manifest.get("format") != _FORMAT:
            raise ServingError(
                f"{path} is not a model snapshot "
                f"(format={manifest.get('format')!r})"
            )
        if manifest.get("format_version") != _FORMAT_VERSION:
            raise ServingError(
                f"snapshot format version "
                f"{manifest.get('format_version')!r} is not supported "
                f"(this build reads version {_FORMAT_VERSION})"
            )
        if manifest.get("byte_order") != "little":  # pragma: no cover
            raise ServingError("snapshot byte order must be little-endian")

        def _field(key: str, *types):
            return required_field(
                manifest, key, types, f"snapshot manifest {manifest_path}")

        entries = _field("arrays", dict)

        def _fetch(name: str):
            what = f"snapshot {path} array entry {name!r}"
            entry = required_field(
                entries, name, (dict,), f"snapshot {path} array table")
            kind = required_field(entry, "kind", (str,), what)
            if kind not in _NP_DTYPES:
                raise ServingError(f"{what} has unknown kind {kind!r}")
            size = required_field(entry, "size", (int,), what)
            return _read_array(path / f"{name}.bin", kind, size)

        if _field("index_k", int, type(None)) is not None:
            raise ServingError(
                f"snapshot {path} holds truncated index rows; serving "
                f"needs complete ones"
            )
        n_users, n_items = _field("n_users", int), _field("n_items", int)
        users = _read_ids(path / "users.txt")
        items = _read_ids(path / "items.txt")
        if len(users) != n_users or len(items) != n_items:
            raise ServingError(
                f"snapshot {path} id files disagree with the manifest "
                f"({len(users)}/{n_users} users, "
                f"{len(items)}/{n_items} items)"
            )
        arrays = {name: _fetch(name) for name, _ in _STORE_ARRAYS}
        store = _store_from_arrays(
            users,
            items,
            arrays,
            _field("n_ratings", int),
            float(_field("global_mean", int, float)),
        )
        index = NeighborIndex(
            items,
            store.item_index,
            _fetch("index_ptr"),
            _fetch("index_neighbor_ids"),
            _fetch("index_weights"),
        )

        scale = _field("scale", list)
        if len(scale) != 2 or not all(type(bound) in (int, float) for bound in scale):
            raise ServingError(
                f"snapshot manifest {manifest_path} key 'scale' holds "
                f"{scale!r}, expected two numbers"
            )
        snapshot = cls(
            store,
            index,
            cf_k=_field("cf_k", int),
            positive_only=_field("positive_only", bool),
            scale=scale,
            version=_field("version", int),
        )
        if manifest.get("with_alterego"):
            mapping = json.loads((path / "alterego.json").read_text(encoding="utf-8"))
            snapshot.alterego = {
                source: tuple(
                    (target, float(weight)) for target, weight in replacements
                )
                for source, replacements in mapping.items()
            }
        return snapshot
