"""Multi-process model publication: snapshot catalogs and watchers.

The :class:`~repro.serving.registry.ModelRegistry` hot swap is
thread-only — writer and readers share one address space. This module
is the cross-process half of the same contract:

* a :class:`SnapshotCatalog` is the **publisher side**: a directory of
  immutable versioned snapshot directories (``v-00000001/``, …) plus an
  atomically replaced ``CURRENT.json`` pointer. Each version is a
  complete :class:`~repro.serving.snapshot.ModelSnapshot` save
  (MANIFEST-last, fully fsynced), and the pointer is only moved after
  the snapshot it names is durable — a reader can never be pointed at
  a half-written model. :meth:`SnapshotCatalog.attach` mirrors every
  in-process registry publish into the catalog, which is how a
  :class:`~repro.engine.sharded_sweep.IncrementalSweep` writer reaches
  a fleet of worker processes.
* a :class:`RegistryWatcher` is the **subscriber side**: it polls a
  published source and feeds each new version into a local (usually
  read-only) registry via the ordinary
  :meth:`~repro.serving.registry.ModelRegistry.publish`, so everything
  downstream — pinning, cache invalidation, the version handshake —
  behaves exactly as it does in-process. Loads go through
  :meth:`~repro.serving.snapshot.ModelSnapshot.load`, so
  every worker process memory-maps the same bytes and the page
  cache is shared across the fleet for free.

Three source layouts are watched, detected per poll:

========================  ==============================================
source holds              watched as
========================  ==============================================
``CURRENT.json``          a :class:`SnapshotCatalog` root — the pointer
                          carries the authoritative version number, so
                          every watcher in the fleet agrees on it (what
                          the gateway's version handshake needs)
``CHECKPOINT.json``       a :class:`~repro.durability.manager.DurableSweep`
                          store — workers converge on each checkpoint;
                          versions are ``applied_seq + 1`` (fleet-wide
                          consistent, strictly monotone)
``MANIFEST.json``         a single snapshot directory — reloaded when
                          the manifest changes on disk (a static model,
                          or an operator re-saving in place)
========================  ==============================================

Version agreement across watchers is what makes the numbers meaningful
on the wire: two workers watching the same catalog or durable store
always report the same version for the same bytes, even if one of them
restarted and never saw the intermediate versions.
"""

from __future__ import annotations

import json
import os
import shutil
import time
from pathlib import Path
from typing import TYPE_CHECKING

from repro.errors import ServingError
from repro.faults.plan import InjectedFault, fault_point
from repro.obs.metrics import get_registry, observe_stage_seconds
from repro.serving.registry import ModelRegistry
from repro.serving.snapshot import (
    ModelSnapshot,
    _fsync_dir,
    _fsync_file,
    required_field,
)

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.engine.sharded_sweep import IncrementalUpdateStats

CATALOG_POINTER = "CURRENT.json"
_CATALOG_FORMAT = "xmap-snapshot-catalog"
_CATALOG_FORMAT_VERSION = 1
_CHECKPOINT_FILE = "CHECKPOINT.json"
_MANIFEST_FILE = "MANIFEST.json"

_M_PRUNE_FAILURES = get_registry().counter(
    "catalog_prune_failures_total",
    "retired catalog versions a publish failed to delete (retried next publish)")


def _version_dir_name(version: int) -> str:
    return f"v-{version:08d}"


class SnapshotCatalog:
    """A directory of versioned snapshots with an atomic pointer.

    Single-writer, many cross-process readers. Every
    :meth:`publish` writes the snapshot to a **fresh** version
    directory (never in place — readers may be memory-mapping the
    previous one) and then atomically replaces ``CURRENT.json`` with
    temp-file + fsync + rename + directory fsync, the same durability
    discipline the snapshot writer itself uses. Readers
    (:class:`RegistryWatcher`) that catch the pointer mid-replace see
    either the old complete version or the new complete version.

    Args:
        root: the catalog directory (created if missing).
        keep_last: retain at most this many version directories,
            pruning the oldest after each publish. ``None`` keeps
            everything. Pruning unlinks files a reader may still have
            mapped — harmless on POSIX (the pages stay valid until the
            last map closes), but a reader loading a pruned version
            races a ``ServingError`` and simply re-polls the pointer.
    """

    def __init__(self, root, keep_last: int | None = None) -> None:
        if keep_last is not None and keep_last < 1:
            raise ServingError(f"keep_last must be >= 1 or None, got {keep_last}")
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)
        self.keep_last = keep_last
        self._subscribed: ModelRegistry | None = None

    # ------------------------------------------------------------------
    # Publisher side
    # ------------------------------------------------------------------

    def current(self) -> tuple[int, Path] | None:
        """The pointed-to ``(version, snapshot_path)``, or ``None`` for
        an empty catalog."""
        pointer = _read_json(self.root / CATALOG_POINTER)
        if pointer is None:
            return None
        if pointer.get("format") != _CATALOG_FORMAT:
            raise ServingError(
                f"{self.root} is not a snapshot catalog "
                f"(format={pointer.get('format')!r})"
            )
        return int(pointer["version"]), self.root / pointer["path"]

    def versions(self) -> list[int]:
        """Version numbers present on disk, ascending."""
        found = []
        for entry in self.root.iterdir():
            name = entry.name
            if entry.is_dir() and name.startswith("v-"):
                try:
                    found.append(int(name[2:]))
                except ValueError:
                    continue
        return sorted(found)

    def publish(self, snapshot: ModelSnapshot, version: int | None = None) -> int:
        """Write *snapshot* as the next version and move the pointer.

        The version is taken (in priority order) from the *version*
        argument, the snapshot's own stamped version, or the pointer's
        successor; it must move the catalog strictly forward. Returns
        the published version number. Each call adds one sample per
        stage to ``catalog_publish_stage_seconds{save,pointer,prune}``.
        """
        current = self.current()
        last = current[0] if current is not None else 0
        if version is None:
            version = snapshot.version if snapshot.version > 0 else last + 1
        if version <= last:
            raise ServingError(
                f"cannot publish version {version} behind the catalog "
                f"(currently at {last}); versions are strictly monotone"
            )
        snapshot.version = version
        name = _version_dir_name(version)
        # overwrite=True: a fresh version directory can only be
        # non-empty if a previous publish of this same version crashed
        # before moving the pointer — its leftovers are unreachable.
        started = time.perf_counter()
        snapshot.save(self.root / name, overwrite=True)
        saved = time.perf_counter()
        pointer = {
            "format": _CATALOG_FORMAT,
            "format_version": _CATALOG_FORMAT_VERSION,
            "version": version,
            "path": name,
        }
        tmp_path = self.root / (CATALOG_POINTER + ".tmp")
        tmp_path.write_text(
            json.dumps(pointer, indent=2, sort_keys=True) + "\n",
            encoding="utf-8",
        )
        _fsync_file(tmp_path)
        os.replace(tmp_path, self.root / CATALOG_POINTER)
        _fsync_dir(self.root)
        pointed = time.perf_counter()
        if self.keep_last is not None:
            self._prune(version)
        observe_stage_seconds("catalog_publish", {
            "save": saved - started, "pointer": pointed - saved,
            "prune": time.perf_counter() - pointed})
        return version

    def _prune(self, current_version: int) -> None:
        """Delete the versions behind ``keep_last``; one that fails is
        counted and left for the next publish to retry."""
        floor = current_version - self.keep_last + 1
        for version in self.versions():
            if version < floor:
                try:
                    fault_point("catalog.prune")
                    shutil.rmtree(self.root / _version_dir_name(version))
                except (OSError, InjectedFault):
                    _M_PRUNE_FAILURES.inc()

    # ------------------------------------------------------------------
    # Registry mirroring
    # ------------------------------------------------------------------

    def attach(self, registry: ModelRegistry) -> None:
        """Mirror every future publish of *registry* into this catalog
        (the writer-process hook: one in-process ``registry.update()``
        lands on disk for the whole fleet). The registry's current
        version is published immediately if the catalog is behind it.
        Pair with :meth:`detach`."""
        if self._subscribed is not None:
            raise ServingError("this catalog is already attached")
        self._subscribed = registry
        current = self.current()
        snapshot = registry.current()
        if current is None or current[0] < snapshot.version:
            self.publish(snapshot, version=snapshot.version)
        registry.subscribe(self._on_publish)

    def detach(self) -> None:
        """Stop mirroring the registry attached by :meth:`attach`."""
        if self._subscribed is not None:
            self._subscribed.unsubscribe(self._on_publish)
            self._subscribed = None

    def _on_publish(
        self,
        version: int,
        snapshot: ModelSnapshot,
        stats: "IncrementalUpdateStats | None",
    ) -> None:
        self.publish(snapshot, version=version)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        current = self.current()
        return (
            f"SnapshotCatalog({str(self.root)!r}, "
            f"current={current[0] if current else None})"
        )


def _read_json(path: Path) -> dict | None:
    """A pointer file's JSON, or ``None`` if it is missing/unreadable.

    Pointer files are replaced atomically, so "unreadable" only happens
    for sources that are not yet (or no longer) published — callers
    treat it as "nothing new" and poll again later.
    """
    try:
        document = json.loads(path.read_text(encoding="utf-8"))
    except (OSError, ValueError):
        return None
    return document if isinstance(document, dict) else None


class RegistryWatcher:
    """Feed a local :class:`~repro.serving.registry.ModelRegistry` from
    a published on-disk source (see the module docstring for the three
    layouts). :meth:`poll` is cheap when nothing changed — one stat +
    small JSON read — so serving loops call it on a short interval and
    again on demand when a request's version handshake requires a newer
    model than the local registry holds.
    """

    def __init__(
        self,
        source,
        registry: ModelRegistry | None = None,
    ) -> None:
        self.source = Path(source)
        self.registry = registry if registry is not None else ModelRegistry()
        self.n_loads = 0
        self.n_load_failures = 0
        self._fingerprint: tuple | None = None

    @property
    def version(self) -> int:
        """The local registry's current version (0 before any load)."""
        try:
            return self.registry.current_version()
        except ServingError:
            return 0

    def poll(self) -> int | None:
        """Check the source once; load and publish when it moved.

        Returns the newly published version, or ``None`` when the
        source is unchanged, not yet published, or mid-transition (a
        load that races a prune/re-publish is abandoned and retried on
        the next poll — the registry never sees a partial model). A
        publish the loader refuses is counted in
        :attr:`n_load_failures`; the previous version keeps serving.
        """
        try:
            reference = self._read_source()
            if reference is None or reference[0] == self._fingerprint:
                return None
            fingerprint, snapshot_path, version_hint = reference
            snapshot = ModelSnapshot.load(snapshot_path)
        except (ServingError, OSError, ValueError):
            self.n_load_failures += 1
            return None
        next_version = self.version + 1
        version = max(version_hint, next_version)
        snapshot.version = version
        self.registry.publish(snapshot)
        self.n_loads += 1
        self._fingerprint = fingerprint
        return version

    def _read_source(self) -> tuple[tuple, Path, int] | None:
        """``(fingerprint, snapshot_path, version_hint)`` for whatever
        the source currently publishes, or ``None``."""
        source = self.source
        pointer = _read_json(source / CATALOG_POINTER)
        if pointer is not None and pointer.get("format") == _CATALOG_FORMAT:
            version = required_field(pointer, "version", (int,), CATALOG_POINTER)
            return (
                ("catalog", version),
                source / required_field(pointer, "path", (str,), CATALOG_POINTER),
                version,
            )
        pointer = _read_json(source / _CHECKPOINT_FILE)
        if pointer is not None and "applied_seq" in pointer:
            seq = required_field(pointer, "applied_seq", (int,), _CHECKPOINT_FILE)
            return (
                ("checkpoint", seq),
                source / required_field(pointer, "snapshot", (str,), _CHECKPOINT_FILE),
                seq + 1,
            )
        manifest_path = source / _MANIFEST_FILE
        manifest = _read_json(manifest_path)
        if manifest is not None:
            try:
                mtime = manifest_path.stat().st_mtime_ns
            except OSError:
                return None
            version = required_field(manifest, "version", (int,), _MANIFEST_FILE)
            return ("manifest", version, mtime), source, max(version, 1)
        return None

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"RegistryWatcher({str(self.source)!r}, "
            f"version={self.version}, loads={self.n_loads})"
        )
