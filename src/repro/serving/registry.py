"""The atomic hot-swap model registry.

One writer, many readers. The registry holds the *current*
:class:`~repro.serving.snapshot.ModelSnapshot` and swaps it atomically
when a new version is published; a reader **pins** a version for the
duration of a request and keeps serving from that snapshot even while
the next version lands — no torn reads, because snapshots share no
mutable state with their successors (the incremental-update machinery
returns new stores and new index objects instead of patching old ones).
This is the availability-first reader discipline of production
recommenders: readers are never blocked by a publish and never observe
a half-swapped model, they just serve the version they pinned.

The writer side closes the loop with the incremental path: a registry
built over an :class:`~repro.engine.sharded_sweep.IncrementalSweep`
publishes each :meth:`update` as the next version via the sweep's
entry-level index splice — O(delta), not a rebuild — and hands the update's
:class:`~repro.engine.sharded_sweep.IncrementalUpdateStats` census to
subscribers (the service's caches use it for delta-targeted eviction).

Retention: superseded versions are dropped as soon as their last pin is
released, so memory holds the current model plus whatever in-flight
requests still reference.

Durability: a registry whose writer is a
:class:`~repro.durability.manager.DurableSweep` gets the write-ahead
discipline for free — :meth:`ModelRegistry.update` hands the batch to
the durable sweep, which logs it before any in-memory state moves and
checkpoints on its policy. After a crash,
:meth:`ModelRegistry.recover` rebuilds the whole writer from the
directory (last checkpoint snapshot + log-tail replay) and publishes
the recovered state as version 1; the responses it serves are within
1e-9 of the uninterrupted registry's (bit-identical —
property-tested in ``tests/test_durability.py``).
"""

from __future__ import annotations

import threading
from typing import TYPE_CHECKING, Callable, Iterable

from repro.errors import ServingError
from repro.serving.snapshot import ModelSnapshot

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.data.ratings import Rating
    from repro.engine.sharded_sweep import (
        IncrementalSweep,
        IncrementalUpdateStats,
    )

#: subscriber signature: (version, snapshot, update stats or None).
PublishCallback = Callable[[int, ModelSnapshot, "object | None"], None]


class PinnedModel:
    """A reader's lease on one snapshot version.

    Use as a context manager (or call :meth:`release` explicitly): the
    pinned :attr:`snapshot` stays retained — and therefore fully
    coherent — until released, however many versions the writer
    publishes in the meantime. Release is idempotent.
    """

    __slots__ = ("_registry", "version", "snapshot", "_released")

    def __init__(
        self, registry: "ModelRegistry", version: int, snapshot: ModelSnapshot
    ) -> None:
        self._registry = registry
        self.version = version
        self.snapshot = snapshot
        self._released = False

    def release(self) -> None:
        if not self._released:
            self._released = True
            self._registry._release(self.version)

    def __enter__(self) -> "PinnedModel":
        return self

    def __exit__(self, *exc_info) -> None:
        self.release()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "released" if self._released else "pinned"
        return f"PinnedModel(version={self.version}, {state})"


class ModelRegistry:
    """Versioned snapshot publication with pinned readers.

    Args:
        snapshot: an initial model to publish as version 1.
        sweep: attach an incremental writer instead — the sweep's
            current state becomes version 1 and :meth:`update` appends
            rating batches through it (mutually exclusive with
            *snapshot*; a sweep-less registry is read-only and serves
            whatever :meth:`publish` hands it). A
            :class:`~repro.durability.manager.DurableSweep` is accepted
            here too: updates are then write-ahead logged and
            checkpointed before they publish.
        cf_k / positive_only: serving parameters stamped on snapshots
            the registry derives from the sweep.

    Thread contract: any number of reader threads may call
    :meth:`current` / :meth:`pin` concurrently with one writer thread
    calling :meth:`publish` / :meth:`update` (updates are additionally
    serialized against each other by an internal writer lock, so two
    writer threads won't interleave a sweep update with a publish).
    """

    @classmethod
    def recover(cls, directory, **recover_kwargs) -> "ModelRegistry":
        """Rebuild a registry from a crashed durable store *directory*.

        Runs :meth:`~repro.durability.manager.DurableSweep.recover`
        (checkpoint snapshot + write-ahead-log tail replay, torn tails
        repaired) and publishes the recovered model as this registry's
        version 1, with the durable sweep attached as the writer so
        subsequent :meth:`update` calls keep the same crash-safety.
        Serving parameters (``cf_k``, ``positive_only``) come from the
        store's persisted configuration; *recover_kwargs* pass through
        to ``DurableSweep.recover`` (e.g. ``n_shards``).
        """
        from repro.durability.manager import DurableSweep

        durable = DurableSweep.recover(directory, **recover_kwargs)
        return cls(
            sweep=durable, cf_k=durable.cf_k, positive_only=durable.positive_only
        )

    def __init__(
        self,
        snapshot: ModelSnapshot | None = None,
        sweep: "IncrementalSweep | None" = None,
        cf_k: int = 50,
        positive_only: bool = True,
    ) -> None:
        if snapshot is not None and sweep is not None:
            raise ServingError(
                "pass either an initial snapshot or a writer sweep, "
                "not both (the sweep's state becomes the first version)"
            )
        self._lock = threading.Lock()
        self._write_lock = threading.Lock()
        self._versions: dict[int, ModelSnapshot] = {}
        self._pins: dict[int, int] = {}
        self._current: ModelSnapshot | None = None
        self._next_version = 1
        self._subscribers: list[PublishCallback] = []
        self._sweep = sweep
        self._cf_k = cf_k
        self._positive_only = positive_only
        if sweep is not None:
            self.publish(
                ModelSnapshot.from_sweep(sweep, cf_k=cf_k, positive_only=positive_only)
            )
        elif snapshot is not None:
            self.publish(snapshot)

    # ------------------------------------------------------------------
    # Reader side
    # ------------------------------------------------------------------

    def current(self) -> ModelSnapshot:
        """The latest published snapshot (unpinned — fine for one-shot
        reads; pin for anything spanning multiple lookups)."""
        snapshot = self._current
        if snapshot is None:
            raise ServingError("the registry has no published model yet")
        return snapshot

    def current_version(self) -> int:
        return self.current().version

    def pin(self) -> PinnedModel:
        """Pin the current version for the duration of a request."""
        with self._lock:
            snapshot = self._current
            if snapshot is None:
                raise ServingError("the registry has no published model yet")
            version = snapshot.version
            self._pins[version] = self._pins.get(version, 0) + 1
        return PinnedModel(self, version, snapshot)

    def _release(self, version: int) -> None:
        with self._lock:
            remaining = self._pins.get(version, 0) - 1
            if remaining > 0:
                self._pins[version] = remaining
            else:
                self._pins.pop(version, None)
                self._retire_locked()

    def _retire_locked(self) -> None:
        current = self._current
        current_version = current.version if current is not None else None
        for version in [
            v
            for v in self._versions
            if v != current_version and self._pins.get(v, 0) == 0
        ]:
            del self._versions[version]

    def versions(self) -> list[int]:
        """Retained version numbers (current + still-pinned), ascending."""
        with self._lock:
            return sorted(self._versions)

    def reader_count(self, version: int | None = None) -> int:
        """Active pins on *version* (default: across all versions)."""
        with self._lock:
            if version is not None:
                return self._pins.get(version, 0)
            return sum(self._pins.values())

    # ------------------------------------------------------------------
    # Writer side
    # ------------------------------------------------------------------

    def publish(
        self, snapshot: ModelSnapshot, stats: "IncrementalUpdateStats | None" = None
    ) -> int:
        """Publish *snapshot* as the next version and return its number.

        The swap is a single reference assignment under the registry
        lock — readers either see the old version or the new one, never
        a mixture. Subscribers run after the swap, outside the lock,
        with the update *stats* when the publish came from
        :meth:`update` (``None`` means "unrelated model: assume
        everything changed").

        A snapshot that already carries a version (> 0 — e.g. loaded
        from disk) keeps it, provided it moves the registry forward;
        an unversioned one is stamped with the next number. Versions
        are strictly monotone either way.
        """
        with self._lock:
            if any(existing is snapshot for existing in self._versions.values()):
                raise ServingError(
                    "this snapshot object is already published; "
                    "publish a new ModelSnapshot per version"
                )
            if snapshot.version > 0:
                version = snapshot.version
                if version < self._next_version:
                    raise ServingError(
                        f"cannot publish version {version} behind the "
                        f"registry (next version is "
                        f"{self._next_version}); clear the snapshot's "
                        f"version to have one assigned"
                    )
            else:
                version = self._next_version
            self._next_version = version + 1
            snapshot.version = version
            self._versions[version] = snapshot
            self._current = snapshot
            self._retire_locked()
            subscribers = list(self._subscribers)
        for callback in subscribers:
            callback(version, snapshot, stats)
        return version

    def update(self, batch: "Iterable[Rating]") -> "tuple[int, IncrementalUpdateStats]":
        """Append a rating *batch* through the attached sweep and
        publish the spliced result as the next version.

        Readers pinned to older versions keep serving them untouched;
        the stats census travels to subscribers for delta-targeted
        cache eviction. Returns ``(version, stats)``.
        """
        if self._sweep is None:
            raise ServingError(
                "this registry has no writer sweep attached; construct "
                "it with ModelRegistry(sweep=...) to publish updates"
            )
        with self._write_lock:
            stats = self._sweep.update(batch)
            snapshot = ModelSnapshot.from_sweep(
                self._sweep, cf_k=self._cf_k, positive_only=self._positive_only
            )
            version = self.publish(snapshot, stats=stats)
        return version, stats

    def subscribe(self, callback: PublishCallback) -> None:
        """Register a post-publish callback (the service's cache layer).

        Callbacks run on the publishing thread, after the atomic swap.
        The registry holds a strong reference — pair every transient
        subscriber with :meth:`unsubscribe`
        (:meth:`~repro.serving.service.RecommendationService.close`
        does) or it outlives its usefulness here.
        """
        with self._lock:
            self._subscribers.append(callback)

    def unsubscribe(self, callback: PublishCallback) -> None:
        """Remove a subscriber registered with :meth:`subscribe`
        (a no-op when it is not registered)."""
        with self._lock:
            try:
                self._subscribers.remove(callback)
            except ValueError:
                pass

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        current = self._current
        return (
            f"ModelRegistry(current="
            f"{current.version if current else None}, "
            f"retained={len(self._versions)}, "
            f"writer={'sweep' if self._sweep else 'none'})"
        )
