"""Rating records and the indexed rating store.

The whole library works on explicit feedback: a user assigned a numeric
value to an item at a logical timestep (§2.1, Table 1 of the paper). The
:class:`RatingTable` is the single source of truth for that data. It keeps
two redundant indexes — by user (``X_u``, the user profile) and by item
(``Y_i``, the item profile) — because the paper's algorithms constantly
switch between the two views: user-based CF iterates over ``X_u``,
item-based CF and the similarity graph iterate over ``Y_i``.

Tables are immutable after construction. Derived tables (filtering users,
merging domains, hiding test ratings) are produced by the ``with_*`` /
``without_*`` methods, which return new tables. This keeps the evaluation
protocols side-effect free: hiding a test user's ratings can never corrupt
the training data another experiment is using.

A table is object-built (the constructor: ``Rating`` objects, checked one
by one, both dict indexes at once) or column-backed
(:meth:`RatingTable.from_columns`: interned code, value and timestep
arrays, the same two checks as one array pass each, no ``Rating``). A
column-backed table answers ``len``, ``scale``, ``columns()`` and
``matrix()`` from its arrays and builds the dict indexes the first time
anything else reads them — counted and timed in the ``obs`` registry.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from typing import (
    TYPE_CHECKING, Callable, Iterable, Iterator, Mapping, NamedTuple, Sequence)

import numpy as np

from repro.errors import DataError
from repro.obs import get_registry

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (typing only)
    from repro.data.matrix import MatrixRatingStore

#: Default rating scale used by the Amazon and MovieLens traces (§6.1).
DEFAULT_SCALE = (1.0, 5.0)

_M_VIEWS_BUILT = get_registry().counter(
    "rating_table_views_built_total",
    "column-backed rating tables whose dict-of-Rating views were built")
_M_VIEW_SECONDS = get_registry().counter(
    "rating_table_view_build_seconds_total",
    "wall seconds spent building those views")


def line_break_id(ids: Sequence[str]) -> str | None:
    """The first of *ids* holding a character ``str.splitlines`` splits
    at, or ``None``. A snapshot's id files hold one id per line, so the
    write path refuses such an id before logging it and the snapshot
    writer before writing it. One round trip over the joined text
    decides; ids are scanned one by one only to name the offender."""
    ids = list(ids)
    if "".join([name + "\n" for name in ids]).splitlines() == ids:
        return None
    return next(name for name in ids if name and name.splitlines() != [name])


@dataclass(frozen=True, slots=True)
class Rating:
    """A single explicit-feedback event.

    Attributes:
        user: user identifier (``u`` in the paper's notation).
        item: item identifier (``i``).
        value: the rating ``r_{u,i}``.
        timestep: logical time of the event (footnote 7 of the paper); used
            by the temporal weighting of Eq. 7. Defaults to 0 for data
            without timestamps.
    """

    user: str
    item: str
    value: float
    timestep: int = 0

    def moved_to(self, item: str) -> "Rating":
        """Return the same rating attached to a different item.

        This is the primitive behind AlterEgo construction (§4.3): the
        rating and its timestep travel, only the item id changes.
        """
        return Rating(self.user, item, self.value, self.timestep)


class RatingColumns(NamedTuple):
    """A table's ratings as parallel columns: row *k* is ``(users[
    user_codes[k]], items[item_codes[k]], values[k], timesteps[k])``.
    ``users`` / ``items`` hold distinct ids, each used by some row;
    codes and timesteps are int64, values float64."""

    users: Sequence[str]
    items: Sequence[str]
    user_codes: np.ndarray
    item_codes: np.ndarray
    values: np.ndarray
    timesteps: np.ndarray

    def ratings(self) -> Iterator[Rating]:
        """The rows as ``Rating`` objects, in row order."""
        for user, item, value, timestep in zip(
                self.user_codes.tolist(), self.item_codes.tolist(),
                self.values.tolist(), self.timesteps.tolist()):
            yield Rating(self.users[user], self.items[item], value, timestep)


class RatingTable:
    """Immutable, doubly-indexed store of ratings.

    Args:
        ratings: the rating events. A (user, item) pair may appear at most
            once; duplicates raise :class:`~repro.errors.DataError`.
        scale: inclusive ``(min, max)`` rating bounds; out-of-range values
            raise :class:`~repro.errors.DataError`.
    """

    __slots__ = ("_by_user", "_by_item", "_columns", "_scale", "_n",
                 "_user_mean_cache", "_item_mean_cache", "_global_mean_cache",
                 "_matrix_cache", "_matrix_delta_base")

    def __init__(self, ratings: Iterable[Rating] = (),
                 scale: tuple[float, float] = DEFAULT_SCALE) -> None:
        self._reset(scale, None)
        lo, hi = scale
        by_user: dict[str, dict[str, Rating]] = {}
        by_item: dict[str, dict[str, Rating]] = {}
        n = 0
        for r in ratings:
            if not lo <= r.value <= hi:
                raise DataError(
                    f"rating {r.value} by {r.user!r} for {r.item!r} "
                    f"outside scale [{lo}, {hi}]")
            profile = by_user.setdefault(r.user, {})
            if r.item in profile:
                raise DataError(
                    f"duplicate rating for (user={r.user!r}, item={r.item!r})")
            profile[r.item] = r
            by_item.setdefault(r.item, {})[r.user] = r
            n += 1
        self._by_user = by_user
        self._by_item = by_item
        self._n = n

    def _reset(self, scale: tuple[float, float], columns: RatingColumns | None) -> None:
        """Set the (checked) scale and the columns; empty every cache."""
        lo, hi = scale
        if not lo < hi:
            raise DataError(f"invalid rating scale {scale!r}: min must be < max")
        self._scale = (float(lo), float(hi))
        self._columns = columns
        self._user_mean_cache: dict[str, float] = {}
        self._item_mean_cache: dict[str, float] = {}
        self._global_mean_cache: float | None = None
        self._matrix_cache = None
        self._matrix_delta_base = None

    @classmethod
    def from_columns(cls, columns: RatingColumns,
                     scale: tuple[float, float] = DEFAULT_SCALE) -> "RatingTable":
        """A column-backed table: the constructor's scale and uniqueness
        checks as one pass over an array each (a failure raises the
        constructor's :class:`~repro.errors.DataError`, naming the first
        offending row), and no ``Rating`` until something reads the dict
        views — which then hold what the constructor would have built
        from the rows in order."""
        table = cls.__new__(cls)
        table._reset(scale, columns)
        lo, hi = scale
        values = columns.values
        pairs = np.sort(columns.user_codes * len(columns.items) + columns.item_codes)
        if not (((lo <= values) & (values <= hi)).all()
                and (pairs[1:] != pairs[:-1]).all()):
            cls(columns.ratings(), scale)  # raises, naming the row
        table._n = len(values)
        return table

    def __getattr__(self, name: str):
        # Reached only while a slot is unset: the dict views of a
        # column-backed table, on their first read.
        if name not in ("_by_user", "_by_item"):
            raise AttributeError(name)
        started = time.perf_counter()
        built = RatingTable(self._columns.ratings(), self._scale)
        self._by_user, self._by_item = built._by_user, built._by_item
        _M_VIEWS_BUILT.inc()
        _M_VIEW_SECONDS.inc(time.perf_counter() - started)
        return getattr(self, name)

    def columns(self) -> RatingColumns:
        """The ratings as :class:`RatingColumns`: the arrays a
        column-backed table holds, or — not kept — one pass over an
        object-built table's ``Rating`` objects in iteration order."""
        if self._columns is not None:
            return self._columns
        item_code = {item: code for code, item in enumerate(self._by_item)}
        profiles = list(self._by_user.values())
        ratings = [r for profile in profiles for r in profile.values()]
        sizes = np.asarray([len(profile) for profile in profiles], dtype=np.int64)
        return RatingColumns(
            list(self._by_user), list(self._by_item),
            np.repeat(np.arange(len(profiles)), sizes),
            np.asarray([item_code[r.item] for r in ratings], dtype=np.int64),
            np.asarray([r.value for r in ratings], dtype=np.float64),
            np.asarray([r.timestep for r in ratings], dtype=np.int64))

    # ------------------------------------------------------------------
    # Basic accessors
    # ------------------------------------------------------------------

    @property
    def scale(self) -> tuple[float, float]:
        """Inclusive (min, max) rating bounds."""
        return self._scale

    @property
    def users(self) -> frozenset[str]:
        """The set ``U`` of users with at least one rating."""
        return frozenset(self._by_user)

    @property
    def items(self) -> frozenset[str]:
        """The set ``I`` of items with at least one rating."""
        return frozenset(self._by_item)

    def __len__(self) -> int:
        return self._n

    def __iter__(self) -> Iterator[Rating]:
        for profile in self._by_user.values():
            yield from profile.values()

    def __contains__(self, user_item: tuple[str, str]) -> bool:
        user, item = user_item
        return item in self._by_user.get(user, ())

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"RatingTable(users={len(self._by_user)}, "
                f"items={len(self._by_item)}, ratings={self._n})")

    def get(self, user: str, item: str) -> Rating | None:
        """Return the rating of *item* by *user*, or None."""
        return self._by_user.get(user, {}).get(item)

    def value(self, user: str, item: str) -> float:
        """Return ``r_{u,i}``; raises DataError if absent."""
        rating = self.get(user, item)
        if rating is None:
            raise DataError(f"no rating for (user={user!r}, item={item!r})")
        return rating.value

    def user_profile(self, user: str) -> Mapping[str, Rating]:
        """``X_u``: items rated by *user*, as an item → Rating mapping.

        Unknown users yield an empty mapping (a user the recommender has
        never seen simply has no history).
        """
        return self._by_user.get(user, {})

    def item_profile(self, item: str) -> Mapping[str, Rating]:
        """``Y_i``: users who rated *item*, as a user → Rating mapping."""
        return self._by_item.get(item, {})

    def user_items(self, user: str) -> frozenset[str]:
        """The item ids in ``X_u``."""
        return frozenset(self._by_user.get(user, ()))

    def item_users(self, item: str) -> frozenset[str]:
        """The user ids in ``Y_i``."""
        return frozenset(self._by_item.get(item, ()))

    # ------------------------------------------------------------------
    # Means (cached — they are read inside similarity inner loops)
    # ------------------------------------------------------------------

    def user_mean(self, user: str) -> float:
        """``r̄_u``: mean rating of *user* (global mean if unknown user)."""
        cached = self._user_mean_cache.get(user)
        if cached is not None:
            return cached
        profile = self._by_user.get(user)
        if not profile:
            return self.global_mean()
        mean = math.fsum(r.value for r in profile.values()) / len(profile)
        self._user_mean_cache[user] = mean
        return mean

    def item_mean(self, item: str) -> float:
        """``r̄_i``: mean rating of *item* (global mean if unknown item).

        Footnote 3 of the paper completes the sparse matrix with item
        averages, which is why the unknown-item fallback is the global
        mean rather than an error.
        """
        cached = self._item_mean_cache.get(item)
        if cached is not None:
            return cached
        profile = self._by_item.get(item)
        if not profile:
            return self.global_mean()
        mean = math.fsum(r.value for r in profile.values()) / len(profile)
        self._item_mean_cache[item] = mean
        return mean

    def global_mean(self) -> float:
        """Mean over all ratings (midpoint of the scale if empty)."""
        if self._global_mean_cache is None:
            if self._n == 0:
                lo, hi = self._scale
                self._global_mean_cache = (lo + hi) / 2.0
            else:
                total = math.fsum(r.value for r in self)
                self._global_mean_cache = total / self._n
        return self._global_mean_cache

    # ------------------------------------------------------------------
    # Indexed view (the similarity layer's hot-path representation)
    # ------------------------------------------------------------------

    def matrix(self) -> "MatrixRatingStore":
        """The interned, array-backed view of this table (memoized).

        Built lazily on first use and shared by every similarity entry
        point, so one pipeline run derives the per-user/per-item arrays,
        means and norms exactly once. Tables are immutable, which is what
        makes the memoization sound.

        A table derived through :meth:`with_ratings` / :meth:`merged_with`
        from a table whose store was already built carries a **delta
        handoff**: the first :meth:`matrix` call appends the batch to the
        parent's memoized store
        (:meth:`~repro.data.matrix.MatrixRatingStore.append_ratings` —
        bit-identical to a fresh build, property-tested) instead of
        re-interning and re-summing the whole table. This is what keeps
        online AlterEgo appends from paying a full store rebuild.
        """
        if self._matrix_cache is None:
            handoff = self._matrix_delta_base
            self._matrix_delta_base = None
            if handoff is not None:
                base_store, batch = handoff
                self._matrix_cache = base_store.append_ratings(batch)[0]
            else:
                from repro.data.matrix import MatrixRatingStore
                self._matrix_cache = MatrixRatingStore(self)
        return self._matrix_cache

    # ------------------------------------------------------------------
    # Derivation (immutable-style updates)
    # ------------------------------------------------------------------

    #: A derived table hands its parent's memoized store off for an
    #: incremental append only when the batch is small relative to the
    #: table — appending a comparable-size batch touches most rows and
    #: a fresh build is the faster (and equal) path.
    _DELTA_HANDOFF_RATIO = 4

    def _arm_delta_handoff(self, derived: "RatingTable",
                           batch: tuple[Rating, ...]) -> "RatingTable":
        """Attach the (store, batch) delta handoff to a derived table
        when this table's store is built and the batch is small."""
        if (self._matrix_cache is not None
                and len(batch) * self._DELTA_HANDOFF_RATIO <= self._n):
            derived._matrix_delta_base = (self._matrix_cache, batch)
        return derived

    def with_ratings(self, ratings: Iterable[Rating]) -> "RatingTable":
        """Return a new table with *ratings* added (or overriding existing
        (user, item) entries — used when appending an AlterEgo to a real
        target profile, footnote 6).

        Derives in O(batch), not O(table): untouched per-user profiles
        and per-item columns are *shared* with this table (they are never
        mutated after construction — every derivation builds new dicts —
        so sharing is safe); only those the batch touches are copied.
        If this table's :meth:`matrix` store is already built and the
        batch is small, the derived table inherits it through the
        incremental append path instead of rebuilding — the two halves
        of what keeps an online append from paying table-sized work.
        """
        batch = tuple(ratings)
        lo, hi = self._scale
        by_user = dict(self._by_user)
        by_item = dict(self._by_item)
        touched_profiles: dict[str, dict[str, Rating]] = {}
        touched_columns: dict[str, dict[str, Rating]] = {}
        n = self._n
        for r in batch:
            if not lo <= r.value <= hi:
                raise DataError(
                    f"rating {r.value} by {r.user!r} for {r.item!r} "
                    f"outside scale [{lo}, {hi}]")
            profile = touched_profiles.get(r.user)
            if profile is None:
                profile = dict(by_user.get(r.user, ()))
                touched_profiles[r.user] = profile
                by_user[r.user] = profile
            column = touched_columns.get(r.item)
            if column is None:
                column = dict(by_item.get(r.item, ()))
                touched_columns[r.item] = column
                by_item[r.item] = column
            if r.item not in profile:
                n += 1
            profile[r.item] = r
            column[r.user] = r
        table = RatingTable.__new__(RatingTable)
        table._reset(self._scale, None)
        table._by_user = by_user
        table._by_item = by_item
        table._n = n
        return self._arm_delta_handoff(table, batch)

    def without_users(self, users: Iterable[str]) -> "RatingTable":
        """Return a new table with every rating by *users* removed."""
        gone = set(users)
        return RatingTable((r for r in self if r.user not in gone), scale=self._scale)

    def without_items(self, items: Iterable[str]) -> "RatingTable":
        """Return a new table with every rating of *items* removed."""
        gone = set(items)
        return RatingTable((r for r in self if r.item not in gone), scale=self._scale)

    def without_pairs(self, pairs: Iterable[tuple[str, str]]) -> "RatingTable":
        """Return a new table with the given (user, item) ratings removed.

        This is the primitive behind the evaluation protocol of §6.1:
        hiding (part of) a test user's target-domain profile.
        """
        gone = set(pairs)
        return RatingTable(
            (r for r in self if (r.user, r.item) not in gone),
            scale=self._scale)

    def filter(self, predicate: Callable[[Rating], bool]) -> "RatingTable":
        """Return a new table with only the ratings matching *predicate*."""
        return RatingTable((r for r in self if predicate(r)), scale=self._scale)

    def restricted_to_items(self, items: Iterable[str]) -> "RatingTable":
        """Return a new table keeping only ratings of *items*."""
        keep = set(items)
        return RatingTable((r for r in self if r.item in keep), scale=self._scale)

    def merged_with(self, other: "RatingTable") -> "RatingTable":
        """Union of two tables (used by the Baseliner, §5.1, to treat the
        source and target domains as a single aggregated domain).

        The tables must not disagree on any (user, item) pair. When this
        table's :meth:`matrix` store is built and *other* is small, the
        merged table inherits it through the incremental append path.
        """
        if other.scale != self._scale:
            raise DataError(
                f"cannot merge tables with scales {self._scale} and {other.scale}")
        combined: dict[tuple[str, str], Rating] = {(r.user, r.item): r for r in self}
        batch = tuple(other)
        for r in batch:
            key = (r.user, r.item)
            existing = combined.get(key)
            if existing is not None and existing != r:
                raise DataError(f"conflicting ratings for {key!r}: {existing} vs {r}")
            combined[key] = r
        return self._arm_delta_handoff(
            RatingTable(combined.values(), scale=self._scale), batch)

    def clip(self, value: float) -> float:
        """Clamp *value* into the rating scale (used on predictions)."""
        lo, hi = self._scale
        return min(hi, max(lo, value))
