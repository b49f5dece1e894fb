"""Datasets and the two-domain container for the heterogeneous problem.

A :class:`Dataset` is a named single-domain rating table — "movies",
"books", "ml-20m". A :class:`CrossDomainDataset` is Problem 1 of the
paper: a source domain ``D_S`` and a target domain ``D_T`` whose item sets
are disjoint but whose user sets may overlap. The overlapping users — the
paper calls them *straddlers* — are the only conduit of cross-domain
signal, so the container surfaces them directly.
"""

from __future__ import annotations

from typing import Iterable, Mapping

from repro.data.ratings import Rating, RatingTable
from repro.errors import DataError, DomainError


class Dataset:
    """A named single-domain rating table with optional item metadata.

    Args:
        name: domain name (e.g. ``"movies"``); also used as the domain
            label in :class:`CrossDomainDataset`.
        ratings: the rating table (or an iterable of ratings).
        item_titles: optional item id → human title mapping (used by the
            examples to show "Interstellar"-style output).
        item_genres: optional item id → tuple of genre labels (used by the
            Table 2 genre partitioner).
    """

    __slots__ = ("name", "ratings", "item_titles", "item_genres")

    def __init__(self, name: str,
                 ratings: RatingTable | Iterable[Rating],
                 item_titles: Mapping[str, str] | None = None,
                 item_genres: Mapping[str, tuple[str, ...]] | None = None) -> None:
        if not name:
            raise DataError("dataset name must be non-empty")
        if not isinstance(ratings, RatingTable):
            ratings = RatingTable(ratings)
        self.name = name
        self.ratings = ratings
        self.item_titles = dict(item_titles or {})
        self.item_genres = dict(item_genres or {})

    @property
    def users(self) -> frozenset[str]:
        """Users with at least one rating in this domain."""
        return self.ratings.users

    @property
    def items(self) -> frozenset[str]:
        """Items with at least one rating in this domain."""
        return self.ratings.items

    def __len__(self) -> int:
        return len(self.ratings)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"Dataset({self.name!r}, users={len(self.users)}, "
                f"items={len(self.items)}, ratings={len(self.ratings)})")

    def title_of(self, item: str) -> str:
        """Human title for *item* (falls back to the raw id)."""
        return self.item_titles.get(item, item)

    def with_ratings(self, ratings: RatingTable) -> "Dataset":
        """Return a copy of this dataset with a different rating table
        (metadata is shared — it describes the same catalogue)."""
        return Dataset(self.name, ratings,
                       item_titles=self.item_titles,
                       item_genres=self.item_genres)


class CrossDomainDataset:
    """The heterogeneous recommendation input (Problem 1, §2.3).

    Invariants enforced at construction:

    * the two domains have distinct names,
    * their item sets are disjoint (``I_S ∩ I_T = ∅``; the paper assumes
      this — an Amazon movie and an Amazon book never share an id).

    The user sets may (and for the problem to be solvable, must) overlap.
    """

    __slots__ = ("source", "target", "_domain_of")

    def __init__(self, source: Dataset, target: Dataset) -> None:
        if source.name == target.name:
            raise DomainError(
                f"source and target domains must differ, both are {source.name!r}")
        common_items = source.items & target.items
        if common_items:
            sample = sorted(common_items)[:3]
            raise DomainError(
                f"item sets must be disjoint; shared items include {sample}")
        self.source = source
        self.target = target
        domain_of = {item: source.name for item in source.items}
        domain_of.update({item: target.name for item in target.items})
        self._domain_of = domain_of

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"CrossDomainDataset(source={self.source!r}, "
                f"target={self.target!r}, overlap={len(self.overlap_users)})")

    @property
    def overlap_users(self) -> frozenset[str]:
        """``U_S ∩ U_T`` — the straddlers connecting the domains."""
        return self.source.users & self.target.users

    @property
    def domain_names(self) -> tuple[str, str]:
        """(source name, target name)."""
        return (self.source.name, self.target.name)

    def domain_of(self, item: str) -> str:
        """Domain name of *item*; raises DomainError for unknown items."""
        try:
            return self._domain_of[item]
        except KeyError:
            raise DomainError(f"unknown item {item!r}") from None

    def domain_map(self) -> Mapping[str, str]:
        """Item id → domain name for every item in either domain."""
        return self._domain_of

    def dataset(self, domain: str) -> Dataset:
        """Return the dataset with the given domain name."""
        if domain == self.source.name:
            return self.source
        if domain == self.target.name:
            return self.target
        raise DomainError(f"unknown domain {domain!r}; have {self.domain_names}")

    def merged(self) -> RatingTable:
        """The single aggregated domain the Baseliner (§5.1) works on:
        the union of both rating tables."""
        return self.source.ratings.merged_with(self.target.ratings)

    def reversed(self) -> "CrossDomainDataset":
        """Swap source and target (the paper evaluates both directions:
        movie→book and book→movie)."""
        return CrossDomainDataset(self.target, self.source)

    def with_target_ratings(self, ratings: RatingTable) -> "CrossDomainDataset":
        """Return a copy with the target domain's ratings replaced (the
        split protocols hide test users' target profiles this way)."""
        return CrossDomainDataset(self.source, self.target.with_ratings(ratings))
