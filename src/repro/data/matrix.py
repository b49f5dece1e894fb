"""The interned, array-backed rating store behind the hot similarity paths.

:class:`~repro.data.ratings.RatingTable` is the semantic store: string ids,
``Rating`` objects, doubly-indexed dict-of-dicts. That representation is
right for the evaluation protocols (immutable derivation, per-rating
timesteps) but wrong for the similarity backbone: the Baseliner's Eq-6
accumulation and the Extender's significance sweeps spend their time
hashing string tuples and re-deriving user means from objects.

:class:`MatrixRatingStore` is the compact mirror the hot loops run over:

* user and item ids interned to dense integer indexes (sorted
  lexicographically, so integer order == string order and results stay
  deterministic);
* CSR-style per-user rows and per-item columns of ``(index, value)``
  pairs, each with the user-mean-centered value (the Eq-6 building block)
  precomputed alongside;
* per-user and per-item means, per-item centered/raw L2 norms, per-item
  like/dislike flags (Definition 2) and per-user item-centered norms
  (Eq 1), all computed once at construction.

The store is NumPy-backed. Means and norms are computed with
``math.fsum`` (exact, one final rounding), so they do not depend on
accumulation order; the pair accumulation visits users in one canonical
order (one sequential add per co-rating), so an appended store and a
rebuild produce *identical* similarity graphs, not merely close ones.

Build one store per pipeline run via :meth:`RatingTable.matrix`, which
memoizes on the (immutable) table — every string-keyed similarity entry
point picks it up transparently. The constructor reads
:meth:`RatingTable.columns` from every table — the arrays a
column-backed table holds, one pass over an object-built table's
``Rating`` objects — so there is one construction path and it builds no
dict view; validation is the table's, none is repeated here.
"""

from __future__ import annotations

import bisect
import math
from typing import TYPE_CHECKING, Iterable, Iterator, NamedTuple, Sequence

import numpy as _np

from repro.errors import SimilarityError

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (typing only)
    from repro.data.ratings import Rating, RatingTable
    from repro.similarity.knn import NeighborIndex


#: Exact rating totals count units of ``2**-_TOTAL_SHIFT``: every finite
#: double is a 53-bit integer mantissa times ``2**(e - 53)``, ``e ≥ -1073``.
_TOTAL_SHIFT = 1126


def _clip1(value: float) -> float:
    return max(-1.0, min(1.0, value))


def _exact_total(values) -> int:
    """``Σ values`` exactly, as an ``int`` of ``2**-_TOTAL_SHIFT`` units:
    the mantissas' three 18-bit pieces are summed per exponent by
    ``bincount``, whose float64 sums are exact below 2**35 addends.
    ``total / 2**_TOTAL_SHIFT`` (``int / int`` rounds once) is then
    ``math.fsum(values)``."""
    mantissas, exponents = _np.frexp(_np.asarray(values, dtype=_np.float64))
    whole = (mantissas * 2.0 ** 53).astype(_np.int64)
    shifts = exponents - 53 + _TOTAL_SHIFT
    total = 0
    for piece, lift in ((whole & 0x3FFFF, 0), ((whole >> 18) & 0x3FFFF, 18),
                        (whole >> 36, 36)):
        sums = _np.bincount(shifts, weights=piece)
        for shift in _np.nonzero(sums)[0].tolist():
            total += int(sums[shift]) << (shift + lift)
    return total


def _spans(starts, ends):
    """The positions of the ``[starts[k], ends[k])`` ranges, in order."""
    sizes = ends - starts
    return (_np.arange(int(sizes.sum()))
            + _np.repeat(starts - (_np.cumsum(sizes) - sizes), sizes))


def _split_keys(keys, n_items: int):
    """``(left, right)`` of ``left * n_items + right`` pair keys (``//``
    by a scalar is NumPy's fast integer path; ``%`` is not)."""
    left = keys // n_items
    return left, keys - left * n_items


def _key_census(old_keys, new_keys):
    """``(added, removed)``: the ascending *new_keys* absent from
    *old_keys* and the *old_keys* absent from *new_keys*, ascending
    (both duplicate-free). The old keys are sorted once; one
    ``searchsorted`` of them into the new keys tests membership both
    ways."""
    old_keys = _np.sort(old_keys)
    if not len(new_keys):
        return new_keys, old_keys
    at = _np.minimum(_np.searchsorted(new_keys, old_keys), len(new_keys) - 1)
    kept = new_keys[at] == old_keys
    placed_before = _np.zeros(len(new_keys), dtype=bool)
    placed_before[at[kept]] = True
    return new_keys[~placed_before], old_keys[~kept]


class PairAccumulation:
    """Reduced Eq-6 pair accumulation: what the Baseliner's sweep keeps.

    Produced by :meth:`MatrixRatingStore.pair_accumulation` (every
    eligible user) or :meth:`MatrixRatingStore.delta_pair_accumulation`
    (the pairs an append touched). Pairs are encoded as
    ``left * n_items + right`` integer keys with ``left < right``.

    ``keys`` is a strictly-increasing int64 array and ``sums`` /
    ``counts`` are value arrays aligned with it.

    Attributes:
        keys: unique pair keys.
        sums: Eq-6 numerator sums per pair.
        counts: co-rating contribution counts per pair (``|Y_i ∩ Y_j|``
            over the accumulated users) — exact integers.
    """

    __slots__ = ("keys", "sums", "counts")

    def __init__(self, keys, sums, counts) -> None:
        self.keys = keys
        self.sums = sums
        self.counts = counts

    @property
    def n_pairs(self) -> int:
        """Distinct co-rated pairs accumulated."""
        return len(self.keys)


def _empty_accumulation() -> PairAccumulation:
    empty_int = _np.zeros(0, dtype=_np.int64)
    return PairAccumulation(empty_int, _np.zeros(0, dtype=_np.float64), empty_int.copy())


class RowSplice(NamedTuple):
    """What one incremental refresh changed.

    Attributes:
        index: the refreshed index.
        affected: ascending item indexes inside the blast radius — the
            touched items, their current co-rated partners and their
            pre-update neighbors.
        edges_added / edges_removed: undirected edges that appeared /
            vanished, ``(i, j)`` with ``i < j``, ascending.
        n_changed_entries: directed entries the refresh ranked and
            placed.
    """

    index: "NeighborIndex"
    affected: list[int]
    edges_added: tuple[tuple[str, str], ...]
    edges_removed: tuple[tuple[str, str], ...]
    n_changed_entries: int


class StoreDelta:
    """What one :meth:`MatrixRatingStore.append_ratings` batch changed.

    Everything downstream of an append consumes this record: the delta
    Eq-6 re-accumulation reads the touched flags, the accumulation fold
    remaps old pair keys through :attr:`item_map` (only when
    :attr:`new_items` is non-empty: otherwise it is the identity), and
    the ``NeighborIndex`` refresh re-ranks exactly the entries the batch
    could have moved.

    Interning stays sorted across an append: new users and items are
    *inserted* at their lexicographic positions, so both maps are
    strictly increasing and every invariant that rides on
    "integer order == string order" (pair-key ordering, serving
    tie-breaks) survives untouched.

    Attributes:
        n_old_items: item count of the base store (old pair keys encode
            ``left * n_old_items + right``).
        user_map / item_map: int arrays, old user / item index → new
            index, strictly increasing.
        touched_users: new-space indexes (ascending) of users with
            ratings in the batch — their means, and so every centered
            value they contribute, moved.
        touched_items: new-space indexes (ascending) of every item in a
            touched user's post-append profile — the blast radius of
            the user-mean changes (Eq-6 numerators and item centered
            norms can only change inside this set).
        new_users: user ids interned by this batch, ascending.
        new_items: item ids interned by this batch, ascending.
    """

    __slots__ = ("n_old_items", "user_map", "item_map", "touched_users",
                 "touched_items", "new_users", "new_items")

    def __init__(self, n_old_items, user_map, item_map, touched_users,
                 touched_items, new_users, new_items) -> None:
        self.n_old_items = n_old_items
        self.user_map = user_map
        self.item_map = item_map
        self.touched_users = touched_users
        self.touched_items = touched_items
        self.new_users = new_users
        self.new_items = new_items

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"StoreDelta(touched_users={len(self.touched_users)}, "
                f"touched_items={len(self.touched_items)}, "
                f"new_users={len(self.new_users)}, "
                f"new_items={len(self.new_items)})")


def _insert_map(old_names: Sequence[str], inserted: Sequence[str]):
    """New index of each old position after inserting *inserted* (sorted,
    disjoint from *old_names*) into the sorted *old_names* list: old
    position ``k`` moves up by the inserted names ranked before it."""
    ranks = [bisect.bisect_left(old_names, name) for name in inserted]
    old = _np.arange(len(old_names))
    return old + _np.searchsorted(ranks, old, side="right")


class MatrixRatingStore:
    """Integer-interned, array-backed view of one :class:`RatingTable`.

    Construction is one O(N log N) pass; every similarity primitive is
    then a sparse merge or accumulation over dense arrays. Instances are
    immutable and safe to share across pipeline phases.
    """

    __slots__ = (
        "users", "items", "user_index", "item_index",
        "n_ratings", "global_mean", "user_means", "item_means",
        "user_ptr", "user_item_idx", "user_values", "user_centered",
        "user_item_centered", "user_item_centered_norms",
        "item_ptr", "item_user_idx", "item_values", "item_centered",
        "item_likes", "item_centered_norms", "item_raw_norms",
        "_triu_cache", "_like_dicts", "_value_total",
    )

    def __init__(self, table: "RatingTable") -> None:
        self._triu_cache: dict[int, tuple] = {}
        self._like_dicts: list[dict[int, bool] | None] | None = None
        # Exact rating total (_exact_total): seeded by the first append.
        self._value_total: int | None = None

        # The table's columns, re-coded from the table's interning to
        # sorted-id rank; everything else is np.lexsort and vectorised
        # arithmetic over flat columns. All sums of float sets go
        # through math.fsum, which is *exact* (single final rounding),
        # so means and norms are independent of row order; centering is
        # one element-wise IEEE subtraction.
        columns = table.columns()
        users = sorted(columns.users)
        items = sorted(columns.items)
        self.users = users
        self.items = items
        user_index = {user: k for k, user in enumerate(users)}
        item_index = {item: k for k, item in enumerate(items)}
        self.user_index = user_index
        self.item_index = item_index
        n = len(table)
        self.n_ratings = n
        user_arr = _np.asarray(
            [user_index[user] for user in columns.users],
            dtype=_np.int64)[columns.user_codes]
        item_arr = _np.asarray(
            [item_index[item] for item in columns.items],
            dtype=_np.int64)[columns.item_codes]
        value_arr = columns.values
        csr_order = _np.lexsort((item_arr, user_arr))
        user_csr = user_arr[csr_order]
        item_csr = item_arr[csr_order]
        value_csr = value_arr[csr_order]
        user_ptr_arr = _np.searchsorted(user_csr, _np.arange(len(users) + 1))
        user_ptr = user_ptr_arr.tolist()
        value_csr_list = value_csr.tolist()
        self.global_mean = (math.fsum(value_csr_list) / n if n else table.global_mean())
        user_means = [
            math.fsum(value_csr_list[user_ptr[k]:user_ptr[k + 1]])
            / (user_ptr[k + 1] - user_ptr[k])
            for k in range(len(users))]
        csc_order = _np.lexsort((user_csr, item_csr))
        item_csc = item_csr[csc_order]
        item_values_arr = value_csr[csc_order]
        item_ptr_arr = _np.searchsorted(item_csc, _np.arange(len(items) + 1))
        item_ptr = item_ptr_arr.tolist()
        item_values_list = item_values_arr.tolist()
        item_means = [
            math.fsum(item_values_list[item_ptr[k]:item_ptr[k + 1]])
            / (item_ptr[k + 1] - item_ptr[k])
            for k in range(len(items))]
        user_means_arr = _np.asarray(user_means, dtype=_np.float64)
        item_means_arr = _np.asarray(item_means, dtype=_np.float64)
        user_centered_arr = value_csr - user_means_arr[user_csr]
        self.user_means = user_means_arr
        self.item_means = item_means_arr
        self.user_ptr = user_ptr_arr
        self.user_item_idx = item_csr
        self.user_values = value_csr
        self.user_centered = user_centered_arr
        self.user_item_centered = value_csr - item_means_arr[item_csr]
        self.item_ptr = item_ptr_arr
        self.item_user_idx = user_csr[csc_order]
        self.item_values = item_values_arr
        self.item_centered = user_centered_arr[csc_order]
        self.item_likes = item_values_arr >= item_means_arr[item_csc]
        user_item_centered_sq = (
            self.user_item_centered * self.user_item_centered).tolist()
        item_centered_sq = (self.item_centered * self.item_centered).tolist()
        item_raw_sq = (item_values_arr * item_values_arr).tolist()

        user_item_centered_norms = [
            math.sqrt(math.fsum(user_item_centered_sq[user_ptr[k]:user_ptr[k + 1]]))
            for k in range(len(users))]
        item_centered_norms = [
            math.sqrt(math.fsum(item_centered_sq[item_ptr[k]:item_ptr[k + 1]]))
            for k in range(len(items))]
        item_raw_norms = [
            math.sqrt(math.fsum(item_raw_sq[item_ptr[k]:item_ptr[k + 1]]))
            for k in range(len(items))]
        self.user_item_centered_norms = _np.asarray(
            user_item_centered_norms, dtype=_np.float64)
        self.item_centered_norms = _np.asarray(item_centered_norms, dtype=_np.float64)
        self.item_raw_norms = _np.asarray(item_raw_norms, dtype=_np.float64)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    @property
    def n_users(self) -> int:
        return len(self.users)

    @property
    def n_items(self) -> int:
        return len(self.items)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"MatrixRatingStore(users={self.n_users}, "
                f"items={self.n_items}, ratings={self.n_ratings})")

    # ------------------------------------------------------------------
    # Column / row slices
    # ------------------------------------------------------------------

    def _item_col(self, idx: int) -> tuple[int, int]:
        return int(self.item_ptr[idx]), int(self.item_ptr[idx + 1])

    def _user_row(self, idx: int) -> tuple[int, int]:
        return int(self.user_ptr[idx]), int(self.user_ptr[idx + 1])

    def item_raters(self, idx: int) -> int:
        """``|Y_i|`` for an item *index*."""
        start, end = self._item_col(idx)
        return end - start

    # ------------------------------------------------------------------
    # Pairwise metrics (string-keyed adapters live in repro.similarity)
    # ------------------------------------------------------------------

    def _common_dot(self, index_column, value_column,
                    slice_a: tuple[int, int],
                    slice_b: tuple[int, int]) -> float:
        """Dot product of two *value_column* slices over the intersection
        of the corresponding (strictly increasing) *index_column* slices.

        The one intersection kernel every pairwise metric shares.
        """
        start_a, end_a = slice_a
        start_b, end_b = slice_b
        _, pos_a, pos_b = _np.intersect1d(
            index_column[start_a:end_a], index_column[start_b:end_b],
            assume_unique=True, return_indices=True)
        if len(pos_a) == 0:
            return 0.0
        return float(_np.dot(value_column[start_a:end_a][pos_a],
                             value_column[start_b:end_b][pos_b]))

    def _common_values(self, index_column, value_column,
                       slice_a: tuple[int, int],
                       slice_b: tuple[int, int]
                       ) -> tuple[list[float], list[float]]:
        """Aligned value pairs over the intersection, as plain lists."""
        start_a, end_a = slice_a
        start_b, end_b = slice_b
        _, pos_a, pos_b = _np.intersect1d(
            index_column[start_a:end_a], index_column[start_b:end_b],
            assume_unique=True, return_indices=True)
        return (value_column[start_a:end_a][pos_a].tolist(),
                value_column[start_b:end_b][pos_b].tolist())

    def adjusted_cosine(self, item_i: str, item_j: str) -> float:
        """Eq 6 over the precomputed centered columns and norms."""
        i = self.item_index.get(item_i)
        j = self.item_index.get(item_j)
        if i is None or j is None:
            return 0.0
        if i == j:
            return 0.0 if self.item_centered_norms[i] == 0.0 else 1.0
        numerator = self._common_dot(
            self.item_user_idx, self.item_centered,
            self._item_col(i), self._item_col(j))
        if numerator == 0.0:
            return 0.0
        denominator = (self.item_centered_norms[i] * self.item_centered_norms[j])
        if denominator == 0.0:
            return 0.0
        return _clip1(numerator / denominator)

    def cosine(self, item_i: str, item_j: str) -> float:
        """Plain cosine over the raw columns, norms over full rater sets."""
        i = self.item_index.get(item_i)
        j = self.item_index.get(item_j)
        if i is None or j is None:
            return 0.0
        numerator = self._common_dot(
            self.item_user_idx, self.item_values,
            self._item_col(i), self._item_col(j))
        if numerator == 0.0:
            return 0.0
        denominator = self.item_raw_norms[i] * self.item_raw_norms[j]
        if denominator == 0.0:
            return 0.0
        return _clip1(numerator / denominator)

    def pearson_items(self, item_i: str, item_j: str) -> float:
        """Item–item Pearson over co-raters (centered on co-rater means)."""
        i = self.item_index.get(item_i)
        j = self.item_index.get(item_j)
        if i is None or j is None:
            return 0.0
        values_i, values_j = self._common_values(
            self.item_user_idx, self.item_values,
            self._item_col(i), self._item_col(j))
        if len(values_i) < 2:
            return 0.0
        mean_i = math.fsum(values_i) / len(values_i)
        mean_j = math.fsum(values_j) / len(values_j)
        numerator = math.fsum(
            (vi - mean_i) * (vj - mean_j)
            for vi, vj in zip(values_i, values_j))
        var_i = math.fsum((vi - mean_i) ** 2 for vi in values_i)
        var_j = math.fsum((vj - mean_j) ** 2 for vj in values_j)
        if var_i == 0.0 or var_j == 0.0:
            return 0.0
        return _clip1(numerator / math.sqrt(var_i * var_j))

    def pearson_users(self, user_a: str, user_b: str) -> float:
        """Eq 1: item-mean-centered numerator, full-profile norms."""
        a = self.user_index.get(user_a)
        b = self.user_index.get(user_b)
        if a is None or b is None:
            return 0.0
        numerator = self._common_dot(
            self.user_item_idx, self.user_item_centered,
            self._user_row(a), self._user_row(b))
        if numerator == 0.0:
            return 0.0
        denominator = (self.user_item_centered_norms[a]
                       * self.user_item_centered_norms[b])
        if denominator == 0.0:
            return 0.0
        return _clip1(numerator / denominator)

    def _like_dict(self, idx: int) -> dict[int, bool]:
        """Lazy per-item ``user index → likes`` dict (cached).

        Typical item profiles have tens-to-hundreds of raters, where a
        small-dict probe loop beats array set-intersection constants by a
        wide margin — this is the Definition-2 hot path the Extender's
        significance sweeps hit, so it gets the dict treatment (the
        result is an integer count; no float concerns).
        """
        if self._like_dicts is None:
            self._like_dicts = [None] * len(self.items)
        cached = self._like_dicts[idx]
        if cached is None:
            start, end = self._item_col(idx)
            users = self.item_user_idx[start:end]
            likes = self.item_likes[start:end]
            users = users.tolist()
            likes = likes.tolist()
            cached = dict(zip(users, likes))
            self._like_dicts[idx] = cached
        return cached

    def significance(self, item_i: str, item_j: str) -> int:
        """Definition 2: probe the smaller like-dict against the larger."""
        i = self.item_index.get(item_i)
        j = self.item_index.get(item_j)
        if i is None or j is None:
            return 0
        likes_i = self._like_dict(i)
        likes_j = self._like_dict(j)
        if len(likes_j) < len(likes_i):
            likes_i, likes_j = likes_j, likes_i
        lookup = likes_j.get
        count = 0
        for user, like in likes_i.items():
            other = lookup(user)
            if other is not None and other == like:
                count += 1
        return count

    def common_raters(self, item_i: str, item_j: str) -> int:
        """``|Y_i ∩ Y_j|`` via the same smaller-into-larger probe."""
        i = self.item_index.get(item_i)
        j = self.item_index.get(item_j)
        if i is None or j is None:
            return 0
        likes_i = self._like_dict(i)
        likes_j = self._like_dict(j)
        if len(likes_j) < len(likes_i):
            likes_i, likes_j = likes_j, likes_i
        return sum(1 for user in likes_i if user in likes_j)

    def normalized_significance(self, item_i: str, item_j: str) -> float:
        """Definition 4: ``S_{i,j} / |Y_i ∪ Y_j|`` without materialising
        the union — ``|Y_i| + |Y_j| − |Y_i ∩ Y_j|``."""
        i = self.item_index.get(item_i)
        j = self.item_index.get(item_j)
        raters_i = self.item_raters(i) if i is not None else 0
        raters_j = self.item_raters(j) if j is not None else 0
        if i == j and i is not None:
            # Degenerate self-query: union == each profile.
            return self.significance(item_i, item_j) / raters_i
        union = raters_i + raters_j - self.common_raters(item_i, item_j)
        if union == 0:
            raise SimilarityError(
                f"normalized significance undefined: neither {item_i!r} "
                f"nor {item_j!r} has raters")
        return self.significance(item_i, item_j) / union

    def edge_significance(self, left, right):
        """:meth:`significance` and :meth:`normalized_significance` of
        every ``(left[e], right[e])`` pair of item *indexes* (−1: an
        item this store never saw) as two aligned arrays, in one pass.

        Each edge probes its smaller column into the larger, as the
        scalar path does: the CSC layout is (item, user)-ascending, so
        ``item · n_users + user`` is one globally sorted key and every
        probe is a ``searchsorted`` hit or miss. The counts are the
        same integers and ``Ŝ`` the same ``S / (|Y_i| + |Y_j| − |Y_i ∩
        Y_j|)`` division, so the floats are those of the per-pair calls.
        """
        # A trailing empty column is what index −1 lands on.
        sizes = _np.append(_np.diff(self.item_ptr), 0)
        swap = sizes[right] < sizes[left]
        probe = _np.where(swap, right, left)
        other = _np.where(swap, left, right)
        span = sizes[probe]
        edge = _np.repeat(_np.arange(len(probe)), span)
        at = _spans(self.item_ptr[probe], self.item_ptr[probe] + span)
        n_users = len(self.users)
        column_key = (_np.repeat(_np.arange(len(self.items)), sizes[:-1]) * n_users
                      + self.item_user_idx)
        key = other[edge] * n_users + self.item_user_idx[at]
        found = _np.minimum(_np.searchsorted(column_key, key), len(column_key) - 1)
        common = column_key[found] == key
        agree = common & (self.item_likes[at] == self.item_likes[found])
        raw = _np.bincount(edge[agree], minlength=len(probe))
        union = sizes[left] + sizes[right] - _np.bincount(
            edge[common], minlength=len(probe))
        if not union.all():
            raise SimilarityError(
                "normalized significance undefined: an edge joins two "
                "items without raters")
        return raw, raw / union

    # ------------------------------------------------------------------
    # All-pairs adjusted cosine (the Baseliner's Eq-6 sweep)
    # ------------------------------------------------------------------

    def _triu(self, n: int):
        """Cached upper-triangle index pair for a profile of length *n*
        (profile lengths repeat heavily, so the cache removes most of the
        per-user index-generation cost)."""
        cached = self._triu_cache.get(n)
        if cached is None:
            cached = _np.triu_indices(n, 1)
            self._triu_cache[n] = cached
        return cached

    def all_pairs_adjusted_cosine(
            self, min_common_users: int = 1,
            max_profile_size: int | None = None,
    ) -> Iterator[tuple[str, str, float]]:
        """Yield ``(i, j, sim)`` for every co-rated item pair (Eq 6).

        The numerators accumulate in one canonical order
        (profile-length groups ascending, user index ascending within a
        group, one sequential add per co-rating), so the sums — and
        therefore the graph — are reproducible bit for bit. Pairs
        come out sorted by (i, j) with ``i < j`` (interning is
        lexicographic, so integer order is string order).

        Peak memory is one ``(key, value)`` pair per
        co-rating contribution (``Σ_u |X_u|²`` entries); cap skewed
        profiles with *max_profile_size* as the paper's Spark job does.
        """
        left, right, similarities = self._pairs_from_accumulation(
            self.pair_accumulation(max_profile_size=max_profile_size),
            min_common_users)
        items = self.items
        for a, b, sim in zip(left.tolist(), right.tolist(), similarities.tolist()):
            yield items[a], items[b], sim

    def eligible_users(self, max_profile_size: int | None = None,
                       users: Sequence[int] | None = None):
        """User indexes that contribute Eq-6 pairs, in canonical sweep
        order: profile-length groups ascending, user index ascending
        within a group.

        *users* restricts to a subset (ascending) — the order of the
        restricted sweep is the canonical order filtered to the subset,
        so the delta re-accumulation visits its candidates exactly as
        the full sweep would.
        """
        lengths = _np.diff(self.user_ptr)
        if users is None:
            mask = lengths >= 2
            if max_profile_size is not None:
                mask &= lengths <= max_profile_size
            eligible = _np.nonzero(mask)[0]
        else:
            candidates = _np.asarray(users, dtype=_np.int64)
            sub = lengths[candidates] if len(candidates) else candidates
            mask = sub >= 2
            if max_profile_size is not None:
                mask &= sub <= max_profile_size
            eligible = candidates[mask]
        return eligible[_np.argsort(lengths[eligible], kind="stable")]

    def _contribution_arrays(self, eligible):
        """The batched Eq-6 fan-out over *eligible* (canonical order) as
        aligned ``(pair key, numerator contribution)`` arrays.

        Users are batched by profile length so each batch is one 2-D
        gather + one broadcasted multiply instead of a per-user Python
        iteration. The contribution order (length groups ascending,
        users ascending within a group, triu pair order within a user)
        is canonical, and bincount adds sequentially in input order —
        hence the same sums, bit for bit, on every run.
        """
        n_items = len(self.items)
        lengths = _np.diff(self.user_ptr)
        group_lengths = lengths[eligible]
        starts = self.user_ptr[eligible]
        key_parts = []
        value_parts = []
        distinct, group_bounds = _np.unique(group_lengths, return_index=True)
        group_bounds = list(group_bounds) + [len(eligible)]
        for g, length in enumerate(distinct.tolist()):
            batch_starts = starts[group_bounds[g]:group_bounds[g + 1]]
            offsets = batch_starts[:, None] + _np.arange(length)
            idx = self.user_item_idx[offsets]
            centered = self.user_centered[offsets]
            rows, cols = self._triu(length)
            key_parts.append((idx[:, rows] * n_items + idx[:, cols]).ravel())
            value_parts.append((centered[:, rows] * centered[:, cols]).ravel())
        return _np.concatenate(key_parts), _np.concatenate(value_parts)

    @staticmethod
    def _reduce_contributions(keys, values, n_items: int) -> PairAccumulation:
        """Group the contribution arrays by pair key (``left * n_items
        + right``).

        Two accumulation strategies with identical results (bincount
        adds sequentially in input order either way): a dense m²-sized
        accumulator when the item space is small relative to the
        contribution count (no sort at all), else sort-based grouping
        via np.unique. The 2²⁴ ceiling caps the dense accumulator at
        ~256 MB for the two arrays.
        """
        if n_items * n_items <= max(1 << 20, min(4 * len(keys), 1 << 24)):
            space = n_items * n_items
            dense_counts = _np.bincount(keys, minlength=space)
            dense_sums = _np.bincount(keys, weights=values, minlength=space)
            uniq = _np.nonzero(dense_counts)[0]
            counts = dense_counts[uniq]
            sums = dense_sums[uniq]
        else:
            uniq, inverse, counts = _np.unique(
                keys, return_inverse=True, return_counts=True)
            sums = _np.bincount(inverse, weights=values, minlength=len(uniq))
        return PairAccumulation(uniq, sums, counts)

    def pair_accumulation(self, max_profile_size: int | None = None
                          ) -> PairAccumulation:
        """Reduced Eq-6 accumulation over every eligible user — the
        Baseliner's pair sweep."""
        eligible = self.eligible_users(max_profile_size)
        if len(eligible) == 0:
            return _empty_accumulation()
        return self._reduce_contributions(
            *self._contribution_arrays(eligible), len(self.items))

    # ------------------------------------------------------------------
    # Incremental updates (append a rating batch without a rebuild)
    # ------------------------------------------------------------------

    def _bisect_column(self, column, start: int, end: int, needle: int) -> int:
        """Leftmost position of *needle* in the strictly-increasing
        ``column[start:end]`` slice, as an absolute offset."""
        return start + int(_np.searchsorted(column[start:end], needle))

    def append_ratings(self, batch: "Iterable[Rating]"
                       ) -> tuple["MatrixRatingStore", "StoreDelta"]:
        """A new store with *batch* appended, plus the
        :class:`StoreDelta` describing what moved.

        New users and items are interned at their sorted positions
        (interning stays lexicographic — every downstream tie-break and
        pair-key ordering survives), the CSR/CSC arrays are patched in
        place of a rebuild, and means / centered values / norms / like
        flags are recomputed **only** for the rows and columns the batch
        could have moved. A ``(user, item)`` pair already present has
        its value replaced (the :meth:`RatingTable.with_ratings`
        override semantics); duplicate pairs inside *batch* keep the
        last value, matching the table's merge.

        Equality contract (property-tested in
        ``tests/test_incremental.py``): the appended store is
        **bit-identical** to ``MatrixRatingStore(table.with_ratings(
        batch))`` — untouched scalars are copied,
        touched ones recomputed with the exact operations (``math.fsum``
        means and norms, element-wise IEEE centering) the constructor
        uses. The base store is never mutated.

        Cost: one copy per rating array, id columns remapped only when
        the batch interned ids, and work over the batch's rows and
        columns; ``global_mean`` follows an exact running total
        (:func:`_exact_total`) of the inserted and replaced values.
        """
        merged_batch: dict[tuple[str, str], float] = {}
        for rating in batch:
            merged_batch[(rating.user, rating.item)] = float(rating.value)

        old_users, old_items = self.users, self.items
        new_user_names = sorted({u for u, _ in merged_batch} - self.user_index.keys())
        new_item_names = sorted({i for _, i in merged_batch} - self.item_index.keys())
        users_new, user_index_new = old_users, self.user_index
        if new_user_names:
            users_new = sorted(old_users + new_user_names)
            user_index_new = dict(zip(users_new, range(len(users_new))))
        items_new, item_index_new = old_items, self.item_index
        if new_item_names:
            items_new = sorted(old_items + new_item_names)
            item_index_new = dict(zip(items_new, range(len(items_new))))
        user_map = _insert_map(old_users, new_user_names)
        item_map = _insert_map(old_items, new_item_names)

        # Classify the batch: value replacements patch in place, new
        # pairs become (sorted) insertion records with their offsets
        # into the *old* arrays — np.insert semantics.
        replacements_csr: list[tuple[int, float]] = []
        replacements_csc: list[tuple[int, float]] = []
        inserts: list[tuple[int, int, float]] = []
        for (u_name, i_name), value in merged_batch.items():
            u_old = self.user_index.get(u_name)
            i_old = self.item_index.get(i_name)
            if u_old is not None and i_old is not None:
                start, end = self._user_row(u_old)
                pos = self._bisect_column(self.user_item_idx, start, end, i_old)
                if pos < end and int(self.user_item_idx[pos]) == i_old:
                    replacements_csr.append((pos, value))
                    cstart, cend = self._item_col(i_old)
                    cpos = self._bisect_column(self.item_user_idx, cstart, cend, u_old)
                    replacements_csc.append((cpos, value))
                    continue
            inserts.append((user_index_new[u_name], item_index_new[i_name], value))

        csr_inserts = sorted(inserts)
        csc_inserts = sorted((i, u, value) for u, i, value in inserts)
        csr_positions: list[int] = []
        for u_new, i_new, _ in csr_inserts:
            u_old = self.user_index.get(users_new[u_new])
            if u_old is None:
                rank = bisect.bisect_left(old_users, users_new[u_new])
                csr_positions.append(int(self.user_ptr[rank]))
                continue
            start, end = self._user_row(u_old)
            # Position of the new item id among the row's remapped ids.
            csr_positions.append(start + int(_np.searchsorted(
                item_map[self.user_item_idx[start:end]], i_new)))
        csc_positions: list[int] = []
        for i_new, u_new, _ in csc_inserts:
            i_old = self.item_index.get(items_new[i_new])
            if i_old is None:
                rank = bisect.bisect_left(old_items, items_new[i_new])
                csc_positions.append(int(self.item_ptr[rank]))
                continue
            start, end = self._item_col(i_old)
            csc_positions.append(start + int(_np.searchsorted(
                user_map[self.item_user_idx[start:end]], u_new)))

        touched_users = sorted({user_index_new[u] for u, _ in merged_batch})
        batch_items = sorted({item_index_new[i] for _, i in merged_batch})
        n_new = self.n_ratings + len(inserts)
        total = self._value_total
        if total is None:
            total = _exact_total(self.user_values)
        total += _exact_total([value for *_, value in inserts]
                              + [value for _, value in replacements_csr])
        total -= _exact_total(self.user_values[[pos for pos, _ in replacements_csr]])

        new = MatrixRatingStore.__new__(MatrixRatingStore)
        new._triu_cache = {}
        new._like_dicts = None
        new._value_total = total
        new.users = users_new
        new.items = items_new
        new.user_index = user_index_new
        new.item_index = item_index_new
        new.n_ratings = n_new
        # An empty store keeps the base's scale-midpoint global mean.
        new.global_mean = (total / (1 << _TOTAL_SHIFT) / n_new if n_new
                           else self.global_mean)

        self._append_arrays(
            new, user_map, item_map, replacements_csr, replacements_csc,
            csr_positions, csr_inserts, csc_positions, csc_inserts)

        # Touched items: everything in a touched user's new profile.
        touched_set: set[int] = set()
        for u in touched_users:
            start, end = new._user_row(u)
            touched_set.update(new.user_item_idx[start:end].tolist())
        touched_items = sorted(touched_set)

        new._finalise_append(touched_users, touched_items, batch_items)
        delta = StoreDelta(
            n_old_items=len(old_items), user_map=user_map,
            item_map=item_map, touched_users=touched_users,
            touched_items=touched_items,
            new_users=tuple(new_user_names), new_items=tuple(new_item_names))
        return new, delta

    def _append_arrays(self, new, umap, imap,
                       replacements_csr, replacements_csc,
                       csr_positions, csr_inserts,
                       csc_positions, csc_inserts) -> None:
        """Patch the CSR/CSC arrays of the appended store; id columns
        are remapped only when the batch interned ids."""
        n_users_new = len(new.users)
        n_items_new = len(new.items)
        csr_pos = _np.asarray(csr_positions, dtype=_np.int64)
        csc_pos = _np.asarray(csc_positions, dtype=_np.int64)
        csr_item_ids = _np.asarray([i for _, i, _ in csr_inserts], dtype=_np.int64)
        csr_values = _np.asarray([v for _, _, v in csr_inserts], dtype=_np.float64)
        csc_user_ids = _np.asarray([u for _, u, _ in csc_inserts], dtype=_np.int64)
        csc_values = _np.asarray([v for _, _, v in csc_inserts], dtype=_np.float64)

        remapped_idx = (imap[self.user_item_idx]
                        if n_items_new != len(self.items) else self.user_item_idx)
        new.user_item_idx = _np.insert(remapped_idx, csr_pos, csr_item_ids)
        values = self.user_values.copy()
        for pos, value in replacements_csr:
            values[pos] = value
        new.user_values = _np.insert(values, csr_pos, csr_values)
        new.user_centered = _np.insert(self.user_centered, csr_pos, 0.0)
        new.user_item_centered = _np.insert(self.user_item_centered, csr_pos, 0.0)

        remapped_users = (umap[self.item_user_idx]
                          if n_users_new != len(self.users) else self.item_user_idx)
        new.item_user_idx = _np.insert(remapped_users, csc_pos, csc_user_ids)
        col_values = self.item_values.copy()
        for pos, value in replacements_csc:
            col_values[pos] = value
        new.item_values = _np.insert(col_values, csc_pos, csc_values)
        new.item_centered = _np.insert(self.item_centered, csc_pos, 0.0)
        new.item_likes = _np.insert(self.item_likes, csc_pos, False)

        # Offsets and per-user / per-item scalars, in the new interning.
        for space, size, ptr, grown, names in (
                (umap, n_users_new, "user_ptr", [u for u, _, _ in csr_inserts],
                 ("user_means", "user_item_centered_norms")),
                (imap, n_items_new, "item_ptr", [i for i, _, _ in csc_inserts],
                 ("item_means", "item_centered_norms", "item_raw_norms"))):
            lengths = _np.zeros(size, dtype=_np.int64)
            lengths[space] = _np.diff(getattr(self, ptr))
            _np.add.at(lengths, _np.asarray(grown, dtype=_np.int64), 1)
            setattr(new, ptr, _np.concatenate(([0], _np.cumsum(lengths))))
            for name in names:
                scalars = _np.empty(size, dtype=_np.float64)
                scalars[space] = getattr(self, name)
                setattr(new, name, scalars)

    def _finalise_append(self, touched_users, touched_items, batch_items) -> None:
        """Recompute the derived scalars the batch moved, on the *new*
        store (self), with the exact operations the constructor uses —
        ``math.fsum`` means/norms and element-wise IEEE centering — so
        the appended store is bit-identical to a rebuild."""
        # User means first — centered values feed off them.
        for u in touched_users:
            start, end = self._user_row(u)
            values = self.user_values[start:end].tolist()
            mean = math.fsum(values) / len(values)
            self.user_means[u] = mean
            self.user_centered[start:end] = self.user_values[start:end] - mean

        # Item means for the batch's items (only their columns changed).
        for i in batch_items:
            start, end = self._item_col(i)
            values = self.item_values[start:end].tolist()
            self.item_means[i] = math.fsum(values) / len(values)

        # CSC centered values follow the touched users' new means: a
        # touched user's ratings all live in touched-item columns.
        for i in touched_items:
            start, end = self._item_col(i)
            self.item_centered[start:end] = (
                self.item_values[start:end]
                - self.user_means[self.item_user_idx[start:end]])
            seg = self.item_centered[start:end]
            self.item_centered_norms[i] = math.sqrt(math.fsum((seg * seg).tolist()))

        # Like flags and raw norms follow the batch items' new means.
        for i in batch_items:
            start, end = self._item_col(i)
            mean = self.item_means[i]
            self.item_likes[start:end] = self.item_values[start:end] >= mean
            seg = self.item_values[start:end]
            self.item_raw_norms[i] = math.sqrt(math.fsum((seg * seg).tolist()))

        # Eq-1 centering (value − item mean) for every rating of a
        # batch item, then the affected users' norms: the touched users
        # (row membership changed) plus every rater of a batch item.
        affected_users = set(touched_users)
        in_batch = _np.zeros(len(self.items), dtype=bool)
        in_batch[batch_items] = True
        mask = in_batch[self.user_item_idx]
        self.user_item_centered[mask] = (
            self.user_values[mask]
            - self.item_means[self.user_item_idx[mask]])
        for i in batch_items:
            start, end = self._item_col(i)
            affected_users.update(self.item_user_idx[start:end].tolist())
        for u in sorted(affected_users):
            start, end = self._user_row(u)
            seg = self.user_item_centered[start:end]
            self.user_item_centered_norms[u] = math.sqrt(math.fsum(
                (seg * seg).tolist()))

    def delta_pair_accumulation(self, delta: "StoreDelta") -> PairAccumulation:
        """Eq-6 re-accumulation restricted to the pairs *delta* touched.

        Called on the **appended** store. Recomputes, from scratch and
        in the canonical sweep order, every pair whose numerator or
        count the batch could have moved: pairs with both endpoints in
        ``delta.touched_items`` (a touched user's centered values feed
        them).

        Contributing users are exactly the full sweep's for those pairs,
        visited in the same canonical order; a pair receives at most one
        contribution per user, so per-pair sums see the same addends in
        the same sequence and folding the result over the old
        accumulation (:meth:`apply_accumulation_delta`) reproduces a
        from-scratch sweep **bit for bit** — even though each user's
        contributions are generated from the *touched sub-profile* (the
        fan-out is quadratic in ``|X_u ∩ touched|``, not ``|X_u|``,
        which is what keeps a small batch's delta far below a full
        sweep). The candidates are the users with ≥2 touched items in
        their profile, found in one O(ratings) scan.
        """
        n_items = len(self.items)
        if self.n_ratings == 0 or not delta.touched_items:
            return _empty_accumulation()
        flags_it = _np.zeros(n_items, dtype=bool)
        flags_it[delta.touched_items] = True
        hits = _np.concatenate((
            [0], _np.cumsum(flags_it[self.user_item_idx], dtype=_np.int64)))
        it_count = hits[self.user_ptr[1:]] - hits[self.user_ptr[:-1]]
        eligible = self.eligible_users(users=_np.nonzero(it_count >= 2)[0])
        if len(eligible) == 0:
            return _empty_accumulation()
        ptr = self.user_ptr
        idx_all = self.user_item_idx
        centered_all = self.user_centered
        # Keys are built over the touched items' own ascending indexes
        # (T² cells, not n_items²), so the reduce can take its dense,
        # sort-free path; mapping them back keeps their order.
        touched = _np.asarray(delta.touched_items, dtype=_np.int64)
        local = _np.cumsum(flags_it) - 1
        n_local = len(touched)
        key_parts = []
        value_parts = []
        for u in eligible.tolist():
            start, end = int(ptr[u]), int(ptr[u + 1])
            idx = idx_all[start:end]
            # Only both-touched pairs are affected: the fan-out is
            # quadratic in the touched sub-profile.
            sub = _np.nonzero(flags_it[idx])[0]
            if len(sub) < 2:
                continue
            rows, cols = self._triu(len(sub))
            centered = centered_all[start:end][sub]
            sub_local = local[idx[sub]]
            key_parts.append(sub_local[rows] * n_local + sub_local[cols])
            value_parts.append(centered[rows] * centered[cols])
        if not key_parts:
            return _empty_accumulation()
        acc = self._reduce_contributions(
            _np.concatenate(key_parts), _np.concatenate(value_parts), n_local)
        left, right = _split_keys(acc.keys, n_local)
        return PairAccumulation(
            touched[left] * n_items + touched[right], acc.sums, acc.counts)

    def apply_accumulation_delta(self, acc: PairAccumulation,
                                 delta_acc: PairAccumulation,
                                 delta: "StoreDelta") -> PairAccumulation:
        """Fold a :meth:`delta_pair_accumulation` result over the
        retained accumulation of the base store.

        Old pair keys are remapped through ``delta.item_map`` (strictly
        increasing, so sorted key order survives), every pair the delta
        recomputed is dropped from the old side, and the delta's entries
        take their place — the merged accumulation equals a from-scratch
        sweep over the appended store bit for bit. Called on the
        **appended** store.

        Cost: one delete-and-insert (one copy) per array plus work over
        the touched items' key ranges: keys are remapped only when the
        batch interned items, and the recomputed pairs are found in each
        touched item's ``[t·n, (t+1)·n)`` slice of the sorted keys.
        """
        n_new = len(self.items)
        keys = acc.keys
        if delta.new_items and len(keys):
            left, right = _split_keys(keys, delta.n_old_items)
            keys = delta.item_map[left] * n_new + delta.item_map[right]
        touched = _np.asarray(delta.touched_items, dtype=_np.int64)
        flags_it = _np.zeros(n_new, dtype=bool)
        flags_it[touched] = True
        at = _spans(_np.searchsorted(keys, touched * n_new),
                    _np.searchsorted(keys, (touched + 1) * n_new))
        drop = at[flags_it[_split_keys(keys[at], n_new)[1]]]
        kept_keys = _np.delete(keys, drop)
        pos = _np.searchsorted(kept_keys, delta_acc.keys)
        return PairAccumulation(
            _np.insert(kept_keys, pos, delta_acc.keys),
            _np.insert(_np.delete(acc.sums, drop), pos, delta_acc.sums),
            _np.insert(_np.delete(acc.counts, drop), pos, delta_acc.counts))

    def assemble_row_refresh(self, acc: PairAccumulation,
                             delta: "StoreDelta",
                             extra_rows: Sequence[int] = (),
                             min_common_users: int = 1,
                             min_abs_similarity: float = 0.0):
        """Re-assemble, whole, every adjacency row an append could have
        moved — the reference :meth:`splice_row_refresh` is tested
        against.

        *acc* is the already-folded full accumulation of the appended
        store. The affected rows are the touched items (their norms —
        so every incident weight — moved), every current partner of a
        touched item, and *extra_rows* (the caller passes the touched
        items' *pre-update* partners, so rows that lost their last edge
        are refreshed to empty too).

        Returns ``(index_update, affected)``: *affected* is the
        ascending index list of the rows, and *index_update* is the
        ``(sizes, neighbor ids, weights)`` flat-row bundle
        :meth:`NeighborIndex.updated` splices — per-row sizes aligned
        with *affected*, ids/weights concatenated in row order (possibly
        empty rows, unchanged entries re-ranked along with the moved
        ones). Row contents are bit-identical to what
        :meth:`assemble_from_partitions` would build for those items.
        The rows are ranked by ``np.lexsort`` on the float weights, not
        by :func:`~repro.similarity.knn.ranked_entries`, so the oracle
        shares no ranking code with what it checks.
        """
        n_items = len(self.items)
        flags_it = _np.zeros(n_items, dtype=bool)
        if delta.touched_items:
            flags_it[delta.touched_items] = True
        # Affected rows first, from the raw pair keys (cheap key
        # arithmetic); the Eq-6 filter/normalise/clip tail then runs
        # only on the affected subset — element-wise, so the kept
        # weights are bit-identical to the full assembly's.
        in_r = flags_it.copy()
        if acc.n_pairs:
            left_all, right_all = _split_keys(acc.keys, n_items)
            touch = flags_it[left_all] | flags_it[right_all]
            in_r[left_all[touch]] = True
            in_r[right_all[touch]] = True
        if len(extra_rows):
            in_r[_np.asarray(extra_rows, dtype=_np.int64)] = True
        if acc.n_pairs:
            emask = in_r[left_all] | in_r[right_all]
            left, right, sims = self._edge_weights(
                left_all[emask], right_all[emask], acc.sums[emask],
                acc.counts[emask], min_common_users, min_abs_similarity)
        else:
            left = _np.zeros(0, dtype=_np.int64)
            right = left.copy()
            sims = _np.zeros(0, dtype=_np.float64)
        fwd = in_r[left]
        rev = in_r[right]
        src = _np.concatenate([left[fwd], right[rev]])
        tgt = _np.concatenate([right[fwd], left[rev]])
        wts = _np.concatenate([sims[fwd], sims[rev]])
        order = _np.lexsort((tgt, -wts, src))
        src, tgt, wts = src[order], tgt[order], wts[order]
        affected = _np.nonzero(in_r)[0]
        sizes = _np.searchsorted(src, affected + 1) - _np.searchsorted(src, affected)
        # tgt/wts are already the affected rows' rank-ordered contents
        # concatenated in row order — hand them over wholesale.
        return (sizes, tgt, wts), affected.tolist()

    def splice_row_refresh(self, acc: PairAccumulation, delta: "StoreDelta",
                           index: "NeighborIndex",
                           min_common_users: int = 1,
                           min_abs_similarity: float = 0.0) -> RowSplice:
        """Refresh *index* (the base store's complete index) after an
        append by re-ranking only the entries the batch could have
        moved; :meth:`assemble_row_refresh` is the whole-row reference.

        An Eq-6 weight reads one pair sum and two item norms, and an
        append moves those only at ``delta.touched_items``: an entry
        with neither endpoint touched keeps its bits and — ``item_map``
        being monotone — its place in the ``(row, −weight, id)`` order.
        So the new index is those kept entries merged
        (:func:`~repro.similarity.knn.merge_ranked_entries`) with the
        filtered weights of *acc*'s touched-endpoint pairs, ranked by
        :func:`~repro.similarity.knn.ranked_entries` (one ``argsort`` of
        the pair weights, then integer sorts: no float sort key; the
        moved pairs times ``n_items`` must stay below 2**63) — equal to
        a fresh assembly bit for bit. A touched row keeps nothing, so
        whole-row rebuild is the merge's degenerate case, not a second
        path.

        Cost: one masked copy and one scatter per index array, one
        gather each over the index's ids and *acc*'s right items, and
        work over the touched rows and moved entries: touched rows are
        ``ptr`` slices, lost entries counted per row by a
        ``searchsorted`` of ``ptr`` among them, ids remapped only when
        the batch interned items, and the edge census one
        ``searchsorted`` of the dropped pairs' keys, sorted once, into
        the placed ones (:func:`_key_census`).
        """
        from repro.similarity.knn import (NeighborIndex, merge_ranked_entries,
                                          ranked_entries)

        items = self.items
        n_items = len(items)
        touched_items = _np.asarray(delta.touched_items, dtype=_np.int64)
        touched = _np.zeros(n_items, dtype=bool)
        touched[touched_items] = True
        affected = touched.copy()

        # Insert side: the pairs with a touched right (one gather) or
        # left item (its key slice), shared by the blast radius (raw
        # pairs) and the entries to place (filtered pairs).
        moved = touched[_split_keys(acc.keys, n_items)[1]]
        moved[_spans(_np.searchsorted(acc.keys, touched_items * n_items),
                     _np.searchsorted(acc.keys, (touched_items + 1) * n_items))] = True
        moved = _np.nonzero(moved)[0]
        left, right = _split_keys(acc.keys[moved], n_items)
        affected[left] = True
        affected[right] = True
        left, right, sims = self._edge_weights(
            left, right, acc.sums[moved], acc.counts[moved],
            min_common_users, min_abs_similarity)
        src, tgt, wts = ranked_entries(left, right, sims, n_items)

        # Kept side, in the old index's space: every entry but the
        # touched rows' and those pointing at a touched item. The lost
        # entries ascend, so a searchsorted of each row start among
        # them counts them per row.
        imap = delta.item_map
        touched_old = touched[imap]
        dropped = touched_old[index.neighbor_ids]
        rows_old = _np.nonzero(touched_old)[0]
        dropped[_spans(index.ptr[rows_old], index.ptr[rows_old + 1])] = True
        gone = _np.nonzero(dropped)[0]
        lost = _np.diff(_np.searchsorted(gone, index.ptr))
        owner = _np.repeat(_np.arange(len(imap), dtype=_np.int64), lost)
        kept_sizes = _np.zeros(n_items, dtype=_np.int64)
        kept_sizes[imap] = _np.diff(index.ptr) - lost
        kept = ~dropped
        kept_ids = index.neighbor_ids[kept]
        ids = index.neighbor_ids[gone]
        if delta.new_items:
            kept_ids, owner, ids = imap[kept_ids], imap[owner], imap[ids]
        affected[owner] = True  # pre-update partners
        ptr, neighbor_ids, weights = merge_ranked_entries(
            kept_sizes, (kept_ids, index.weights[kept]), (src, tgt, wts))

        # Edge census: pair keys dropped vs placed (both duplicate-free;
        # acc.keys ascend, so new_keys and `added` already do).
        census = owner < ids
        added, removed = _key_census(owner[census] * n_items + ids[census],
                                     left * n_items + right)

        def _edges(keys):
            return tuple((items[key // n_items], items[key % n_items])
                         for key in keys.tolist())

        return RowSplice(
            index=NeighborIndex(items, self.item_index, ptr, neighbor_ids, weights),
            affected=_np.nonzero(affected)[0].tolist(),
            edges_added=_edges(added),
            edges_removed=_edges(removed),
            n_changed_entries=len(src))

    def _pairs_from_accumulation(self, acc: PairAccumulation,
                                 min_common_users: int,
                                 min_abs_similarity: float = 0.0):
        """The filtered Eq-6 pairs of an accumulation as three aligned
        arrays ``(left item idx, right item idx, similarity)``."""
        return self._edge_weights(
            *_split_keys(acc.keys, len(self.items)), acc.sums, acc.counts,
            min_common_users, min_abs_similarity)

    def _edge_weights(self, left, right, sums, counts,
                      min_common_users: int,
                      min_abs_similarity: float = 0.0):
        """The Eq-6 filter / normalise / clip tail over aligned pair
        arrays: ``(left, right, similarity)`` of the pairs that are
        edges. Element-wise, so a pair's weight has the same bits
        whichever subset of the accumulation it is computed in."""
        denominators = (self.item_centered_norms[left]
                        * self.item_centered_norms[right])
        keep = (counts >= min_common_users) & (sums != 0.0) \
            & (denominators != 0.0)
        left, right = left[keep], right[keep]
        sims = _np.clip(sums[keep] / denominators[keep], -1.0, 1.0)
        if min_abs_similarity > 0.0:
            keep = _np.abs(sims) >= min_abs_similarity
            left, right, sims = left[keep], right[keep], sims[keep]
        return left, right, sims

    def neighbor_index(self, min_common_users: int = 1,
                       min_abs_similarity: float = 0.0,
                       max_profile_size: int | None = None) -> "NeighborIndex":
        """Rank-ordered :class:`~repro.similarity.knn.NeighborIndex`
        from one Eq-6 sweep.

        This is the serve-side entry point
        :class:`~repro.cf.item_knn.ItemKNNRecommender` uses: rows hold
        every nonzero-similarity neighbor, ordered by descending
        similarity with the ascending-id tie-break, so predictions are
        O(k) row scans.
        """
        return self.assemble_from_partitions(
            self.pair_accumulation(max_profile_size=max_profile_size),
            min_common_users=min_common_users,
            min_abs_similarity=min_abs_similarity)

    def assemble_from_partitions(
            self, acc: PairAccumulation,
            min_common_users: int = 1,
            min_abs_similarity: float = 0.0,
    ) -> "NeighborIndex":
        """Assemble *acc*'s symmetric Eq-6 graph as the rank-ordered
        :class:`~repro.similarity.knn.NeighborIndex`
        (:meth:`~repro.similarity.knn.NeighborIndex.from_pairs` over the
        filtered pairs). Isolated items keep an empty row.
        """
        from repro.similarity.knn import NeighborIndex

        return NeighborIndex.from_pairs(
            self.items, self.item_index, *self._pairs_from_accumulation(
                acc, min_common_users, min_abs_similarity))
