"""Top-k neighbor selection and the precomputed neighbor index.

Every phase of the paper ends with "keep the top-k": Algorithm 1/2's
nearest neighbors, the Extender's per-layer pruning, the AlterEgo's
replacement shortlists. This module centralises that selection with a
deterministic tie-break (higher similarity first, then lexicographic id)
so that runs are reproducible.

:class:`NeighborIndex` is the serving-side counterpart: the same ranking
rule, but applied *once* during adjacency assembly and frozen into flat
arrays, so serve-time queries are O(k) slices and scans instead of
per-call sorts. It is produced by
:meth:`~repro.data.matrix.MatrixRatingStore.assemble_from_partitions`
(in the same sort as the sweep's adjacency rows) and consumed by
:class:`~repro.cf.item_knn.ItemKNNRecommender` and
:meth:`~repro.similarity.graph.ItemGraph.top_neighbors`.
"""

from __future__ import annotations

import heapq
from itertools import chain
from operator import methodcaller
from typing import Iterable, Mapping, Sequence

import numpy as _np


def top_k(similarities: Mapping[str, float] | Iterable[tuple[str, float]],
          k: int,
          exclude: Iterable[str] = (),
          minimum: float | None = None) -> list[tuple[str, float]]:
    """Return the k highest-similarity (id, similarity) pairs.

    Args:
        similarities: candidate id → similarity mapping, or an iterable
            of (id, similarity) pairs (lets callers stream candidates
            without building an intermediate dict).
        k: how many to keep; ``k <= 0`` returns an empty list.
        exclude: ids never to return (e.g. the query item itself). A set
            is used as-is; other iterables are materialised once. The
            common ``exclude=()`` case skips the filter entirely.
        minimum: if given, drop candidates with similarity strictly below
            it (the Extender uses 0.0 to keep only positive edges when
            building shortlists).

    Ties break on the id so the result is a pure function of the input.
    """
    if k <= 0:
        return []
    candidates: Iterable[tuple[str, float]]
    if isinstance(similarities, Mapping):
        candidates = similarities.items()
    else:
        candidates = similarities
    if not isinstance(exclude, (set, frozenset)):
        exclude = set(exclude)
    if exclude:
        candidates = (pair for pair in candidates if pair[0] not in exclude)
    if minimum is not None:
        candidates = (pair for pair in candidates if pair[1] >= minimum)
    # heapq.nsmallest on (-value, id) = "largest value, then smallest id".
    return heapq.nsmallest(k, candidates, key=lambda pair: (-pair[1], pair[0]))


def rank_rows(rows: Sequence[Mapping[str, float]], ids: Mapping[str, int]):
    """Flatten ``name → weight`` *rows* into ``(ptr, neighbor ids,
    weights)`` with row ``x`` at ``[ptr[x]:ptr[x + 1]]`` in
    :func:`top_k` order. *ids* must number the names in sorted order,
    so the ascending-id tie-break is the lexicographic one."""
    ptr = _np.zeros(len(rows) + 1, dtype=_np.int64)
    _np.cumsum(_np.fromiter(map(len, rows), _np.int64, len(rows)), out=ptr[1:])
    neighbor = _np.fromiter(
        map(ids.__getitem__, chain.from_iterable(rows)), _np.int64, ptr[-1])
    weight = _np.fromiter(
        chain.from_iterable(map(methodcaller("values"), rows)), _np.float64, ptr[-1])
    owner = _np.repeat(_np.arange(len(rows)), _np.diff(ptr))
    order = _np.lexsort((neighbor, -weight, owner))
    return ptr, neighbor[order], weight[order]


def merge_ranked_entries(n_items: int, kept, placed):
    """Merge two ``(owner, neighbor ids, weights)`` entry bundles (NumPy
    arrays, each sorted by ``(owner, −weight, id)`` — row order, then
    serving rank) into one index's ``(ptr, neighbor_ids, weights)``.

    Each *placed* entry is bisected into its owner's *kept* row on
    ``(−weight, id)``: ids are distinct within a row, so that is a total
    order and the merge has one outcome — the row a full re-rank would
    produce. All entries halve their interval per step; those whose
    owner kept nothing (a row replaced whole) start converged and skip
    the bisect.
    """
    kept_owner, kept_ids, kept_wts = kept
    owner, ids, wts = placed
    kept_sizes = _np.bincount(kept_owner, minlength=n_items)
    kept_ptr = _np.zeros(n_items + 1, dtype=_np.int64)
    _np.cumsum(kept_sizes, out=kept_ptr[1:])
    at = kept_ptr[owner]
    live = _np.nonzero(at < kept_ptr[owner + 1])[0]
    lo, hi = at[live], kept_ptr[owner[live] + 1]
    live_wts, live_ids = wts[live], ids[live]
    for _ in range(int(kept_sizes.max(initial=0)).bit_length()):
        mid = _np.minimum((lo + hi) >> 1, len(kept_ids) - 1)
        ahead = (lo < hi) & (
            (kept_wts[mid] > live_wts)
            | ((kept_wts[mid] == live_wts) & (kept_ids[mid] < live_ids)))
        lo = _np.where(ahead, mid + 1, lo)
        hi = _np.where(ahead, hi, mid)
    at[live] = lo
    ptr = _np.zeros(n_items + 1, dtype=_np.int64)
    _np.cumsum(kept_sizes + _np.bincount(owner, minlength=n_items), out=ptr[1:])
    return ptr, _np.insert(kept_ids, at, ids), _np.insert(kept_wts, at, wts)


class NeighborIndex:
    """Per-item rank-ordered neighbor ids and weights in flat arrays.

    The CSR-style layout: item *idx*'s neighbors occupy
    ``neighbor_ids[ptr[idx]:ptr[idx+1]]`` (integer item indexes into
    *items*) aligned with ``weights[...]``. Within a row, neighbors are
    stored in **rank order**: descending weight, ascending neighbor
    index. Item interning is lexicographic, so integer order equals
    string order and a row prefix is exactly what :func:`top_k` would
    select — the index never re-sorts at serve time.

    Determinism contract (property-tested in ``tests/test_graph_knn.py``
    and ``tests/test_sharded_sweep.py``): rows are a pure function of
    the adjacency they were assembled from — each row is exactly
    :func:`top_k` of its adjacency row, weights bit for bit.

    Attributes:
        items: interned item-id list, index order.
        ptr: row offsets, ``len(items) + 1`` entries.
        neighbor_ids: flat neighbor item indexes, rank order per row.
        weights: flat neighbor weights, aligned with *neighbor_ids*.

    Rows are complete: every nonzero edge of the adjacency is stored.
    """

    __slots__ = ("items", "item_index", "ptr", "neighbor_ids", "weights")

    def __init__(self, items: Sequence[str], item_index: Mapping[str, int],
                 ptr, neighbor_ids, weights) -> None:
        self.items = items
        self.item_index = item_index
        self.ptr = ptr
        self.neighbor_ids = neighbor_ids
        self.weights = weights

    @property
    def n_items(self) -> int:
        return len(self.items)

    @property
    def n_entries(self) -> int:
        """Total stored (item, neighbor) entries (directed edges)."""
        return len(self.neighbor_ids)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"NeighborIndex(items={self.n_items}, "
                f"entries={self.n_entries})")

    def degree(self, item: str) -> int:
        """Stored neighbors of *item* (0 for unknown items)."""
        idx = self.item_index.get(item)
        if idx is None:
            return 0
        return int(self.ptr[idx + 1]) - int(self.ptr[idx])

    def row(self, idx: int):
        """The rank-ordered ``(neighbor ids, weights)`` array slices
        for an item *index*."""
        start, end = int(self.ptr[idx]), int(self.ptr[idx + 1])
        return self.neighbor_ids[start:end], self.weights[start:end]

    def top(self, item: str, k: int,
            minimum: float | None = None,
            among: "set[str] | frozenset[str] | None" = None,
            ) -> list[tuple[str, float]]:
        """Top-k neighbors of *item* as ``(id, weight)`` pairs.

        Identical to ``top_k(candidates, k, minimum=minimum)`` over the
        (optionally *among*-restricted) adjacency row — the rows are
        pre-ranked with the same tie-break — but a single scan: the
        *minimum* floor cuts it short (rows are weight-descending, so
        qualifying entries are a prefix), the *among* membership filter
        applies in stride, and the scan stops at k survivors. This is
        the one ranked-row selection loop every serve path shares.
        """
        if k <= 0:
            return []
        idx = self.item_index.get(item)
        if idx is None:
            return []
        ids, weights = self.row(idx)
        items = self.items
        out: list[tuple[str, float]] = []
        for nid, weight in zip(ids, weights):
            if minimum is not None and weight < minimum:
                break
            name = items[int(nid)]
            if among is not None and name not in among:
                continue
            # float() strips NumPy scalars; the bit patterns are untouched.
            out.append((name, float(weight)))
            if len(out) == k:
                break
        return out

    def updated(self, items: Sequence[str], item_index: Mapping[str, int],
                updated_rows: Sequence[int], row_sizes, row_ids,
                row_weights, item_map=None) -> "NeighborIndex":
        """A new index over *items* with the given rows replaced whole —
        the reference
        :meth:`~repro.data.matrix.MatrixRatingStore.splice_row_refresh`
        (which re-ranks entries, not rows) is tested against.

        *item_map* maps this index's item indexes into the new interning
        (``None`` when the item set did not change — the map is strictly
        increasing, as
        :meth:`~repro.data.matrix.MatrixRatingStore.append_ratings`
        guarantees). *updated_rows* are the ascending new-space indexes
        being replaced; their rank-ordered contents arrive as one flat
        bundle — per-row *row_sizes* aligned with *updated_rows*, and
        *row_ids* / *row_weights* concatenated in row order, exactly as
        :meth:`~repro.data.matrix.MatrixRatingStore.assemble_row_refresh`
        emits them. Rows not updated are carried over with their
        neighbor ids remapped; remapping is monotone, so carried rows
        keep their rank order without re-sorting. New items without an
        update get empty rows. The result is bit-identical to
        re-assembling the whole index from the updated adjacency.
        """
        n_new = len(items)
        imap = (_np.arange(self.n_items, dtype=_np.int64) if item_map is None
                else _np.asarray(item_map, dtype=_np.int64))
        upd_idx = _np.asarray(updated_rows, dtype=_np.int64)
        replaced = _np.zeros(n_new, dtype=bool)
        replaced[upd_idx] = True
        owner = _np.repeat(imap, _np.diff(self.ptr))
        keep = ~replaced[owner]
        # Replaced rows keep nothing: the merge's degenerate case.
        ptr, neighbor_ids, weights = merge_ranked_entries(
            n_new,
            (owner[keep], imap[self.neighbor_ids][keep], self.weights[keep]),
            (_np.repeat(upd_idx, _np.asarray(row_sizes, dtype=_np.int64)),
             _np.asarray(row_ids, dtype=_np.int64),
             _np.asarray(row_weights, dtype=_np.float64)))
        return NeighborIndex(items, item_index, ptr, neighbor_ids, weights)

    def neighbor_dict(self, item: str) -> dict[str, float]:
        """The full stored row as a ``neighbor id → weight`` dict (a
        convenience for tests and introspection, not a hot path)."""
        idx = self.item_index.get(item)
        if idx is None:
            return {}
        ids, weights = self.row(idx)
        items = self.items
        return {items[int(nid)]: float(weight) for nid, weight in zip(ids, weights)}
