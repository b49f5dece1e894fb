"""Top-k neighbor selection and the precomputed neighbor index.

Every phase of the paper ends with "keep the top-k": Algorithm 1/2's
nearest neighbors, the Extender's per-layer pruning, the AlterEgo's
replacement shortlists. This module centralises that selection with a
deterministic tie-break (higher similarity first, then lexicographic id)
so that runs are reproducible.

:class:`NeighborIndex` is the graph's one stored form: the same
ranking rule, applied *once* when the undirected pairs are assembled
(:meth:`NeighborIndex.from_pairs`) and frozen into flat arrays, so
queries are O(k) slices and scans instead of per-call sorts. The sweep
builds it
(:meth:`~repro.data.matrix.MatrixRatingStore.assemble_from_partitions`);
:class:`~repro.similarity.graph.ItemGraph` is its name-keyed face and
:class:`~repro.cf.item_knn.ItemKNNRecommender` serves from it.
"""

from __future__ import annotations

import heapq
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


def ranked_entries(left, right, weights, n_items: int):
    """The directed entries of the undirected pairs ``{left[e],
    right[e]}`` of weight ``weights[e]`` (item indexes below *n_items*,
    each pair once, no weight NaN), both ways round, as ``(rows, neighbors, weights)``
    in ``(row, −weight, neighbor)`` order — what
    ``np.lexsort((neighbors, -weights, rows))`` gives, with no float
    sort key.

    Each pair's weight is ranked once: one unstable ``argsort`` of the
    pair weights, weights equal under ``==`` (``-0.0`` and ``0.0``
    too) sharing a dense rank, the largest weight rank 0. The entries
    are then ordered by the int64 key ``rank · n_items + neighbor``
    (unstable: a key repeats only across rows) and then by row with one
    stable sort of the rows in the narrowest unsigned type (a radix
    sort below 2**16 items). Keys stay below ``pairs · n_items``, which
    must be under 2**63.
    """
    order = _np.argsort(weights)[::-1]
    ranked = weights[order]
    dense = _np.zeros(len(order), dtype=_np.int64)
    _np.cumsum(ranked[1:] != ranked[:-1], out=dense[1:])
    rank = _np.empty_like(dense)
    rank[order] = dense
    rows = _np.concatenate([left, right])
    neighbors = _np.concatenate([right, left])
    by_key = _np.argsort(_np.concatenate([rank, rank]) * n_items + neighbors)
    narrow = _np.min_scalar_type(max(n_items - 1, 0))
    by_key = by_key[_np.argsort(rows[by_key].astype(narrow), kind="stable")]
    return rows[by_key], neighbors[by_key], _np.concatenate([weights, weights])[by_key]


def merge_ranked_entries(kept_sizes, kept, placed):
    """Merge the *kept* ``(neighbor ids, weights)`` rows — concatenated
    in row order, row ``x`` holding ``kept_sizes[x]`` entries — with the
    *placed* ``(owner, neighbor ids, weights)`` entries (NumPy arrays,
    both in ``(owner, −weight, id)`` order: row order, then serving
    rank) into one index's ``(ptr, neighbor_ids, weights)``.

    Each *placed* entry is bisected into its owner's *kept* row on
    ``(−weight, id)``: ids are distinct within a row, so that is a total
    order and the merge has one outcome — the row a full re-rank would
    produce. All entries halve their interval per step; those whose
    owner kept nothing (a row replaced whole) start converged and skip
    the bisect.

    Cost: the bisect's work over the placed entries, a pass over the
    rows, and one scatter per output array: placed entry ``j`` lands
    in slot ``at[j] + j`` (its insert position ``at`` does not decrease
    along the placed order) and the kept entries fill the other slots
    in order — nothing sorted, nothing per kept entry beyond the copy.
    """
    kept_ids, kept_wts = kept
    owner, ids, wts = placed
    n_items = len(kept_sizes)
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
    slots = at + _np.arange(len(at))
    from_kept = _np.ones(len(kept_ids) + len(ids), dtype=bool)
    from_kept[slots] = False
    out_ids = _np.empty(len(from_kept), dtype=kept_ids.dtype)
    out_wts = _np.empty(len(from_kept), dtype=kept_wts.dtype)
    out_ids[from_kept], out_ids[slots] = kept_ids, ids
    out_wts[from_kept], out_wts[slots] = kept_wts, wts
    return ptr, out_ids, out_wts


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
    the pairs they were assembled from — each row is exactly
    :func:`top_k` of that item's edges, weights bit for bit.

    Attributes:
        items: interned item-id list, index order.
        ptr: row offsets, ``len(items) + 1`` entries.
        neighbor_ids: flat neighbor item indexes, rank order per row.
        weights: flat neighbor weights, aligned with *neighbor_ids*.

    Rows are complete: every nonzero edge is stored, in both rows.
    """

    __slots__ = ("items", "item_index", "ptr", "neighbor_ids", "weights")

    def __init__(self, items: Sequence[str], item_index: Mapping[str, int],
                 ptr, neighbor_ids, weights) -> None:
        self.items = items
        self.item_index = item_index
        self.ptr = ptr
        self.neighbor_ids = neighbor_ids
        self.weights = weights

    @classmethod
    def from_pairs(cls, items: Sequence[str], item_index: Mapping[str, int],
                   left, right, weights) -> "NeighborIndex":
        """The index of the undirected edges ``{left[e], right[e]}`` of
        weight ``weights[e]`` (item indexes into the sorted *items*;
        each pair once, weights nonzero).

        Each pair is stored in both rows, in (row, descending weight,
        ascending neighbor) order: :func:`ranked_entries` ranks the
        pair weights once and orders the entries by integer keys — no
        float sort key, and ``pairs · len(items)`` must stay below
        2**63. Items without an edge keep an empty row.
        """
        src, tgt, wts = ranked_entries(left, right, weights, len(items))
        ptr = _np.searchsorted(src, _np.arange(len(items) + 1))
        return cls(items, item_index, ptr, tgt, wts)

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

    def owners(self):
        """The row (owner item index) of every stored entry, aligned
        with :attr:`neighbor_ids`."""
        return _np.repeat(_np.arange(self.n_items, dtype=_np.int64), _np.diff(self.ptr))

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
        (``None`` when the item set did not change; strictly increasing,
        as :meth:`~repro.data.matrix.MatrixRatingStore.append_ratings`
        guarantees, so carried rows keep their rank order). The
        ascending new-space *updated_rows* arrive as one flat bundle —
        per-row *row_sizes*, *row_ids* / *row_weights* in row order —
        as :meth:`~repro.data.matrix.MatrixRatingStore.assemble_row_refresh`
        emits them. New items without an update get empty rows. The
        result is bit-identical to re-assembling the whole index.
        """
        imap = (_np.arange(self.n_items, dtype=_np.int64) if item_map is None
                else _np.asarray(item_map, dtype=_np.int64))
        upd_idx = _np.asarray(updated_rows, dtype=_np.int64)
        kept_sizes = _np.zeros(len(items), dtype=_np.int64)
        kept_sizes[imap] = _np.diff(self.ptr)
        # Replaced rows keep nothing: the merge's degenerate case.
        kept_sizes[upd_idx] = 0
        keep = _np.repeat(kept_sizes[imap] > 0, _np.diff(self.ptr))
        ptr, neighbor_ids, weights = merge_ranked_entries(
            kept_sizes,
            (imap[self.neighbor_ids[keep]], self.weights[keep]),
            (_np.repeat(upd_idx, _np.asarray(row_sizes, dtype=_np.int64)),
             _np.asarray(row_ids, dtype=_np.int64),
             _np.asarray(row_weights, dtype=_np.float64)))
        return NeighborIndex(items, item_index, ptr, neighbor_ids, weights)

    def neighbor_dict(self, item: str) -> dict[str, float]:
        """The full stored row as a ``neighbor id → weight`` dict, in
        rank order (empty for unknown items) — built per call."""
        idx = self.item_index.get(item)
        if idx is None:
            return {}
        ids, weights = self.row(idx)
        items = self.items
        return dict(zip([items[nid] for nid in ids.tolist()], weights.tolist()))
