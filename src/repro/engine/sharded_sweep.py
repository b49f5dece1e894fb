"""The Baseliner's Eq-6 pair sweep, and the form of it that stays updatable.

The paper runs the Baseliner as a Spark job (§5.1, Figure 4): the
co-rating pair contributions are accumulated by key and assembled into
the similarity graph. Here that job is two calls over the interned
:class:`~repro.data.matrix.MatrixRatingStore`:

* :func:`sharded_pair_accumulation` folds the Eq-6 numerators and the
  co-rater counts in one pass over every eligible user's row
  (Definition-2 significance is not swept here: the Extender reads it
  for its pruned edges only, from
  :meth:`~repro.data.matrix.MatrixRatingStore.edge_significance`);
* :meth:`~repro.data.matrix.MatrixRatingStore.assemble_from_partitions`
  turns the accumulation into the rank-ordered
  :class:`~repro.similarity.knn.NeighborIndex`, in one sort — the graph's
  one stored form.

:func:`run_sweep` times both into ``sweep_stage_seconds{accumulate,
assemble}``; the stateless graph build
(:func:`~repro.similarity.graph.build_similarity_graph`) and
:class:`IncrementalSweep` both go through it. Figure 11's distribution
claim is costed by :mod:`repro.engine.cluster`, not run here. The
module and function names are the ones
``bench/workloads/sweep_ingest.py`` instruments.

Determinism: the accumulation visits users in one canonical order (one
sequential add per co-rating), so the sweep is a pure function of the
table, bit for bit — and an :class:`IncrementalSweep` after any
sequence of updates equals a fresh one over the final table.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import TYPE_CHECKING

from repro.data.matrix import (
    MatrixRatingStore,
    PairAccumulation,
    RowSplice,
    StoreDelta,
)
from repro.data.ratings import Rating, RatingTable, line_break_id
from repro.faults.plan import fault_point
from repro.obs.metrics import get_registry, observe_stage_seconds
from repro.errors import DataError, DurabilityError
from repro.similarity.graph import ItemGraph

if TYPE_CHECKING:  # pragma: no cover - typing only
    from typing import Iterable

    from repro.similarity.knn import NeighborIndex


def sharded_pair_accumulation(
    store: MatrixRatingStore,
    max_profile_size: int | None = None,
) -> PairAccumulation:
    """The Eq-6 accumulation of every co-rated pair in *store*
    (:meth:`~repro.data.matrix.MatrixRatingStore.pair_accumulation`)."""
    return store.pair_accumulation(max_profile_size=max_profile_size)


def run_sweep(
    store: MatrixRatingStore,
    min_common_users: int = 1,
    min_abs_similarity: float = 0.0,
) -> tuple[PairAccumulation, NeighborIndex]:
    """Accumulate and assemble *store*'s Eq-6 graph, timing each stage.

    Returns the accumulation and the index. Each call adds one
    ``sweep_stage_seconds`` sample per stage.
    """
    started = time.perf_counter()
    acc = sharded_pair_accumulation(store)
    accumulated = time.perf_counter()
    index = store.assemble_from_partitions(
        acc,
        min_common_users=min_common_users,
        min_abs_similarity=min_abs_similarity,
    )
    observe_stage_seconds("sweep", {
        "accumulate": accumulated - started,
        "assemble": time.perf_counter() - accumulated,
    })
    return acc, index


def _field_error(rating) -> str | None:
    """Why *rating* could not be logged and replayed as given, or
    ``None``. Ids are ``str``. The value is an ``int`` or ``float`` and
    the timestep an ``int`` in int64 range (a table's timestep column),
    exactly as the log's JSON records and replay rebuilds them — a
    ``numpy`` scalar other than ``float64`` is refused, not converted.
    A ``bool`` counts as neither: the log would record ``true``, not a
    number, and a flag where a rating belongs is a caller's mistake.
    """
    if not isinstance(rating, Rating):
        return f"batch entry {rating!r} is not a Rating"
    for name in ("user", "item"):
        if not isinstance(getattr(rating, name), str):
            return f"{name} id {getattr(rating, name)!r} is not a str"
    if isinstance(rating.value, bool) or not isinstance(rating.value, (int, float)):
        return f"value {rating.value!r} is not an int or float"
    step = rating.timestep
    if isinstance(step, bool) or not isinstance(step, int) or not -2**63 <= step < 2**63:
        return f"timestep {step!r} is not an int in int64 range"
    return None


_M_REJECTED = get_registry().counter(
    "incremental_batches_rejected_total",
    "update batches refused by validation before reaching the log")
_M_ENTRIES_CHANGED = get_registry().counter(
    "incremental_entries_changed_total",
    "directed adjacency entries incremental updates ranked and placed")
_M_APPLY_FAILURES = get_registry().counter(
    "incremental_apply_failures_total",
    "logged update batches that failed to apply (the sweep then "
    "refuses updates until recovered)")


@dataclass(frozen=True)
class IncrementalUpdateStats:
    """Observability of one :meth:`IncrementalSweep.update` call.

    Attributes:
        n_batch: ratings in the (deduplicated) batch.
        n_new_users / n_new_items: ids interned by the batch.
        n_touched_users: users whose means (and so centered values)
            moved.
        n_touched_items: items inside the batch's blast radius (every
            item a touched user rates).
        n_affected_rows: adjacency / ``NeighborIndex`` rows inside the
            blast radius (touched items, their current partners and
            their pre-update neighbors).
        n_changed_entries: directed entries the refresh ranked and
            placed — with *n_affected_rows*, whether an update moved a
            lot or merely touched a lot.
        delta_pairs: distinct pairs the delta re-accumulation recomputed.
        append_seconds: store append (array patch + targeted recompute).
        delta_seconds: restricted Eq-6 re-accumulation.
        fold_seconds: folding the delta over the retained accumulation.
        refresh_seconds: entry re-ranking + index splice.
        total_seconds: the whole update, table derivation included.
        edges_added / edges_removed: undirected edges that appeared /
            vanished, as ``(i, j)`` with ``i < j`` — what lets the
            Baseliner patch its edge census without a recount.
        affected_items: item ids (ascending) whose adjacency /
            ``NeighborIndex`` rows could have changed — the exact
            blast radius a serving-side row cache must evict
            (``n_affected_rows`` is its length).
        batch_users: user ids (ascending) with ratings in the batch.
        wal_seq: the batch's write-ahead-log sequence number when the
            sweep has a ``wal`` attached, else ``None``.
    """

    n_batch: int
    n_new_users: int
    n_new_items: int
    n_touched_users: int
    n_touched_items: int
    n_affected_rows: int
    delta_pairs: int
    append_seconds: float
    delta_seconds: float
    fold_seconds: float
    refresh_seconds: float
    total_seconds: float
    edges_added: tuple[tuple[str, str], ...]
    edges_removed: tuple[tuple[str, str], ...]
    affected_items: tuple[str, ...] = ()
    batch_users: tuple[str, ...] = ()
    wal_seq: int | None = None
    n_changed_entries: int = 0

    def __post_init__(self) -> None:
        _M_ENTRIES_CHANGED.inc(self.n_changed_entries)
        observe_stage_seconds(
            "incremental_update",
            {
                "append": self.append_seconds,
                "delta": self.delta_seconds,
                "fold": self.fold_seconds,
                "refresh": self.refresh_seconds,
                "total": self.total_seconds,
            },
        )


class IncrementalSweep:
    """A Baseliner sweep that stays updatable: build once, append rating
    batches without re-running the offline job.

    The build runs :func:`run_sweep` and keeps what the stateless graph
    build throws away — the :class:`PairAccumulation` — alongside the
    serving :class:`~repro.similarity.knn.NeighborIndex`, which holds
    the whole graph ``G_ac`` as flat arrays. :meth:`update` then
    realises the paper's §4.3 incremental-update remark for the
    similarity backbone itself:

    1. the table derives with a delta handoff and the store appends the
       batch (:meth:`~repro.data.matrix.MatrixRatingStore.append_ratings`
       — new ids interned in sorted position, only touched rows/columns
       recomputed);
    2. a restricted Eq-6 re-accumulation recomputes exactly the pairs
       the batch could have moved and folds into the retained
       accumulation;
    3. only the entries with a touched endpoint are re-ranked and
       merged into a new index
       (:meth:`~repro.data.matrix.MatrixRatingStore.splice_row_refresh`).

    Each step returns new objects; ``table`` / ``store`` /
    ``accumulation`` / ``index`` are replaced together once all of them
    are computed, so an update either moves the sweep whole or not at
    all. :attr:`graph` is the :class:`~repro.similarity.graph.ItemGraph`
    over the current index.

    Equality contract (property-tested in ``tests/test_incremental.py``):
    after any sequence of updates, the store, accumulation, index and
    :attr:`graph` are **bit-identical** to a fresh
    :class:`IncrementalSweep` built on the final table.

    Args:
        table: the initial aggregated rating table.
        min_common_users / min_abs_similarity: edge filters, as in
            :func:`~repro.similarity.graph.build_similarity_graph`.
        wal: a :class:`~repro.durability.log.RatingLog` to append every
            valid update batch to **before** applying it — the
            write-ahead discipline: after a crash the log always holds
            at least what the in-memory state absorbed, so replaying it
            over the last checkpoint reconstructs the sweep exactly
            (:mod:`repro.durability.manager`). ``None`` (the default)
            keeps the sweep purely in-memory.
    """

    def __init__(
        self,
        table: RatingTable,
        min_common_users: int = 1,
        min_abs_similarity: float = 0.0,
        wal=None,
    ) -> None:
        self.wal = wal
        self.min_common_users = min_common_users
        self.min_abs_similarity = min_abs_similarity
        self.table = table
        self.store = table.matrix()
        self.accumulation, self.index = run_sweep(
            self.store, min_common_users, min_abs_similarity)
        self._unapplied_seq: int | None = None

    @property
    def graph(self) -> ItemGraph:
        """The current graph, an :class:`~repro.similarity.graph.ItemGraph`
        over :attr:`index`.

        An update swaps the index, so a graph taken before it keeps
        describing its own version, the way a snapshot does.
        """
        return ItemGraph(self.index)

    def update(self, batch: "Iterable[Rating]") -> IncrementalUpdateStats:
        """Append *batch*: a new store, accumulation and index in place
        of a rebuild, adopted together at the end.

        With a ``wal`` attached, the batch is validated, then logged
        (and acknowledged by the log's group-commit discipline) before
        any in-memory state moves — log-then-apply, never the reverse,
        and never a record that replay would refuse or change: a batch
        with a field of the wrong type (ids ``str``, the value an
        ``int`` or ``float``, the timestep an ``int``; a ``bool`` is
        neither), one the table rejects, or one with an id no snapshot
        could hold (:func:`~repro.data.ratings.line_break_id`), raises
        :class:`~repro.errors.DataError`, is counted
        (``incremental_batches_rejected_total``) and leaves log and
        sweep untouched.

        A logged batch that then fails to apply leaves the sweep behind
        its log: the failure is counted
        (``incremental_apply_failures_total``) and re-raised, and every
        later update raises :class:`~repro.errors.DurabilityError`
        until the store is recovered, which replays the batch. Without
        a ``wal`` nothing was logged, so a failed update leaves the
        sweep as it was and later updates proceed.
        """
        if self._unapplied_seq is not None:
            raise DurabilityError(
                f"logged batch seq {self._unapplied_seq} failed to apply; "
                f"this sweep is behind its log — recover the durable store "
                f"to replay it")
        started = time.perf_counter()
        batch = list(batch)
        try:
            for rating in batch:
                problem = _field_error(rating)
                if problem is not None:
                    raise DataError(f"{problem}: the log could not replay it as given")
            bad_id = line_break_id([name for r in batch for name in (r.user, r.item)])
            if bad_id is not None:
                raise DataError(
                    f"id {bad_id!r} holds a line break: no snapshot could "
                    f"publish or checkpoint it")
            new_table = self.table.with_ratings(batch)
        except DataError:
            _M_REJECTED.inc()
            raise
        wal_seq = None
        if self.wal is not None:
            wal_seq = self.wal.append(batch)
        try:
            fault_point("sweep.apply")
            return self._apply(batch, new_table, started, wal_seq)
        except BaseException:
            if wal_seq is not None:
                _M_APPLY_FAILURES.inc()
                self._unapplied_seq = wal_seq
            raise

    def _apply(self, batch: list[Rating], new_table: RatingTable,
               started: float, wal_seq: int | None) -> IncrementalUpdateStats:
        """Compute the appended store, folded accumulation and spliced
        index into locals, then adopt all four at once."""
        append_start = time.perf_counter()
        new_store, delta = self.store.append_ratings(batch)
        append_seconds = time.perf_counter() - append_start
        # The derived table adopts the appended store so downstream
        # consumers (recommenders, significance caches) share it instead
        # of appending a second time through the handoff.
        new_table._matrix_cache = new_store
        new_table._matrix_delta_base = None

        delta_start = time.perf_counter()
        delta_acc = new_store.delta_pair_accumulation(delta)
        delta_seconds = time.perf_counter() - delta_start

        fold_start = time.perf_counter()
        new_acc = new_store.apply_accumulation_delta(
            self.accumulation, delta_acc, delta
        )
        fold_seconds = time.perf_counter() - fold_start

        refresh_start = time.perf_counter()
        refreshed = self._refresh(new_store, new_acc, delta)
        refresh_seconds = time.perf_counter() - refresh_start

        self.table = new_table
        self.store = new_store
        self.accumulation = new_acc
        self.index = refreshed.index

        return IncrementalUpdateStats(
            n_batch=len({(r.user, r.item) for r in batch}),
            n_new_users=len(delta.new_users),
            n_new_items=len(delta.new_items),
            n_touched_users=len(delta.touched_users),
            n_touched_items=len(delta.touched_items),
            n_affected_rows=len(refreshed.affected),
            delta_pairs=delta_acc.n_pairs,
            append_seconds=append_seconds,
            delta_seconds=delta_seconds,
            fold_seconds=fold_seconds,
            refresh_seconds=refresh_seconds,
            total_seconds=time.perf_counter() - started,
            edges_added=refreshed.edges_added,
            edges_removed=refreshed.edges_removed,
            affected_items=tuple(new_store.items[i] for i in refreshed.affected),
            batch_users=tuple(sorted({r.user for r in batch})),
            wal_seq=wal_seq,
            n_changed_entries=refreshed.n_changed_entries,
        )

    def _refresh(self, new_store: MatrixRatingStore, new_acc: PairAccumulation,
                 delta: StoreDelta) -> RowSplice:
        """What the folded accumulation changes in the index: the
        entry-level splice (:meth:`_refresh_whole_rows` is its oracle)."""
        return new_store.splice_row_refresh(
            new_acc, delta, self.index,
            min_common_users=self.min_common_users,
            min_abs_similarity=self.min_abs_similarity)

    def _refresh_whole_rows(self, new_store: MatrixRatingStore,
                            new_acc: PairAccumulation,
                            delta: StoreDelta) -> RowSplice:
        """Re-assemble every affected row whole — the oracle the splice
        is tested against."""
        # Rows that may have lost an edge: the touched items' partners
        # *before* the update, read from the old index (an appended
        # batch can drive an Eq-6 numerator to exactly zero, dropping
        # the edge).
        items = new_store.items
        item_index = new_store.item_index
        old = self.index
        old_partner_rows = {
            item_index[neighbor]
            for i in delta.touched_items
            for neighbor in old.neighbor_dict(items[i])}
        index_update, affected = new_store.assemble_row_refresh(
            new_acc,
            delta,
            extra_rows=sorted(old_partner_rows),
            min_common_users=self.min_common_users,
            min_abs_similarity=self.min_abs_similarity,
        )
        new_index = old.updated(
            items, item_index, affected, *index_update, item_map=delta.item_map)

        # Every changed edge has both endpoints among the rows.
        def _edges(index: NeighborIndex) -> set[tuple[str, str]]:
            return {(items[i], j) for i in affected
                    for j in index.neighbor_dict(items[i]) if items[i] < j}

        before, after = _edges(old), _edges(new_index)
        return RowSplice(
            new_index, affected, tuple(sorted(after - before)),
            tuple(sorted(before - after)),
            n_changed_entries=len(index_update[1]))
