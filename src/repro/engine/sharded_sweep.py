"""The sharded Eq-6 pair sweep: X-Map's Baseliner as a real dataflow job.

The paper runs the Baseliner as a Spark job (§5.1, Figure 4): the
co-rating pair contributions are partitioned by key, accumulated per
partition and merged. PR 1 vectorised that sweep but kept it
single-process; this module makes the dataflow engine the actual
execution substrate of the offline pipeline:

* the store's interned user rows are partitioned with the engine's
  :class:`~repro.engine.partitioner.HashPartitioner` over the *user ids*
  (repr-stable, so every process agrees on the layout);
* each shard runs the store's batched accumulation —
  :meth:`~repro.data.matrix.MatrixRatingStore.pair_accumulation` — which
  folds the Eq-6 numerators and the co-rater counts in a single pass
  over the shard's rows (Definition-2 significance is not swept here:
  the Extender reads it for its pruned edges only, from
  :meth:`~repro.data.matrix.MatrixRatingStore.edge_significance`);
* the back half is partitioned too: each shard's pair list is routed to
  the item partition owning its **left item** (``HashPartitioner`` over
  the item ids again), every partition merges its own bincounts in
  shard-index order and assembles its own adjacency rows — and the
  serving :class:`~repro.similarity.knn.NeighborIndex` — locally, so
  nothing funnels through one driver-wide merge + sort (the tail that
  had become the larger half of graph build, see
  ``benchmarks/results/sharded_sweep_*``).

Shards execute one after another in the driver; the measured per-shard
durations are kept in :class:`SweepStats`, whose maximum is the critical
path a parallel executor would be bound by.

Determinism contract — property-tested in ``tests/test_sharded_sweep.py``:

* for a **fixed shard count**, the output is a pure function of the
  table (the merge adds per-shard partials in shard index order);
* with **one shard** the sweep *is* the unsharded store path —
  bit-identical to
  :meth:`~repro.data.matrix.MatrixRatingStore.build_adjacency`;
* across **different shard counts** the float numerator merge order
  changes, so similarities agree to ~1e-15 (the tests pin 1e-9) while
  the integer co-rater counts stay exactly equal;
* across **edge-partition counts** nothing moves at all: splitting pairs
  by left item only changes *where* each per-pair sum is added, never
  its addend order, so the assembled adjacency and index are
  bit-identical to the single driver pass for any ``n_edge_partitions``.

Shard count comes from the ``n_shards`` argument or the ``REPRO_SHARDS``
environment variable (the CI matrix runs a ``REPRO_SHARDS=4`` leg). The
assembly partition count comes from ``n_edge_partitions`` /
``REPRO_EDGE_PARTITIONS`` and defaults to the shard count.
"""

from __future__ import annotations

import os
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
from repro.obs.metrics import get_registry, observe_stage_seconds
from repro.engine.partitioner import HashPartitioner
from repro.errors import DataError, EngineError

if TYPE_CHECKING:  # pragma: no cover - typing only
    from typing import Iterable

    from repro.similarity.graph import ItemGraph
    from repro.similarity.knn import NeighborIndex

_SHARDS_ENV = "REPRO_SHARDS"
_EDGE_PARTITIONS_ENV = "REPRO_EDGE_PARTITIONS"


def _positive_int_env(name: str, default: int) -> int:
    raw = os.environ.get(name, "")
    if raw in ("", "0"):
        return default
    try:
        value = int(raw)
    except ValueError:
        raise EngineError(f"{name} must be a positive integer, got {raw!r}") from None
    if value < 0:
        raise EngineError(f"{name} must be >= 0, got {value}")
    return value


def resolve_n_shards(n_shards: int | None = None) -> int:
    """The effective shard count: the explicit argument, else the
    ``REPRO_SHARDS`` environment variable, else 1 (unsharded)."""
    if n_shards is None:
        return _positive_int_env(_SHARDS_ENV, 1)
    if n_shards < 1:
        raise EngineError(f"n_shards must be >= 1, got {n_shards}")
    return n_shards


def resolve_edge_partitions(
    n_edge_partitions: int | None = None,
    n_shards: int = 1,
) -> int:
    """The effective item-partition count for adjacency assembly: the
    explicit argument, else ``REPRO_EDGE_PARTITIONS``, else the resolved
    shard count (assembly follows the sweep's parallelism by default, so
    a sharded run never funnels its back half through one driver pass).
    """
    if n_edge_partitions is None:
        return _positive_int_env(_EDGE_PARTITIONS_ENV, n_shards)
    if n_edge_partitions < 1:
        raise EngineError(f"n_edge_partitions must be >= 1, got {n_edge_partitions}")
    return n_edge_partitions


@dataclass(frozen=True)
class SweepStats:
    """Observability of one sharded sweep.

    Attributes:
        n_shards: shard count the layout was computed for.
        shard_users: eligible users per shard.
        shard_pairs: distinct co-rated pairs each shard produced.
        durations: measured per-shard wall seconds, indexed by shard.
        merge_seconds: wall seconds spent merging the shard bincounts
            (summed over item partitions when assembly is partitioned —
            each partition merges only its own pairs).
        n_edge_partitions: item-partition count of the assembly stage
            (1 = the single driver pass). The assembly fields below are
            filled by :func:`sharded_adjacency` — length-1 tuples on
            1-partition runs — and left at their defaults by
            :func:`sharded_pair_accumulation`, which runs no assembly.
        split_seconds: wall seconds spent routing each shard's pairs to
            their owning item partition (0.0 when nothing was split).
        partition_pairs: distinct pairs per item partition after the
            per-partition merges.
        partition_merge_seconds: per-partition merge wall seconds — the
            per-task durations of the merge stage, whose max is the
            critical path a partitioned driver would be bound by.
        assembly_seconds: wall seconds of adjacency/index assembly.
    """

    n_shards: int
    shard_users: tuple[int, ...]
    shard_pairs: tuple[int, ...]
    durations: tuple[float, ...]
    merge_seconds: float
    n_edge_partitions: int = 1
    split_seconds: float = 0.0
    partition_pairs: tuple[int, ...] = ()
    partition_merge_seconds: tuple[float, ...] = ()
    assembly_seconds: float = 0.0

    def __post_init__(self) -> None:
        observe_stage_seconds(
            "sweep",
            {
                "shards": sum(self.durations),
                "merge": self.merge_seconds,
                "split": self.split_seconds,
                "assembly": self.assembly_seconds,
            },
        )


@dataclass(frozen=True)
class ShardedSweepResult:
    """Outcome of :func:`sharded_adjacency`.

    Attributes:
        adjacency: the symmetric Eq-6 adjacency (every item present,
            isolated ones with an empty neighbor dict) —
            :meth:`~repro.similarity.graph.ItemGraph.from_adjacency`
            adopts it without copying.
        index: the rank-ordered
            :class:`~repro.similarity.knn.NeighborIndex` selected
            per item partition during assembly — the serving handoff.
            None unless requested.
        stats: execution observability.
    """

    adjacency: dict[str, dict[str, float]]
    stats: SweepStats
    index: "NeighborIndex | None" = None


def shard_user_indices(store: MatrixRatingStore, n_shards: int) -> list[list[int]]:
    """Partition the store's interned user rows into shards.

    Routing hashes the *user id strings* with the engine's
    :class:`~repro.engine.partitioner.HashPartitioner`, so the layout is
    a pure function of (user set, shard count): stable across processes
    and runs. Each shard's index list is ascending — interning
    is sorted, so position equals row index.
    """
    return HashPartitioner(n_shards).split(store.users)


def _execute_shards(
    store: MatrixRatingStore,
    n_shards: int,
    max_profile_size: int | None,
) -> tuple[list[list[int]], list[PairAccumulation], list[float]]:
    """Partition the users and run the shard tasks in the driver.

    Returns ``(shards, parts, durations)``, each indexed by shard id.
    """
    shards = shard_user_indices(store, n_shards)
    parts: list[PairAccumulation] = []
    durations: list[float] = []
    for users in shards:
        start = time.perf_counter()
        parts.append(store.pair_accumulation(users, max_profile_size=max_profile_size))
        durations.append(time.perf_counter() - start)
    return shards, parts, durations


def _sweep_stats(
    shards,
    parts,
    durations,
    merge_seconds: float,
    **assembly_fields,
) -> SweepStats:
    return SweepStats(
        n_shards=len(shards),
        shard_users=tuple(len(shard) for shard in shards),
        shard_pairs=tuple(part.n_pairs for part in parts),
        durations=tuple(durations),
        merge_seconds=merge_seconds,
        **assembly_fields,
    )


def sharded_pair_accumulation(
    store: MatrixRatingStore,
    n_shards: int | None = None,
    max_profile_size: int | None = None,
) -> tuple[PairAccumulation, SweepStats]:
    """Run the partitioned Eq-6 accumulation and merge the shards.

    Returns the merged :class:`~repro.data.matrix.PairAccumulation` plus
    the sweep's :class:`SweepStats`. Shards are merged in shard-index
    order, which is what makes the result a pure function of (table,
    shard count).
    """
    shards, parts, durations = _execute_shards(
        store, resolve_n_shards(n_shards), max_profile_size)

    merge_start = time.perf_counter()
    merged = store.merge_accumulations(parts)
    merge_seconds = time.perf_counter() - merge_start
    return merged, _sweep_stats(shards, parts, durations, merge_seconds)


def sharded_adjacency(
    table: RatingTable | MatrixRatingStore,
    n_shards: int | None = None,
    min_common_users: int = 1,
    min_abs_similarity: float = 0.0,
    max_profile_size: int | None = None,
    n_edge_partitions: int | None = None,
    with_index: bool = False,
) -> ShardedSweepResult:
    """The Baseliner's pair sweep as a shard-then-merge dataflow job.

    Args:
        table: the aggregated rating table (its memoized store is used)
            or a prebuilt store.
        n_shards: shard count; ``None`` reads ``REPRO_SHARDS`` (1 =
            unsharded, bit-identical to the store path).
        min_common_users: minimum co-raters for an edge.
        min_abs_similarity: magnitude floor for edges.
        max_profile_size: skew guard on profile length.
        n_edge_partitions: item-partition count for the merge + assembly
            back half: each shard's pairs are routed to the partition
            owning their left item (the engine's ``HashPartitioner``
            over item ids) and every partition merges and assembles only
            its own rows. ``None`` reads ``REPRO_EDGE_PARTITIONS``, else
            follows the shard count; 1 is the single driver pass. Any
            value produces the same adjacency bit for bit — per-pair
            partials are still added in shard order.
        with_index: also assemble the serving
            :class:`~repro.similarity.knn.NeighborIndex` during the same
            partition-local pass (rows ranked once).
    """
    store = table.matrix() if isinstance(table, RatingTable) else table
    n_shards = resolve_n_shards(n_shards)
    n_edge_partitions = resolve_edge_partitions(n_edge_partitions, n_shards)
    shards, parts, durations = _execute_shards(store, n_shards, max_profile_size)

    # Back half: route each shard's pairs to the item partition owning
    # their left item, merge per partition (shard order, so per-pair
    # sums match the driver merge bit for bit), then assemble each
    # partition's adjacency rows — and the serving index — locally.
    split_seconds = 0.0
    if n_edge_partitions > 1:
        owners = HashPartitioner(n_edge_partitions).assign(store.items)
        split_start = time.perf_counter()
        split_parts = [
            store.split_accumulation(part, owners, n_edge_partitions)
            for part in parts
        ]
        split_seconds = time.perf_counter() - split_start
    else:
        owners = None
        split_parts = [[part] for part in parts]

    merged_parts: list[PairAccumulation] = []
    partition_merge_seconds = []
    for p in range(n_edge_partitions):
        merge_start = time.perf_counter()
        merged_parts.append(
            store.merge_accumulations([split_parts[s][p] for s in range(n_shards)])
        )
        partition_merge_seconds.append(time.perf_counter() - merge_start)

    assembly_start = time.perf_counter()
    assembled = store.assemble_from_partitions(
        merged_parts,
        owners,
        min_common_users=min_common_users,
        min_abs_similarity=min_abs_similarity,
        with_index=with_index,
    )
    assembly_seconds = time.perf_counter() - assembly_start

    stats = _sweep_stats(
        shards,
        parts,
        durations,
        merge_seconds=sum(partition_merge_seconds),
        n_edge_partitions=n_edge_partitions,
        split_seconds=split_seconds,
        partition_pairs=tuple(part.n_pairs for part in merged_parts),
        partition_merge_seconds=tuple(partition_merge_seconds),
        assembly_seconds=assembly_seconds,
    )
    return ShardedSweepResult(
        adjacency=assembled.adjacency,
        stats=stats,
        index=assembled.index,
    )


_M_REJECTED = get_registry().counter(
    "incremental_batches_rejected_total",
    "update batches refused by validation before reaching the log")
_M_ENTRIES_CHANGED = get_registry().counter(
    "incremental_entries_changed_total",
    "directed adjacency entries incremental updates ranked and placed")
_M_ROWS = get_registry().counter(
    "incremental_rows_total",
    "adjacency rows incremental updates refreshed, by how",
    labels=("mode",))


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
        n_rebuilt_rows: affected rows whose adjacency dict was rebuilt
            whole; the other affected rows were patched per entry.
        n_changed_entries: directed entries the refresh ranked and
            placed — with *n_affected_rows*, whether an update moved a
            lot or merely touched a lot.
        delta_pairs: distinct pairs the delta re-accumulation recomputed.
        append_seconds: store append (array patch + targeted recompute).
        delta_seconds: restricted Eq-6 re-accumulation.
        fold_seconds: folding the delta over the retained accumulation.
        refresh_seconds: entry re-ranking + graph/index splice.
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
    n_rebuilt_rows: int = 0
    n_changed_entries: int = 0

    def __post_init__(self) -> None:
        _M_ENTRIES_CHANGED.inc(self.n_changed_entries)
        _M_ROWS.labels("rebuilt").inc(self.n_rebuilt_rows)
        _M_ROWS.labels("patched").inc(self.n_affected_rows - self.n_rebuilt_rows)
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

    The build runs the sharded pair accumulation and keeps what every
    other path throws away — the merged :class:`PairAccumulation` —
    alongside the assembled :class:`~repro.similarity.graph.ItemGraph`
    and serving :class:`~repro.similarity.knn.NeighborIndex`.
    :meth:`update` then realises the paper's §4.3 incremental-update
    remark for the similarity backbone itself:

    1. the table derives with a delta handoff and the store appends the
       batch (:meth:`~repro.data.matrix.MatrixRatingStore.append_ratings`
       — new ids interned in sorted position, only touched rows/columns
       recomputed);
    2. a restricted Eq-6 re-accumulation recomputes exactly the pairs
       the batch could have moved, shard-faithfully (per-shard deltas
       merged in shard order), and folds into the retained accumulation;
    3. only the entries with a touched endpoint are re-ranked and
       merged into the graph and index
       (:meth:`~repro.data.matrix.MatrixRatingStore.splice_row_refresh`).

    Equality contract (property-tested in ``tests/test_incremental.py``):
    after any sequence of updates, the store, accumulation, graph and
    index are **bit-identical** to a fresh
    :class:`IncrementalSweep` built on the final table with the same
    shard count — and within 1e-9 across shard counts, per the sweep's
    standing contract.

    Args:
        table: the initial aggregated rating table.
        n_shards: shard count for both the build and every delta
            re-accumulation (``None`` reads ``REPRO_SHARDS``).
        min_common_users / min_abs_similarity: edge filters, as in
            :func:`sharded_adjacency`.
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
        n_shards: int | None = None,
        min_common_users: int = 1,
        min_abs_similarity: float = 0.0,
        wal=None,
    ) -> None:
        from repro.similarity.graph import ItemGraph

        self.wal = wal
        self.n_shards = resolve_n_shards(n_shards)
        self.min_common_users = min_common_users
        self.min_abs_similarity = min_abs_similarity
        self.table = table
        self.store = table.matrix()
        self.accumulation, self.build_stats = sharded_pair_accumulation(
            self.store, n_shards=self.n_shards)
        assembled = self.store.assemble_from_partitions(
            [self.accumulation],
            min_common_users=min_common_users,
            min_abs_similarity=min_abs_similarity,
            with_adjacency=True,
            with_index=True,
        )
        self.index = assembled.index
        self.graph: ItemGraph = ItemGraph.from_adjacency(
            assembled.adjacency, index=assembled.index
        )

    def update(self, batch: "Iterable[Rating]") -> IncrementalUpdateStats:
        """Append *batch* and patch the store, accumulation, graph and
        index in place of a rebuild.

        With a ``wal`` attached, the batch is validated, then logged
        (and acknowledged by the log's group-commit discipline) before
        any in-memory state moves — log-then-apply, never the reverse,
        and never a record that replay would refuse: a batch the table
        rejects, or one with an id no snapshot could hold
        (:func:`~repro.data.ratings.line_break_id`), raises
        :class:`~repro.errors.DataError` and leaves log and sweep
        untouched.
        """
        started = time.perf_counter()
        batch = list(batch)
        try:
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

        append_start = time.perf_counter()
        new_store, delta = self.store.append_ratings(batch)
        append_seconds = time.perf_counter() - append_start
        # The derived table adopts the appended store so downstream
        # consumers (recommenders, significance caches) share it instead
        # of appending a second time through the handoff.
        new_table._matrix_cache = new_store
        new_table._matrix_delta_base = None

        delta_start = time.perf_counter()
        if self.n_shards > 1:
            # Shard-faithful delta: restrict the re-accumulation to each
            # shard's users and merge in shard order, so per-pair sums
            # match a sharded rebuild bit for bit. The O(ratings)
            # candidate scan runs once, not once per shard.
            shards = shard_user_indices(new_store, self.n_shards)
            candidates = new_store.delta_candidates(delta)
            parts = [
                new_store.delta_pair_accumulation(
                    delta, users=shard, candidates=candidates)
                for shard in shards
            ]
            delta_acc = new_store.merge_accumulations(parts)
        else:
            delta_acc = new_store.delta_pair_accumulation(delta)
        delta_seconds = time.perf_counter() - delta_start

        fold_start = time.perf_counter()
        new_acc = new_store.apply_accumulation_delta(
            self.accumulation, delta_acc, delta
        )
        fold_seconds = time.perf_counter() - fold_start

        refresh_start = time.perf_counter()
        refreshed = self._refresh(new_store, new_acc, delta)
        self.graph.apply_delta(
            refreshed.rows, new_items=delta.new_items, index=refreshed.index,
            patches=refreshed.patches, removed=refreshed.edges_removed)
        self.index = refreshed.index
        refresh_seconds = time.perf_counter() - refresh_start

        self.table = new_table
        self.store = new_store
        self.accumulation = new_acc

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
            n_rebuilt_rows=len(refreshed.rows),
            n_changed_entries=refreshed.n_changed_entries,
        )

    def _refresh(self, new_store: MatrixRatingStore, new_acc: PairAccumulation,
                 delta: StoreDelta) -> RowSplice:
        """What the folded accumulation changes in graph and index: the
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
        # *before* the update (an appended batch can drive an Eq-6
        # numerator to exactly zero, dropping the edge).
        item_index = new_store.item_index
        old_partner_rows = {
            item_index[neighbor]
            for i in delta.touched_items
            for neighbor in self.graph.neighbors(new_store.items[i])}
        rows, index_update, affected = new_store.assemble_row_refresh(
            new_acc,
            delta,
            extra_rows=sorted(old_partner_rows),
            min_common_users=self.min_common_users,
            min_abs_similarity=self.min_abs_similarity,
        )
        new_index = self.index.updated(
            new_store.items, item_index, affected, *index_update,
            item_map=delta.item_map)
        # Every changed edge has both endpoints among the rows.
        before = {(i, j) for i in rows for j in self.graph.neighbors(i) if i < j}
        after = {(i, j) for i, row in rows.items() for j in row if i < j}
        edges_added = tuple(sorted(after - before))
        edges_removed = tuple(sorted(before - after))
        return RowSplice(
            new_index, affected, rows, (), edges_added, edges_removed,
            n_changed_entries=sum(len(row) for row in rows.values()))
