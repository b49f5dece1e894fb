"""Level-synchronous meta-path kernel for the Extender.

The per-item DFS of :func:`~repro.core.metapaths.enumerate_meta_paths`
unfolds a *layered* graph: every item sits in exactly one layer and a
walk only ever leaves it one way — source-domain items climb
(NN → NB → BB → BB′), target-domain items descend (BB′ → NB′ → NN′).
The pruned adjacency therefore interns into one forward CSR (row ``x`` =
the edges a walk takes when leaving ``x``; source rows are the UP edges,
target rows the DOWN edges), each edge carrying its baseline similarity,
``S`` and ``Ŝ`` resolved once, and all source items of a block advance
one layer per NumPy step instead of one Python frame per path hop.

A frontier row is one partial path ``(origin, node, Σ S·s, Σ S, Π Ŝ,
pos)`` where *pos* is the number of meta-paths the DFS has emitted
before it reaches that row — its preorder position among the
target-side vertices. The subtree under an item depends only on the
item, so the emission count per item is computed bottom-up once, its
in-row exclusive prefix sums give ``pos(child) = pos(parent) +
emits(parent) + prefix(edge)``, and ``max_paths_per_item`` is *exactly*
the DFS cap: a child is walked iff its ``pos`` is below the cap, i.e.
iff ``prefix(edge) < cap − first`` with ``first = pos(parent) +
emits(parent)``. Prefixes never decrease along a row, which gives the
**whole-row invariant** ``_advance`` rests on::

    kept(row) == len(row)   iff   prefix(last edge of row) < cap − first
    kept(row) == #{edge in row : prefix(edge) < cap − first}   otherwise

so one per-row array (``last_prefix``, −1 for an empty row) decides
almost every row by a gather and a compare, and only the rows the cap
actually cuts are binary-searched (423 of the 475,878 rows read on the
bench trace at the default cap of 5000).

Only **live** edges (Ŝ ≠ 0; all of them when certainty is ablated) are
walked: a path through an Ŝ = 0 edge has certainty 0 and adds nothing
to Definition 6. Emission counts and prefixes are taken over every
pruned edge first, so a dead subtree still takes its cap slots and the
invariant holds over the live rows. On the bench trace that is 475,519
frontier rows instead of 1,098,699; ``paths[origin]`` still counts the
paths the DFS enumerates.

Rows of one origin stay in DFS order within a level (``repeat`` keeps
parent order, edges keep rank order) and every path into one terminal
item ends on the same level, so folding Definition 6 with
``np.bincount`` — which adds sequentially — over dense ``(origin,
terminal)`` cells, level by level, reproduces the reference's sums bit
for bit with no sort; a target's place in its row is its smallest
surviving ``pos``, the DFS's first reach. Zero-significance paths
are dropped there, as the dead paths the walk skips would have been.
(The running ``Σ S·s`` matches the left-to-right ``sum`` of
:func:`~repro.core.xsim.path_similarity` on the Python this repo pins;
3.12's compensated float ``sum`` would move the reference, not this.)
"""

from __future__ import annotations

import time
from typing import TYPE_CHECKING, NamedTuple

import numpy as _np

from repro.core.layers import LAYER_CHAIN, LayerPartition

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.extender import ExtenderConfig, XSimMap
    from repro.core.xsim import SignificanceCache
    from repro.data.ratings import RatingTable
    from repro.similarity.graph import ItemGraph

#: Paths (emitted frontier rows) per block of consecutive source items.
#: A row is six 8-byte columns, so ~50k rows keep the frontier and its
#: gather temporaries at a few MB whatever the catalogue size; one
#: unblocked pass over the bench trace held +33 MB of peak RSS.
_BLOCK_PATHS = 50_000

#: ``(origin, item)`` cells per block: the fold holds three dense arrays
#: over them (8 MB each). Bounds large catalogues; the bench's never
#: reach it.
_BLOCK_CELLS = 1 << 20

#: Stand-in cap for ``max_paths_per_item=None``: one origin's frontier
#: of this many rows would not fit in memory, so no feasible run
#: reaches it, and it keeps ``row · (cap + 1)`` inside int64.
_UNCAPPED = 2**31


class _ForwardCsr(NamedTuple):
    """The pruned adjacency's live edges as flat arrays over sorted items."""

    indptr: "_np.ndarray"  # row x owns edges indptr[x]:indptr[x + 1]
    child: "_np.ndarray"
    weighted: "_np.ndarray"  # S · s per edge (s alone when S is ablated)
    sig: "_np.ndarray"  # S per edge (1 when ablated: Σ S = hop count)
    norm: "_np.ndarray"  # Ŝ per edge (1.0 when certainty is ablated)
    prefix: "_np.ndarray"  # emissions the DFS makes in this row before the edge
    cut_key: "_np.ndarray"  # row · (cap + 1) + prefix: globally ascending
    last_prefix: "_np.ndarray"  # per item: prefix of its last edge (−1: no edge)
    paths: "_np.ndarray"  # per item: emissions below it, saturated at cap


class _Frontier(NamedTuple):
    """Partial paths standing on one layer, DFS-ordered per origin."""

    origin: "_np.ndarray"  # index into the sorted source items
    node: "_np.ndarray"
    weighted: "_np.ndarray"
    sig: "_np.ndarray"
    cert: "_np.ndarray"
    pos: "_np.ndarray"


def _build_csr(ranked, code: "_np.ndarray", table: "RatingTable",
               significance: "SignificanceCache | None",
               config: "ExtenderConfig", cap: int) -> _ForwardCsr:
    """Intern the live edges a walk can take and precompute every edge's
    preorder offset within its row.

    *ranked* is :meth:`~repro.similarity.graph.ItemGraph.ranked_rows`
    and *code* numbers the six layers along the walk (source NN, NB, BB
    = 0, 1, 2; target BB, NB, NN = 3, 4, 5), so an edge is a forward
    hop iff it raises the code by one. Rows are already in ``top_k``
    order: a row's top-k into its forward layer is its first k forward
    entries.
    """
    items, ptr, neighbor, weight = ranked
    n_items = len(items)
    owner = _np.repeat(_np.arange(n_items, dtype=_np.int64), _np.diff(ptr))
    forward = code[neighbor] == code[owner] + 1
    before = _np.zeros(len(forward) + 1, dtype=_np.int64)
    _np.cumsum(forward, out=before[1:])
    keep = forward & (before[:-1] - before[ptr[owner]] < config.k)
    row, child, sim = owner[keep], neighbor[keep], weight[keep]
    indptr = _np.zeros(n_items + 1, dtype=_np.int64)
    _np.cumsum(_np.bincount(row, minlength=n_items), out=indptr[1:])
    n_edges = len(child)
    sig = _np.ones(n_edges, dtype=_np.int64)
    norm = _np.ones(n_edges, dtype=_np.float64)
    if significance is not None:
        # A caller's own S / Ŝ source is asked edge by edge.
        names = _np.asarray(items, dtype=object)
        ends = list(zip(names[row].tolist(), names[child].tolist()))
        if config.weight_by_significance:
            sig = _np.asarray(
                [significance.significance(a, b) for a, b in ends], dtype=_np.int64)
        if config.weight_by_certainty:
            norm = _np.asarray(
                [significance.normalized(a, b) for a, b in ends], dtype=_np.float64)
    elif config.weight_by_significance or config.weight_by_certainty:
        store = table.matrix()
        ids = _np.asarray([store.item_index.get(item, -1) for item in items],
                          dtype=_np.int64)
        raw, normalized = store.edge_significance(ids[row], ids[child])
        if config.weight_by_significance:
            sig = raw
        if config.weight_by_certainty:
            norm = normalized

    # Emissions below each item, bottom-up: pass i settles the items i
    # hops above the last target layer, and the walk has five hops. The
    # final pass therefore sums settled children, which is what leaves
    # exact per-edge prefixes in `running`. Saturating every term at
    # the cap keeps min(·, cap) exact (all terms are non-negative).
    emits = (code[child] >= len(LAYER_CHAIN)).astype(_np.int64)
    row_start, row_end = indptr[:-1], indptr[1:]
    paths = _np.zeros(n_items, dtype=_np.int64)
    running = _np.zeros(n_edges + 1, dtype=_np.int64)
    for _ in range(2 * len(LAYER_CHAIN) - 1):
        _np.cumsum(_np.minimum(emits + paths[child], cap), out=running[1:])
        paths = _np.minimum(running[row_end] - running[row_start], cap)
    prefix = _np.minimum(running[:-1] - running[row_start][row], cap)
    live = norm != 0.0  # see the module docstring: only these are walked
    row, child, sim, sig, norm, prefix = (
        column[live] for column in (row, child, sim, sig, norm, prefix))
    _np.cumsum(_np.bincount(row, minlength=n_items), out=indptr[1:])
    last_prefix = _np.full(n_items, -1, dtype=_np.int64)
    has_edge = indptr[1:] > indptr[:-1]
    last_prefix[has_edge] = prefix[indptr[1:][has_edge] - 1]
    return _ForwardCsr(
        indptr=indptr, child=child, weighted=sim * sig, sig=sig, norm=norm,
        prefix=prefix, cut_key=row * (cap + 1) + prefix,
        last_prefix=last_prefix, paths=paths)


def _seed(origins: "_np.ndarray", nodes: "_np.ndarray") -> _Frontier:
    n = len(origins)
    return _Frontier(
        origin=origins, node=nodes,
        weighted=_np.zeros(n, dtype=_np.float64),
        sig=_np.zeros(n, dtype=_np.int64),
        cert=_np.ones(n, dtype=_np.float64),
        pos=_np.zeros(n, dtype=_np.int64))


def _advance(csr: _ForwardCsr, frontier: _Frontier, parent_emits: int,
             cap: int) -> _Frontier:
    """Move every row one layer on, keeping only children the capped DFS
    would walk (``pos < cap`` — a prefix of each row, and nearly always
    the whole row: see the module docstring's invariant)."""
    if csr.last_prefix[frontier.node].max(initial=-1) < 0:  # no live edge
        return _seed(frontier.origin[:0], frontier.node[:0])
    first = frontier.pos + parent_emits
    room = cap - first
    start = csr.indptr[frontier.node]
    kept = csr.indptr[frontier.node + 1] - start
    cut = _np.flatnonzero(csr.last_prefix[frontier.node] >= room)
    if len(cut):
        kept[cut] = _np.searchsorted(
            csr.cut_key, frontier.node[cut] * (cap + 1) + room[cut]) - start[cut]
    parent = _np.repeat(_np.arange(len(kept)), kept)
    ends = _np.cumsum(kept)
    edge = (_np.arange(len(parent)) - _np.repeat(ends - kept, kept) + start[parent])
    return _Frontier(
        origin=frontier.origin[parent],
        node=csr.child[edge],
        weighted=frontier.weighted[parent] + csr.weighted[edge],
        sig=frontier.sig[parent] + csr.sig[edge],
        cert=frontier.cert[parent] * csr.norm[edge],
        pos=first[parent] + csr.prefix[edge])


def _expand(csr: _ForwardCsr, starts: list["_np.ndarray"],
            source_ids: "_np.ndarray", cap: int) -> list[_Frontier]:
    """Every live capped meta-path of one block, as rows on their terminals:
    one frontier per target layer (BB′, NB′, NN′).

    *starts* holds the block's origin indices per start layer, in
    :data:`LAYER_CHAIN` order; an origin joins the climb at its layer.
    """
    empty = _np.zeros(0, dtype=_np.int64)
    frontier = _seed(empty, empty)
    for origins in starts:
        frontier = _Frontier(*map(_np.concatenate, zip(
            frontier, _seed(origins, source_ids[origins]))))
        frontier = _advance(csr, frontier, 0, cap)
    levels = [frontier]  # standing on the target BB layer
    for _ in LAYER_CHAIN[1:]:
        frontier = _advance(csr, frontier, 1, cap)
        levels.append(frontier)
    return levels


def _fold(levels: list[_Frontier], low: int, n_origins: int, n_items: int,
          cap: int) -> tuple["_np.ndarray", "_np.ndarray", "_np.ndarray"]:
    """Definition 6 over one block's paths: ``(origin, target id, X-Sim)``
    per reached cell ``(origin − low) · n_items + node``, in the
    reference's row order — by origin, then by first reach."""
    paths = []
    for level in levels:  # zero-significance / zero-certainty paths drop
        keep = (level.sig != 0) & (level.cert > 0.0)
        paths.append(level if keep.all()
                     else _Frontier(*(column[keep] for column in level)))
    # A cell's paths all stand on one level, in DFS order, so these
    # columns list each cell's addends in the reference's order.
    cell = _np.concatenate([(p.origin - low) * n_items + p.node for p in paths])
    cert = _np.concatenate([p.cert for p in paths])
    similarity = _np.concatenate([p.weighted / p.sig for p in paths])
    n_cells = n_origins * n_items
    total = _np.bincount(cell, weights=cert, minlength=n_cells)
    weighted = _np.bincount(cell, weights=cert * similarity, minlength=n_cells)
    first = _np.full(n_cells, cap, dtype=_np.int64)  # every kept pos < cap
    _np.minimum.at(first, cell, _np.concatenate([p.pos for p in paths]))
    hit = _np.flatnonzero(first < cap)
    origin = hit // n_items
    # Positions are unique within an origin, so this key is unique.
    order = _np.argsort(origin * (cap + 1) + first[hit])
    hit = hit[order]
    return origin[order] + low, hit % n_items, weighted[hit] / total[hit]


def frontier_xsim_map(
        graph: "ItemGraph", partition: LayerPartition, table: "RatingTable",
        source_domain: str, significance: "SignificanceCache | None",
        config: "ExtenderConfig",
) -> tuple["XSimMap", int, dict[str, float]]:
    """The X-Sim map of *source_domain*'s items, equal to folding
    :func:`~repro.core.extender.extend_item_reference` per sorted item.

    ``S`` / ``Ŝ`` per pruned edge come from *significance* when given,
    else from one bulk pass over *table*'s store. Returns ``(xsim_map,
    paths enumerated, seconds per stage)`` with stages ``prune`` (rank,
    top-k, CSR interning + per-edge significance), ``expand`` and
    ``aggregate``.
    """
    from repro.core.extender import XSimMap

    clock = time.perf_counter
    started = clock()
    cap = config.max_paths_per_item or _UNCAPPED
    ranked = graph.ranked_rows()
    items = ranked[0]
    depth = _np.asarray(
        [LAYER_CHAIN.index(partition.layer_of(item)) for item in items],
        dtype=_np.int64)
    in_source = _np.asarray(
        [partition.domain_of(item) == source_domain for item in items], dtype=bool)
    code = _np.where(in_source, depth, 2 * len(LAYER_CHAIN) - 1 - depth)
    csr = _build_csr(ranked, code, table, significance, config, cap)
    source_ids = _np.flatnonzero(in_source)
    start_layer = depth[source_ids]
    # Consecutive origins share a block while the paths before them
    # stay inside one _BLOCK_PATHS bucket and their origin numbers in
    # one run of `width`, which keeps a block's cells within _BLOCK_CELLS.
    per_origin = csr.paths[source_ids]
    bucket = (_np.cumsum(per_origin) - per_origin) // _BLOCK_PATHS
    width = max(1, _BLOCK_CELLS // max(1, len(items)))
    bucket = bucket * len(source_ids) + _np.arange(len(source_ids)) // width
    edges = _np.flatnonzero(_np.diff(bucket, prepend=-1, append=-1)).tolist()
    stages = {"prune": clock() - started, "expand": 0.0, "aggregate": 0.0}

    empty = _np.zeros(0, dtype=_np.int64)
    folded = [(empty, empty, _np.zeros(0, dtype=_np.float64))]
    for low, high in zip(edges, edges[1:]):
        started = clock()
        block = _np.arange(low, high, dtype=_np.int64)
        layers = start_layer[low:high]
        levels = _expand(
            csr, [block[layers == depth] for depth in range(len(LAYER_CHAIN))],
            source_ids, cap)
        expanded = clock()
        folded.append(_fold(levels, low, high - low, len(items), cap))
        stages["expand"] += expanded - started
        stages["aggregate"] += clock() - expanded

    started = clock()
    origin, target_ids, xsim = (_np.concatenate(column) for column in zip(*folded))
    counts = _np.bincount(origin, minlength=len(source_ids))
    rows = _np.flatnonzero(counts)
    ptr = _np.zeros(len(rows) + 1, dtype=_np.int64)
    _np.cumsum(counts[rows], out=ptr[1:])
    sources = [items[item] for item in source_ids[rows].tolist()]
    stages["aggregate"] += clock() - started
    n_paths = int(per_origin.sum())  # the DFS's count, dead paths too
    return XSimMap(sources, items, ptr, target_ids, xsim), n_paths, stages
