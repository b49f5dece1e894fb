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
actually cuts are binary-searched (562 of 1,099,058 on the bench trace
at the default cap of 5000).

Rows of one origin stay in DFS order within a level (``repeat`` keeps
parent order, edges keep rank order) and every path into one terminal
item ends on the same level, so folding Definition 6 with
``np.bincount`` — which adds sequentially — reproduces the reference's
floating-point sums bit for bit. Zero-significance and zero-certainty
paths are dropped after they counted toward the cap, as the DFS does.
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

#: Stand-in cap for ``max_paths_per_item=None``: one origin's frontier
#: of this many rows would not fit in memory, so no feasible run
#: reaches it, and it keeps ``row · (cap + 1)`` inside int64.
_UNCAPPED = 2**31


class _ForwardCsr(NamedTuple):
    """The pruned adjacency as flat arrays over sorted item ids."""

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
    """Intern the edges a walk can take and precompute every edge's
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
    last_prefix = _np.full(n_items, -1, dtype=_np.int64)
    has_edge = row_end > row_start
    last_prefix[has_edge] = prefix[row_end[has_edge] - 1]
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


def _merge(*frontiers: _Frontier) -> _Frontier:
    return _Frontier(*(_np.concatenate(columns) for columns in zip(*frontiers)))


def _advance(csr: _ForwardCsr, frontier: _Frontier, parent_emits: int,
             cap: int) -> _Frontier:
    """Move every row one layer on, keeping only children the capped DFS
    would walk (``pos < cap`` — a prefix of each row, and nearly always
    the whole row: see the module docstring's invariant)."""
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
            source_ids: "_np.ndarray", cap: int) -> _Frontier:
    """Every capped meta-path of one block, as rows on their terminals.

    *starts* holds the block's origin indices per start layer, in
    :data:`LAYER_CHAIN` order; an origin joins the climb at its layer.
    """
    empty = _np.zeros(0, dtype=_np.int64)
    frontier = _seed(empty, empty)
    for origins in starts:
        frontier = _merge(frontier, _seed(origins, source_ids[origins]))
        frontier = _advance(csr, frontier, 0, cap)
    levels = [frontier]  # standing on the target BB layer
    for _ in LAYER_CHAIN[1:]:
        frontier = _advance(csr, frontier, 1, cap)
        levels.append(frontier)
    return _merge(*levels)


def _fold(paths: _Frontier, n_items: int, names: "_np.ndarray",
          source_items: list[str], xsim_map: "XSimMap") -> None:
    """Definition 6 over one block's paths, into *xsim_map*.

    Targets are inserted in the order the DFS first reaches them with a
    surviving path, so the map iterates exactly like the reference's.
    """
    keep = (paths.sig != 0) & (paths.cert > 0.0)
    if not keep.any():
        return
    paths = _Frontier(*(column[keep] for column in paths))
    contribution = paths.cert * (paths.weighted / paths.sig)
    key = paths.origin * n_items + paths.node
    # Stable: rows of one (origin, terminal) group keep their DFS order,
    # which bincount then adds in.
    order = _np.argsort(key, kind="stable")
    key = key[order]
    head = _np.ones(len(key), dtype=bool)
    head[1:] = key[1:] != key[:-1]
    group = _np.cumsum(head) - 1
    total = _np.bincount(group, weights=paths.cert[order])
    weighted = _np.bincount(group, weights=contribution[order])
    first = order[head]
    rank = _np.lexsort((paths.pos[first], paths.origin[first]))
    origin = paths.origin[first][rank]
    targets = names[paths.node[first][rank]].tolist()
    values = (weighted[rank] / total[rank]).tolist()
    bounds = _np.flatnonzero(_np.diff(origin, prepend=-1, append=-1)).tolist()
    for low, high in zip(bounds, bounds[1:]):
        xsim_map[source_items[origin[low]]] = dict(
            zip(targets[low:high], values[low:high]))


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
    names = _np.asarray(items, dtype=object)
    source_ids = _np.flatnonzero(in_source)
    source_items = names[source_ids].tolist()
    start_layer = depth[source_ids]
    # Consecutive origins share a block while the paths before them
    # stay inside one _BLOCK_PATHS bucket.
    per_origin = csr.paths[source_ids]
    bucket = (_np.cumsum(per_origin) - per_origin) // _BLOCK_PATHS
    edges = _np.flatnonzero(_np.diff(bucket, prepend=-1, append=-1)).tolist()
    stages = {"prune": clock() - started, "expand": 0.0, "aggregate": 0.0}

    xsim_map: "XSimMap" = {}
    n_paths = 0
    for low, high in zip(edges, edges[1:]):
        started = clock()
        block = _np.arange(low, high, dtype=_np.int64)
        layers = start_layer[low:high]
        paths = _expand(
            csr, [block[layers == depth] for depth in range(len(LAYER_CHAIN))],
            source_ids, cap)
        n_paths += len(paths.origin)
        expanded = clock()
        _fold(paths, len(items), names, source_items, xsim_map)
        stages["expand"] += expanded - started
        stages["aggregate"] += clock() - expanded
    return xsim_map, n_paths, stages
