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
the DFS cap: a child is walked iff its ``pos`` is below the cap, which
is a per-row prefix found by one ``searchsorted`` before any child is
materialised.

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

from repro.core.layers import LAYER_CHAIN, Layer, LayerPartition
from repro.core.metapaths import LayerKey, PrunedAdjacency

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.extender import ExtenderConfig, XSimMap
    from repro.core.xsim import SignificanceCache

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
    paths: "_np.ndarray"  # per item: emissions below it, saturated at cap


class _Frontier(NamedTuple):
    """Partial paths standing on one layer, DFS-ordered per origin."""

    origin: "_np.ndarray"  # index into the sorted source items
    node: "_np.ndarray"
    weighted: "_np.ndarray"
    sig: "_np.ndarray"
    cert: "_np.ndarray"
    pos: "_np.ndarray"


def _forward_key(domain: str, layer: Layer, source_domain: str,
                 target_domain: str) -> LayerKey | None:
    """The adjacent layer a walk enters when it leaves (*domain*, *layer*)."""
    depth = LAYER_CHAIN.index(layer)
    if domain == source_domain:
        if layer is Layer.BB:
            return (target_domain, Layer.BB)
        return (source_domain, LAYER_CHAIN[depth + 1])
    return (target_domain, LAYER_CHAIN[depth - 1]) if depth else None


def _build_csr(ids: dict[str, int], partition: LayerPartition,
               adjacency: PrunedAdjacency, source_domain: str,
               significance: "SignificanceCache", config: "ExtenderConfig",
               cap: int) -> _ForwardCsr:
    """Intern the edges a walk can take (*ids*: item → sorted position)
    and precompute every edge's preorder offset within its row."""
    target_domain = partition.other_domain(source_domain)
    indptr = [0]
    child: list[int] = []
    sim: list[float] = []
    sig: list[int] = []
    norm: list[float] = []
    is_target = _np.zeros(len(ids), dtype=bool)
    for item, index in ids.items():
        domain = partition.domain_of(item)
        is_target[index] = domain == target_domain
        key = _forward_key(domain, partition.layer_of(item),
                           source_domain, target_domain)
        for neighbor, similarity in adjacency.get(item, {}).get(key, ()):
            child.append(ids[neighbor])
            sim.append(similarity)
            if config.weight_by_significance:
                sig.append(significance.significance(item, neighbor))
            if config.weight_by_certainty:
                norm.append(significance.normalized(item, neighbor))
        indptr.append(len(child))
    indptr_a = _np.asarray(indptr, dtype=_np.int64)
    child_a = _np.asarray(child, dtype=_np.int64)
    sim_a = _np.asarray(sim, dtype=_np.float64)
    n_edges = len(child)
    sig_a = (_np.asarray(sig, dtype=_np.int64) if config.weight_by_significance
             else _np.ones(n_edges, dtype=_np.int64))
    norm_a = (_np.asarray(norm, dtype=_np.float64) if config.weight_by_certainty
              else _np.ones(n_edges, dtype=_np.float64))

    # Emissions below each item, bottom-up: pass i settles the items i
    # hops above the last target layer, and the walk has five hops. The
    # final pass therefore sums settled children, which is what leaves
    # exact per-edge prefixes in `running`. Saturating every term at
    # the cap keeps min(·, cap) exact (all terms are non-negative).
    emits = is_target[child_a].astype(_np.int64)
    row_start, row_end = indptr_a[:-1], indptr_a[1:]
    paths = _np.zeros(len(ids), dtype=_np.int64)
    running = _np.zeros(n_edges + 1, dtype=_np.int64)
    for _ in range(2 * len(LAYER_CHAIN) - 1):
        _np.cumsum(_np.minimum(emits + paths[child_a], cap), out=running[1:])
        paths = _np.minimum(running[row_end] - running[row_start], cap)
    row_of = _np.repeat(_np.arange(len(ids), dtype=_np.int64), row_end - row_start)
    prefix = _np.minimum(running[:-1] - running[row_start][row_of], cap)
    return _ForwardCsr(
        indptr=indptr_a, child=child_a, weighted=sim_a * sig_a, sig=sig_a,
        norm=norm_a, prefix=prefix, cut_key=row_of * (cap + 1) + prefix,
        paths=paths)


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
    would walk (``pos < cap`` — a prefix of each row)."""
    first = frontier.pos + parent_emits
    start = csr.indptr[frontier.node]
    kept = _np.searchsorted(
        csr.cut_key, frontier.node * (cap + 1) + (cap - first)) - start
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
        source_items: list[str], partition: LayerPartition,
        adjacency: PrunedAdjacency, source_domain: str,
        significance: "SignificanceCache", config: "ExtenderConfig",
) -> tuple["XSimMap", int, dict[str, float]]:
    """The X-Sim map of *source_items* (sorted), equal to folding
    :func:`~repro.core.extender.extend_item_reference` per item.

    Returns ``(xsim_map, paths enumerated, seconds per stage)`` with
    stages ``prune`` (CSR interning + per-edge significance), ``expand``
    and ``aggregate``.
    """
    clock = time.perf_counter
    started = clock()
    cap = config.max_paths_per_item or _UNCAPPED
    items = sorted(adjacency)
    ids = {item: index for index, item in enumerate(items)}
    csr = _build_csr(ids, partition, adjacency, source_domain,
                     significance, config, cap)
    names = _np.asarray(items, dtype=object)
    source_ids = _np.asarray([ids[item] for item in source_items], dtype=_np.int64)
    start_layer = _np.asarray(
        [LAYER_CHAIN.index(partition.layer_of(item)) for item in source_items],
        dtype=_np.int64)
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
