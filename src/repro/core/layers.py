"""Bridge items and the layer partition of §3.2 (Figure 2).

X-Map's scalability trick: instead of considering all O(m²) item pairs,
partition each domain's items into three layers around the *bridge
items* — the items whose baseline-similarity edges cross into the other
domain (they exist because some straddler rated on both sides):

* **BB** — the bridge items themselves (connected to the other domain's
  bridge items),
* **NB** — non-bridge items with an edge to a bridge item of their own
  domain,
* **NN** — non-bridge items with no edge to any bridge item.

Meta-paths may then only cross between adjacent layers
(NN—NB—BB ⇌ BB—NB—NN), which bounds the search to O(km) with top-k
pruning per layer.
"""

from __future__ import annotations

import enum
from typing import Mapping

import numpy as _np

from repro.errors import GraphError
from repro.similarity.graph import ItemGraph


class Layer(enum.Enum):
    """The three per-domain layers of §3.2."""

    BB = "BB"
    NB = "NB"
    NN = "NN"

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.value


#: The within-domain layer chain: a meta-path climbs NN → NB → BB before
#: crossing to the other domain's BB layer, and descends symmetrically.
LAYER_CHAIN = (Layer.NN, Layer.NB, Layer.BB)


class LayerPartition:
    """The six-layer partition of a two-domain similarity graph.

    Build with :meth:`from_graph`; query with :meth:`layer_of` and
    :meth:`members`.
    """

    def __init__(self, assignment: Mapping[str, tuple[str, Layer]],
                 domains: tuple[str, str]) -> None:
        self._assignment = dict(assignment)
        self.domains = domains
        members: dict[tuple[str, Layer], set[str]] = {
            (domain, layer): set()
            for domain in domains for layer in Layer}
        for item, (domain, layer) in self._assignment.items():
            members[(domain, layer)].add(item)
        self._members = {key: frozenset(value) for key, value in members.items()}

    @classmethod
    def from_graph(cls, graph: ItemGraph,
                   domain_of: Mapping[str, str]) -> "LayerPartition":
        """Partition the items of *graph* using *domain_of* labels.

        Args:
            graph: the baseline similarity graph ``G_ac`` (§3.1). Every
                vertex must appear in *domain_of*.
            domain_of: item → domain name; exactly two domains must occur.
        """
        index = graph.index
        items = index.items
        missing = [item for item in items if item not in domain_of]
        if missing:
            raise GraphError(f"items missing a domain label, e.g. {missing[:3]}")
        labels = [domain_of[item] for item in items]
        domains, code = _np.unique(labels, return_inverse=True)
        if len(domains) != 2:
            raise GraphError(
                f"layer partition requires exactly 2 domains, got {domains.tolist()}")

        # One mask per rule over the index entries (owner → neighbor):
        # an item is a bridge when one of its edges crosses domains, NB
        # when one of its edges reaches a bridge (a non-bridge's edges
        # all stay in its domain).
        owner, neighbor = index.owners(), index.neighbor_ids
        bridge = _np.zeros(len(items), dtype=bool)
        bridge[owner[code[owner] != code[neighbor]]] = True
        near_bridge = _np.zeros(len(items), dtype=bool)
        near_bridge[owner[bridge[neighbor]]] = True
        layer = _np.where(bridge, 0, _np.where(near_bridge, 1, 2))
        chain = (Layer.BB, Layer.NB, Layer.NN)
        assignment = {item: (label, chain[rank])
                      for item, label, rank in zip(items, labels, layer.tolist())}
        first, second = domains.tolist()
        return cls(assignment, (first, second))

    # ------------------------------------------------------------------

    def layer_of(self, item: str) -> Layer:
        """Layer of *item*; raises GraphError for unknown items."""
        try:
            return self._assignment[item][1]
        except KeyError:
            raise GraphError(f"item {item!r} is not in the partition") from None

    def domain_of(self, item: str) -> str:
        """Domain of *item* as recorded in the partition."""
        try:
            return self._assignment[item][0]
        except KeyError:
            raise GraphError(f"item {item!r} is not in the partition") from None

    def members(self, domain: str, layer: Layer) -> frozenset[str]:
        """All items of *domain* assigned to *layer*."""
        try:
            return self._members[(domain, layer)]
        except KeyError:
            raise GraphError(
                f"unknown domain {domain!r}; have {self.domains}") from None

    def other_domain(self, domain: str) -> str:
        """The domain that is not *domain*."""
        first, second = self.domains
        if domain == first:
            return second
        if domain == second:
            return first
        raise GraphError(f"unknown domain {domain!r}; have {self.domains}")

    def __len__(self) -> int:
        return len(self._assignment)

    def __contains__(self, item: str) -> bool:
        return item in self._assignment
