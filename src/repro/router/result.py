"""Routing results: per-net routes and whole-circuit summaries.

Metrics are reported in *base* (uncongested) weights so wirelength and
pathlength comparisons between algorithms are not distorted by the
congestion multipliers in effect when each net happened to be routed
(this matches Table 5's equal-channel-width comparison methodology).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Hashable, List, Optional, Sequence, Tuple

from ..errors import RoutingError
from ..graph.core import Graph
from ..graph.validation import tree_paths_from

Node = Hashable


@dataclass
class NetRoute:
    """The committed route of one net.

    ``wirelength`` and ``pathlengths`` are measured in base weights.
    ``edges`` are the routing-resource edges the net consumed.
    """

    name: str
    algorithm: str
    source: Node
    sinks: Tuple[Node, ...]
    edges: List[Tuple[Node, Node, float]]
    wirelength: float
    pathlengths: Dict[Node, float]
    optimal_pathlengths: Dict[Node, float] = field(default_factory=dict)

    @property
    def max_pathlength(self) -> float:
        return max(self.pathlengths.values())

    @property
    def num_pins(self) -> int:
        return 1 + len(self.sinks)

    def tree(self) -> Graph:
        """Reconstruct the route as a tree subgraph (base weights)."""
        g = Graph()
        g.add_node(self.source)
        for u, v, w in self.edges:
            g.add_edge(u, v, w)
        return g


def measure_route(
    name: str,
    algorithm: str,
    source: Node,
    sinks: Sequence[Node],
    tree: Graph,
    base_weight,
    optimal_pathlengths: Optional[Dict[Node, float]] = None,
) -> NetRoute:
    """Build a :class:`NetRoute` from a routed tree, in base weights.

    ``base_weight(u, v)`` maps a routing-graph edge to its uncongested
    weight.
    """
    base_tree = Graph()
    base_tree.add_node(source)
    edges = []
    for u, v, _ in tree.edges():
        w = base_weight(u, v)
        base_tree.add_edge(u, v, w)
        edges.append((u, v, w))
    dist, _ = tree_paths_from(base_tree, source)
    pathlengths = {}
    for s in sinks:
        if s not in dist:
            raise RoutingError(f"net {name!r}: sink {s!r} not in its tree")
        pathlengths[s] = dist[s]
    return NetRoute(
        name=name,
        algorithm=algorithm,
        source=source,
        sinks=tuple(sinks),
        edges=edges,
        wirelength=sum(w for _, _, w in edges),
        pathlengths=pathlengths,
        optimal_pathlengths=dict(optimal_pathlengths or {}),
    )


@dataclass
class RoutingResult:
    """Outcome of routing one circuit at one channel width."""

    circuit: str
    channel_width: int
    algorithm: str
    passes_used: int
    routes: List[NetRoute]
    failed_nets: Tuple[str, ...] = ()

    @property
    def complete(self) -> bool:
        return not self.failed_nets

    @property
    def total_wirelength(self) -> float:
        return sum(r.wirelength for r in self.routes)

    @property
    def total_max_pathlength(self) -> float:
        """Sum over nets of max source–sink pathlength (Table 5 metric)."""
        return sum(r.max_pathlength for r in self.routes)

    @property
    def num_routed(self) -> int:
        return len(self.routes)

    def route_by_name(self, name: str) -> NetRoute:
        for r in self.routes:
            if r.name == name:
                return r
        raise KeyError(f"net {name!r} not in result")

    def mean_pathlength_stretch(self) -> float:
        """Mean over sinks of (tree pathlength / optimal pathlength).

        Requires optimal pathlengths to have been recorded; sinks with
        zero optimal distance are skipped.
        """
        num = 0.0
        cnt = 0
        for r in self.routes:
            for sink, opt in r.optimal_pathlengths.items():
                if opt > 0:
                    num += r.pathlengths[sink] / opt
                    cnt += 1
        return num / cnt if cnt else 1.0

    def summary(self) -> Dict[str, object]:
        return {
            "circuit": self.circuit,
            "W": self.channel_width,
            "algorithm": self.algorithm,
            "passes": self.passes_used,
            "routed": self.num_routed,
            "failed": len(self.failed_nets),
            "wirelength": round(self.total_wirelength, 2),
            "max_path_total": round(self.total_max_pathlength, 2),
        }
