"""Three-dimensional FPGAs (§6: "all of our methods generalize to
three-dimensional FPGAs [1, 2]").

A 3-D symmetrical-array FPGA is a stack of 2-D layers whose switch
blocks are additionally joined by vertical interconnects ("vias")
between adjacent layers.  Because every construction in this library is
graph-based, nothing about the algorithms changes — only the routing
graph does: layer-tagged copies of the 2-D routing-resource graph plus
via edges.

The extension demonstrates the claim end to end: the same router and
the same tree algorithms route placed 3-D circuits, and the
`bench_ablation_three_d` bench measures the channel-width relief extra
layers buy (the motivation of [1, 2]).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Hashable, Iterable, List, Optional, Set, Tuple

from ..errors import ArchitectureError, NetError
from ..graph.core import Graph, edge_key
from ..net import Net
from .architecture import Architecture
from .routing_graph import GroupKey, RoutingResourceGraph

Node = Hashable
#: 3-D pin reference: (layer, block_x, block_y, pin_slot)
PinRef3D = Tuple[int, int, int, int]


@dataclass(frozen=True)
class Architecture3D:
    """A stack of identical 2-D layers with inter-layer vias.

    Parameters
    ----------
    base:
        The per-layer 2-D architecture.
    layers:
        Number of stacked layers (≥ 1).
    vias_per_crossing:
        How many track indices at each switch-block crossing get a
        vertical via to the layer above (0 disables 3-D connectivity —
        useful for ablations).
    via_weight:
        Edge weight of one via (vertical hops are short but pass
        through an inter-layer programmable connection).
    """

    base: Architecture
    layers: int = 2
    vias_per_crossing: int = 1
    via_weight: float = 0.5

    def __post_init__(self) -> None:
        if self.layers < 1:
            raise ArchitectureError("need at least one layer")
        if not 0 <= self.vias_per_crossing <= self.base.channel_width:
            raise ArchitectureError(
                "vias_per_crossing out of range for the channel width"
            )
        if self.via_weight < 0:
            raise ArchitectureError("via weight must be >= 0")

    @property
    def num_blocks(self) -> int:
        return self.layers * self.base.num_blocks


def _tag(layer: int, node: Node) -> Tuple:
    """Layer-tag a 2-D routing-graph node id."""
    return ("L", layer) + tuple(node)  # type: ignore[arg-type]


def pin_node_3d(layer: int, bx: int, by: int, p: int) -> Tuple:
    """Node id of a 3-D logic-block pin."""
    return _tag(layer, ("P", bx, by, p))


class RoutingResourceGraph3D:
    """The routing graph of an :class:`Architecture3D`.

    Wraps per-layer :class:`RoutingResourceGraph` instances into one
    merged :class:`Graph` with via edges, re-exposing the same router
    protocol (``attach_pins`` / ``detach_all_pins`` / ``commit`` /
    ``base_weight`` / ``reset``) so the 2-D router's per-net
    machinery can be reused manually or through
    :func:`route_nets_3d`.
    """

    def __init__(self, arch: Architecture3D):
        self.arch = arch
        self._layer_rrg = RoutingResourceGraph(arch.base)
        self.graph = Graph()
        self._base_weight: Dict[Tuple, float] = {}
        self._pin_edges: Dict[Tuple, List[Tuple[Tuple, float]]] = {}
        self._build()

    def _build(self) -> None:
        arch = self.arch
        base_graph = self._layer_rrg.graph
        # layer-tagged copies of the 2-D graph
        for layer in range(arch.layers):
            for u, v, w in base_graph.edges():
                tu, tv = _tag(layer, u), _tag(layer, v)
                self.graph.add_edge(tu, tv, w)
                self._base_weight[edge_key(tu, tv)] = w
        # record per-layer pin taps for the attach/detach protocol
        for layer in range(arch.layers):
            for pn, taps in self._layer_rrg._pin_edges.items():
                self._pin_edges[_tag(layer, pn)] = [
                    (_tag(layer, end), w) for end, w in taps
                ]
        # vias: join same-position junctions of adjacent layers
        base = arch.base
        for layer in range(arch.layers - 1):
            for x in range(base.cols + 1):
                for y in range(base.rows + 1):
                    for t in range(arch.vias_per_crossing):
                        lower = self._crossing_junction(layer, x, y, t)
                        upper = self._crossing_junction(layer + 1, x, y, t)
                        if lower is None or upper is None:
                            continue
                        self.graph.add_edge(lower, upper, arch.via_weight)
                        self._base_weight[
                            edge_key(lower, upper)
                        ] = arch.via_weight

    def _crossing_junction(
        self, layer: int, x: int, y: int, t: int
    ) -> Optional[Tuple]:
        """Some junction node present at crossing (x, y) on track t."""
        for side in ("E", "N", "W", "S"):
            node = _tag(layer, ("J", x, y, side, t))
            if self.graph.has_node(node):
                return node
        return None

    # ------------------------------------------------------------------
    # the router protocol
    # ------------------------------------------------------------------
    def base_weight(self, u: Node, v: Node) -> float:
        return self._base_weight[edge_key(u, v)]

    def detach_all_pins(self) -> None:
        for pn in self._pin_edges:
            if self.graph.has_node(pn):
                self.graph.remove_node(pn)

    def attach_pins(self, pins: Iterable[Tuple]) -> None:
        for pn in pins:
            if pn not in self._pin_edges:
                raise ArchitectureError(f"{pn!r} is not a 3-D pin")
            self.graph.add_node(pn)
            for end, w in self._pin_edges[pn]:
                if self.graph.has_node(end):
                    self.graph.add_edge(pn, end, w)

    def detach_pins(self, pins: Iterable[Tuple]) -> None:
        for pn in pins:
            if self.graph.has_node(pn):
                self.graph.remove_node(pn)

    def commit(self, tree: Graph) -> None:
        for node in list(tree.nodes):
            if self.graph.has_node(node):
                self.graph.remove_node(node)

    def reset(self) -> None:
        g = Graph()
        for (u, v), w in self._base_weight.items():
            g.add_edge(u, v, w)
        self.graph = g


@dataclass(frozen=True)
class PlacedNet3D:
    """A net over 3-D pin references."""

    name: str
    source: PinRef3D
    sinks: Tuple[PinRef3D, ...]

    def __post_init__(self) -> None:
        if not self.sinks:
            raise NetError(f"net {self.name!r} has no sinks")
        seen = {self.source}
        for s in self.sinks:
            if s in seen:
                raise NetError(f"net {self.name!r} reuses pin {s!r}")
            seen.add(s)

    def to_graph_net(self) -> Net:
        return Net(
            source=pin_node_3d(*self.source),
            sinks=tuple(pin_node_3d(*s) for s in self.sinks),
            name=self.name,
        )


def route_nets_3d(
    arch: Architecture3D,
    nets: List[PlacedNet3D],
    algorithm=None,
) -> Dict[str, float]:
    """Route 3-D nets one at a time; returns per-net base wirelength.

    A compact 3-D counterpart of the 2-D router loop: pins attach only
    for their own net, resources are committed (removed) after each
    net, and any tree algorithm from the library may be plugged in
    (default KMB).  Raises :class:`~repro.errors.DisconnectedError`
    through the algorithm if a net is infeasible.
    """
    from ..steiner.kmb import kmb

    algorithm = algorithm or kmb
    rrg = RoutingResourceGraph3D(arch)
    rrg.detach_all_pins()
    wirelength: Dict[str, float] = {}
    for placed in nets:
        net = placed.to_graph_net()
        rrg.attach_pins(net.terminals)
        tree = algorithm(rrg.graph, net)
        wirelength[placed.name] = sum(
            rrg.base_weight(u, v) for u, v, _ in tree.tree.edges()
        )
        rrg.commit(tree.tree)
    return wirelength
