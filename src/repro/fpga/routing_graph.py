"""The routing-resource graph of a symmetrical-array FPGA (Figure 2).

The graph mirrors the complete FPGA architecture: "paths in this graph
correspond to feasible routes on the FPGA, and conversely" (§2).

Node kinds (all tuples, first element is the kind tag):

* ``("J", x, y, side, t)`` — the *junction*: the wire end of track ``t``
  on side ``side`` of the switch block at channel crossing ``(x, y)``.
  Crossings form a ``(cols+1) × (rows+1)`` grid.
* ``("P", bx, by, p)`` — pin slot ``p`` of the logic block at ``(bx, by)``.

Edge kinds:

* **wire-segment edges** (weight ``segment_weight``): the horizontal
  segment ``(x..x+1, y, t)`` joins ``("J", x, y, "E", t)`` to
  ``("J", x+1, y, "W", t)``; vertical segments analogously.
* **switch edges** (weight ``switch_weight``): programmable connections
  inside a switch block, joining wire ends on different sides per the
  architecture's Fs pattern.
* **pin edges** (weight ``pin_weight``): connection-block switches from
  a pin to both junction ends of each of its Fc reachable track
  segments in the adjacent channel.

Resource commitment.  The paper removes the *edges* a routed net used so
"subsequent nets remain electrically disjoint".  In this node-expanded
model the equivalent (and strictly safer) operation is removing every
junction node the net's tree visited, which deletes the used segment,
switch and pin edges with it and additionally prevents two nets from
sharing a wire end through different switches; :meth:`RoutingResourceGraph.commit`
implements that.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Hashable, Iterable, List, Optional, Set, Tuple

from ..errors import ArchitectureError, GraphError
from ..graph.core import Graph, edge_key
from .architecture import Architecture, SIDE_PAIRS

Node = Hashable
#: channel-span key: ("H"|"V", x, y) — all W tracks of one segment span
GroupKey = Tuple[str, int, int]


def junction(x: int, y: int, side: str, t: int) -> Tuple:
    """Node id of a wire end at crossing ``(x, y)``."""
    return ("J", x, y, side, t)


def pin_node(bx: int, by: int, p: int) -> Tuple:
    """Node id of logic-block pin slot ``p`` at block ``(bx, by)``."""
    return ("P", bx, by, p)


@dataclass
class SegmentInfo:
    """One wire segment: its edge endpoints and channel-span group."""

    orientation: str  # "H" or "V"
    x: int
    y: int
    track: int
    end_a: Tuple
    end_b: Tuple

    @property
    def group(self) -> GroupKey:
        return (self.orientation, self.x, self.y)


class RoutingResourceGraph:
    """A concrete FPGA routing graph plus its bookkeeping.

    Attributes
    ----------
    graph:
        The mutable :class:`~repro.graph.core.Graph` the routing
        algorithms run on.  Edge weights start at the architecture's
        base weights and are later scaled by the congestion model.
    arch:
        The generating :class:`Architecture`.
    """

    def __init__(self, arch: Architecture):
        self.arch = arch
        self.graph = Graph()
        #: base (uncongested) weight of every edge, for wirelength metrics
        self._base_weight: Dict[Tuple, float] = {}
        #: segment bookkeeping: edge key -> SegmentInfo
        self._segments: Dict[Tuple, SegmentInfo] = {}
        #: channel-span group -> list of segment edge keys (all tracks)
        self._groups: Dict[GroupKey, List[Tuple]] = {}
        #: pin node -> [(junction, weight)] connection-block switches;
        #: lets the router detach pins so nets cannot route *through*
        #: a foreign logic-block pin (see detach_all_pins)
        self._pin_edges: Dict[Tuple, List[Tuple[Tuple, float]]] = {}
        #: lazy junction-to-junction incidence index for :meth:`uncommit`
        self._jj_incident: Optional[Dict[Tuple, List[Tuple[Tuple, float]]]] = (
            None
        )
        #: pristine-device CSR snapshot, captured on the first
        #: :meth:`reset`; later resets thaw it instead of replaying
        #: E ``add_edge`` calls (see reset)
        self._pristine: Optional["FlatGraph"] = None  # noqa: F821
        self._build()

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    def _add_edge(self, u: Node, v: Node, weight: float) -> None:
        self.graph.add_edge(u, v, weight)
        self._base_weight[edge_key(u, v)] = weight

    def _build(self) -> None:
        arch = self.arch
        rows, cols, w = arch.rows, arch.cols, arch.channel_width

        # Wire segments.  Horizontal channels y = 0..rows, spans
        # x = 0..cols-1; vertical channels x = 0..cols, spans y = 0..rows-1.
        for y in range(rows + 1):
            for x in range(cols):
                for t in range(w):
                    a = junction(x, y, "E", t)
                    b = junction(x + 1, y, "W", t)
                    self._add_edge(a, b, arch.segment_weight)
                    info = SegmentInfo("H", x, y, t, a, b)
                    key = edge_key(a, b)
                    self._segments[key] = info
                    self._groups.setdefault(info.group, []).append(key)
        for x in range(cols + 1):
            for y in range(rows):
                for t in range(w):
                    a = junction(x, y, "N", t)
                    b = junction(x, y + 1, "S", t)
                    self._add_edge(a, b, arch.segment_weight)
                    info = SegmentInfo("V", x, y, t, a, b)
                    key = edge_key(a, b)
                    self._segments[key] = info
                    self._groups.setdefault(info.group, []).append(key)

        # Switch blocks at every crossing.  A side exists only if the
        # corresponding segment exists (boundary crossings are partial).
        for x in range(cols + 1):
            for y in range(rows + 1):
                present = {
                    "W": x >= 1,
                    "E": x <= cols - 1,
                    "S": y >= 1,
                    "N": y <= rows - 1,
                }
                for side_a, side_b in SIDE_PAIRS:
                    if not (present[side_a] and present[side_b]):
                        continue
                    for ta, tb in arch.switch_pattern(side_a, side_b):
                        u = junction(x, y, side_a, ta)
                        v = junction(x, y, side_b, tb)
                        if not self.graph.has_edge(u, v):
                            self._add_edge(u, v, arch.switch_weight)

        # Connection blocks: each pin taps Fc track segments of its
        # adjacent channel (both segment ends).
        for bx in range(cols):
            for by in range(rows):
                for p in range(arch.pins_per_block):
                    side = arch.pin_side(p)
                    pn = pin_node(bx, by, p)
                    taps = self._pin_edges.setdefault(pn, [])
                    for t in arch.pin_tracks(p):
                        for end in self._pin_segment_ends(bx, by, side, t):
                            self._add_edge(pn, end, arch.pin_weight)
                            taps.append((end, arch.pin_weight))

    def _pin_segment_ends(
        self, bx: int, by: int, side: str, t: int
    ) -> Tuple[Tuple, Tuple]:
        """Both junction ends of the channel segment a pin side faces.

        Block ``(bx, by)`` is bounded by horizontal channels ``by``
        (south) and ``by+1`` (north) and vertical channels ``bx`` (west)
        and ``bx+1`` (east).
        """
        if side == "S":
            return (junction(bx, by, "E", t), junction(bx + 1, by, "W", t))
        if side == "N":
            return (
                junction(bx, by + 1, "E", t),
                junction(bx + 1, by + 1, "W", t),
            )
        if side == "W":
            return (junction(bx, by, "N", t), junction(bx, by + 1, "S", t))
        if side == "E":
            return (
                junction(bx + 1, by, "N", t),
                junction(bx + 1, by + 1, "S", t),
            )
        raise ArchitectureError(f"unknown side {side!r}")

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    def base_weight(self, u: Node, v: Node) -> float:
        """The uncongested weight of edge ``(u, v)``."""
        return self._base_weight[edge_key(u, v)]

    def base_cost(self, edges: Iterable[Tuple[Node, Node]]) -> float:
        """Total base wirelength of an edge collection."""
        return sum(self.base_weight(u, v) for u, v in edges)

    def segment_info(self, u: Node, v: Node) -> Optional[SegmentInfo]:
        """Segment metadata if ``(u, v)`` is a wire-segment edge."""
        return self._segments.get(edge_key(u, v))

    def group_tracks(self, group: GroupKey) -> List[Tuple]:
        """All segment edge keys (one per track) of a channel span."""
        return list(self._groups.get(group, ()))

    def group_utilization(self, group: GroupKey) -> float:
        """Fraction of a channel span's tracks already consumed."""
        keys = self._groups.get(group)
        if not keys:
            return 0.0
        alive = sum(1 for u, v in keys if self.graph.has_edge(u, v))
        return 1.0 - alive / len(keys)

    def groups(self) -> Iterable[GroupKey]:
        return self._groups.keys()

    @property
    def num_tracks(self) -> int:
        return self.arch.channel_width

    # ------------------------------------------------------------------
    # resource commitment
    # ------------------------------------------------------------------
    def commit(self, tree: Graph) -> Set[GroupKey]:
        """Permanently consume the resources used by a routed net.

        Removes every junction node of ``tree`` (taking the used
        segment/switch/pin edges with it) plus the tree's pin nodes, and
        returns the set of channel-span groups whose utilization changed
        (for the congestion model to re-weight).
        """
        touched: Set[GroupKey] = set()
        for u, v, _ in tree.edges():
            info = self._segments.get(edge_key(u, v))
            if info is not None:
                touched.add(info.group)
        for node in list(tree.nodes):
            if self.graph.has_node(node):
                self.graph.remove_node(node)
        return touched

    def uncommit(self, tree: Graph) -> Set[GroupKey]:
        """Release the resources a previously committed tree consumed.

        The inverse of :meth:`commit`, used by the engine's
        quarantine-and-repair mode to rip up a net whose committed
        route failed verification: every junction node of ``tree`` is
        restored, along with each device edge whose two endpoints are
        junctions alive afterwards.  Pin nodes stay detached — within
        a pass pins exist only while their net is being routed, and
        :meth:`attach_pins` re-creates them for the reroute.  Returns
        the same channel-span groups :meth:`commit` reported, so the
        congestion model can refresh their weights.
        """
        if self._jj_incident is None:
            incident: Dict[Tuple, List[Tuple[Tuple, float]]] = {}
            for (u, v), w in self._base_weight.items():
                if u[0] == "J" and v[0] == "J":
                    incident.setdefault(u, []).append((v, w))
                    incident.setdefault(v, []).append((u, w))
            self._jj_incident = incident
        g = self.graph
        junctions = [
            n for n in tree.nodes
            if isinstance(n, tuple) and n and n[0] == "J"
        ]
        for node in junctions:
            if not g.has_node(node):
                g.add_node(node)
        for node in junctions:
            for other, w in self._jj_incident.get(node, ()):
                if g.has_node(other) and not g.has_edge(node, other):
                    g.add_edge(node, other, w)
        touched: Set[GroupKey] = set()
        for u, v, _ in tree.edges():
            info = self._segments.get(edge_key(u, v))
            if info is not None:
                touched.add(info.group)
        return touched

    # ------------------------------------------------------------------
    # pin attachment (router protocol)
    # ------------------------------------------------------------------
    def detach_all_pins(self) -> None:
        """Remove every pin node from the graph.

        The router detaches all pins at the start of a pass and
        re-attaches only the pins of the net currently being routed:
        a logic-block pin is an exclusive terminal, and leaving foreign
        pins in the graph would let Dijkstra route *through* them
        (physically a short through another block's pin).
        """
        for pn in self._pin_edges:
            if self.graph.has_node(pn):
                self.graph.remove_node(pn)

    def attach_pins(self, pins: Iterable[Tuple]) -> None:
        """Re-insert the given pin nodes with their surviving CB edges.

        Edges to junctions already consumed by earlier nets are not
        restored; a pin whose taps are all gone comes back isolated,
        which the router reads as an infeasible net.
        """
        g = self.graph
        for pn in pins:
            if pn not in self._pin_edges:
                raise GraphError(f"{pn!r} is not a pin of this device")
            g.add_node(pn)
            for end, w in self._pin_edges[pn]:
                if g.has_node(end):
                    g.add_edge(pn, end, w)

    def detach_pins(self, pins: Iterable[Tuple]) -> None:
        """Remove specific pin nodes (after a net fails or completes)."""
        for pn in pins:
            if self.graph.has_node(pn):
                self.graph.remove_node(pn)

    def freeze(self) -> "GraphView":  # noqa: F821 - forward ref
        """The live graph's frozen CSR view (``self.graph.freeze()``).

        Memoized per graph version: any commit, uncommit, reweight or
        pin attach/detach transparently invalidates it.
        """
        return self.graph.freeze()

    def device_snapshot(self) -> "FlatGraph":  # noqa: F821
        """The whole device as one frozen snapshot, for PathFinder.

        Negotiation never consumes the graph, so it freezes the device
        once per route: every pin is detached, the pin-free graph is
        frozen through ``Graph.freeze()``, and each pin is appended as
        a one-way terminal whose row lists its connection-block taps
        (:meth:`FlatGraph.with_terminals`).  No junction row lists a
        pin, so a foreign pin is unreachable; each net reroute attaches
        its own pins with a per-net :meth:`FlatGraph.overlay`.  Lattice
        coordinates are computed here once and shared by every overlay.
        """
        self.detach_all_pins()
        device = self.graph.freeze().flat.with_terminals(self._pin_edges)
        device.lattice_arrays()
        return device

    def pin_taps(self, pin: Tuple) -> List[Tuple[Tuple, float]]:
        """The connection-block taps ``[(junction, weight), ...]`` of a
        pin, independent of which taps currently survive in the live
        graph.  The engine ships these to workers alongside a frozen
        base graph so each worker can replay :meth:`attach_pins`
        locally instead of receiving a full per-net graph copy.
        """
        try:
            return self._pin_edges[pin]
        except KeyError:
            raise GraphError(f"{pin!r} is not a pin of this device") from None

    def reset(self) -> None:
        """Restore the pristine routing graph (all resources free).

        The first reset rebuilds the graph from the recorded base
        weights and freezes the result into a CSR snapshot; every later
        reset thaws that snapshot, which reconstructs a graph with the
        *identical* adjacency ordering (so routing stays bit-identical
        pass over pass) at a fraction of the ``add_edge`` replay cost.
        """
        if self._pristine is None:
            g = Graph()
            for (u, v), w in self._base_weight.items():
                g.add_edge(u, v, w)
            self._pristine = g.freeze().flat
            self.graph = g
        else:
            self.graph = self._pristine.thaw()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"RoutingResourceGraph({self.arch.name}, "
            f"{self.arch.rows}x{self.arch.cols}, W={self.arch.channel_width}, "
            f"|V|={self.graph.num_nodes}, |E|={self.graph.num_edges})"
        )


def build_routing_graph(arch: Architecture) -> RoutingResourceGraph:
    """Convenience constructor mirroring the paper's Figure 2 step."""
    return RoutingResourceGraph(arch)
