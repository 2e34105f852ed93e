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

Device templates.  A device is built once per architecture per process:
the first :class:`RoutingResourceGraph` of an :class:`Architecture`
runs :meth:`RoutingResourceGraph._build` into a :class:`DeviceTemplate`
(kept in a bounded cache, :data:`TEMPLATE_CACHE_SIZE`), and every
device of that architecture copies the template's graph and shares its
read-only tables and its pristine CSR snapshot.
"""

from __future__ import annotations

import functools
import os
import threading
from dataclasses import dataclass
from typing import Dict, Hashable, Iterable, List, Optional, Set, Tuple

from ..errors import ArchitectureError, GraphError
from ..graph.core import Graph, edge_key
from ..graph.flat import FlatGraph
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


@dataclass(frozen=True)
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
        algorithms run on: this device's own copy of its template's
        graph.  Edge weights start at the architecture's base weights
        and are later scaled by the congestion model.
    arch:
        The generating :class:`Architecture`.

    Every other table belongs to the architecture's
    :class:`DeviceTemplate` and is shared, read-only, by all devices of
    that architecture in the process.
    """

    def __init__(self, arch: Architecture):
        self.arch = arch
        template = _device_template(arch)
        self._template = template
        self.graph = template.graph.copy()
        # the rest is the template's, shared by every device of the
        # architecture in the process and never written after _build
        self._base_weight = template.base_weight
        self._segments = template.segments
        self._groups = template.groups
        self._pin_edges = template.pin_edges

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    def _add_edge(self, u: Node, v: Node, weight: float) -> None:
        self.graph.add_edge(u, v, weight)
        self._base_weight[edge_key(u, v)] = weight

    def _build(self) -> None:
        """Fill a fresh instance with ``self.arch``'s whole device.

        Runs once per architecture per process, when its
        :class:`DeviceTemplate` is made; devices copy the result.
        """
        arch = self.arch
        rows, cols, w = arch.rows, arch.cols, arch.channel_width
        self.graph = Graph()
        #: base (uncongested) weight of every edge, for wirelength metrics
        self._base_weight: Dict[Tuple, float] = {}
        #: segment bookkeeping: edge key -> SegmentInfo
        self._segments: Dict[Tuple, SegmentInfo] = {}
        #: channel-span group -> segment edge keys (all tracks)
        groups: Dict[GroupKey, List[Tuple]] = {}
        #: pin node -> [(junction, weight)] connection-block switches;
        #: lets the router detach pins so nets cannot route *through*
        #: a foreign logic-block pin (see detach_all_pins)
        pin_edges: Dict[Tuple, List[Tuple[Tuple, float]]] = {}

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
                    groups.setdefault(info.group, []).append(key)
        for x in range(cols + 1):
            for y in range(rows):
                for t in range(w):
                    a = junction(x, y, "N", t)
                    b = junction(x, y + 1, "S", t)
                    self._add_edge(a, b, arch.segment_weight)
                    info = SegmentInfo("V", x, y, t, a, b)
                    key = edge_key(a, b)
                    self._segments[key] = info
                    groups.setdefault(info.group, []).append(key)

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
                    taps = pin_edges.setdefault(pn, [])
                    for t in arch.pin_tracks(p):
                        for end in self._pin_segment_ends(bx, by, side, t):
                            self._add_edge(pn, end, arch.pin_weight)
                            taps.append((end, arch.pin_weight))

        # tuples: these tables are shared by every device of the
        # architecture, and pin_taps() hands its values out
        self._groups: Dict[GroupKey, Tuple[Tuple, ...]] = {
            g: tuple(keys) for g, keys in groups.items()
        }
        self._pin_edges: Dict[Tuple, Tuple[Tuple[Tuple, float], ...]] = {
            pn: tuple(taps) for pn, taps in pin_edges.items()
        }

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

    def group_tracks(self, group: GroupKey) -> Tuple[Tuple, ...]:
        """All segment edge keys (one per track) of a channel span."""
        return self._groups.get(group, ())

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
        incident = self._template.junction_incidence()
        g = self.graph
        junctions = [
            n for n in tree.nodes
            if isinstance(n, tuple) and n and n[0] == "J"
        ]
        for node in junctions:
            if not g.has_node(node):
                g.add_node(node)
        for node in junctions:
            for other, w in incident.get(node, ()):
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

    def pin_taps(self, pin: Tuple) -> Tuple[Tuple[Tuple, float], ...]:
        """The connection-block taps ``((junction, weight), ...)`` of a
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

        Every reset thaws the template's pristine CSR snapshot, frozen
        once per architecture, on the first reset of any of its devices
        (:meth:`DeviceTemplate.pristine`).  Thawing reconstructs the
        built graph's *identical* adjacency ordering — the order a
        fresh device's copy has — so routing stays bit-identical pass
        over pass, and the thawed graph starts with that snapshot as
        its frozen view.  The snapshot is never written: later freezes
        patch or rebuild into new snapshots.
        """
        self.graph = self._template.pristine().thaw()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"RoutingResourceGraph({self.arch.name}, "
            f"{self.arch.rows}x{self.arch.cols}, W={self.arch.channel_width}, "
            f"|V|={self.graph.num_nodes}, |E|={self.graph.num_edges})"
        )


def build_routing_graph(arch: Architecture) -> RoutingResourceGraph:
    """Convenience constructor mirroring the paper's Figure 2 step."""
    return RoutingResourceGraph(arch)


class DeviceTemplate:
    """One architecture's device, built once and shared read-only.

    Constructing a template runs :meth:`RoutingResourceGraph._build`
    on a bare instance and keeps what it filled: the graph, which each
    device copies, and the base-weight, segment, group and pin-tap
    tables, which devices share by reference.  Nothing here is written
    after construction, except two derived tables filled on first use:
    the pristine CSR snapshot :meth:`RoutingResourceGraph.reset` thaws
    (:meth:`pristine`) and the junction incidence index
    :meth:`RoutingResourceGraph.uncommit` reads
    (:meth:`junction_incidence`).  Two threads racing to fill either
    build equal tables, and either may stay.
    """

    __slots__ = (
        "graph",
        "base_weight",
        "segments",
        "groups",
        "pin_edges",
        "_pristine",
        "_jj_incident",
    )

    def __init__(self, arch: Architecture) -> None:
        built = RoutingResourceGraph.__new__(RoutingResourceGraph)
        built.arch = arch
        built._build()
        self.graph = built.graph
        self.base_weight = built._base_weight
        self.segments = built._segments
        self.groups = built._groups
        self.pin_edges = built._pin_edges
        self._pristine: Optional[FlatGraph] = None
        self._jj_incident: Optional[
            Dict[Tuple, List[Tuple[Tuple, float]]]
        ] = None

    def pristine(self) -> FlatGraph:
        """The built graph's CSR snapshot, frozen on first use.

        Only a reset needs it, and a route that finishes in its first
        pass never resets.
        """
        pristine = self._pristine
        if pristine is None:
            pristine = self._pristine = FlatGraph.from_graph(self.graph)
        return pristine

    def junction_incidence(self) -> Dict[Tuple, List[Tuple[Tuple, float]]]:
        """Junction → ``[(junction, weight)]`` over the device's
        junction-to-junction edges, built on first use: only a
        quarantine repair's :meth:`RoutingResourceGraph.uncommit`
        needs it.
        """
        incident = self._jj_incident
        if incident is None:
            incident = {}
            for (u, v), w in self.base_weight.items():
                if u[0] == "J" and v[0] == "J":
                    incident.setdefault(u, []).append((v, w))
                    incident.setdefault(v, []).append((u, w))
            self._jj_incident = incident
        return incident


#: device templates kept per process.  Eight holds every width a
#: channel-width sweep visits; the bound exists because a service sees
#: many architectures and a full-size template is up to ~15 MB.
TEMPLATE_CACHE_SIZE = 8


def _new_template_lock() -> None:
    # also run in every forked child: a fork while another thread
    # builds a template must not hand the child a held lock
    global _template_lock
    _template_lock = threading.Lock()


_new_template_lock()
if hasattr(os, "register_at_fork"):  # POSIX
    os.register_at_fork(after_in_child=_new_template_lock)


@functools.lru_cache(maxsize=TEMPLATE_CACHE_SIZE)
def _cached_template(
    arch: Architecture, _weight_types: Tuple[type, ...]
) -> DeviceTemplate:
    return DeviceTemplate(arch)


def _device_template(arch: Architecture) -> DeviceTemplate:
    """``arch``'s template, built on the first call for it.

    Keyed by the whole :class:`Architecture` value — every field but
    ``name`` shapes the device — plus its weights' types, since
    ``1 == 1.0`` but a device built with integer weights sums integer
    lengths.  The lock makes concurrent first constructions build once.
    """
    weight_types = (
        type(arch.segment_weight),
        type(arch.switch_weight),
        type(arch.pin_weight),
    )
    with _template_lock:
        return _cached_template(arch, weight_types)
