"""Goal-directed negotiated search: the Manhattan bound and its policy.

Every construction in the paper — the KMB/Mehlhorn metric closures, the
dominance predicates of Section 4, and the router's maze expansion —
asks shortest-path questions about one net's terminals, and answers
them from the single-source trees that
:class:`~repro.graph.shortest_paths.ShortestPathCache` shares.  Those
queries are short and warm trees answer most of them, so a future-cost
bound has nothing to prune there (Hougardy et al., *Dijkstra meets
Steiner*: a bound pays only when a search would otherwise settle far
past its target).  PathFinder's negotiated searches are the exception:
each connection is a fresh multi-source search over the whole device,
and A* under the channel-lattice bound settles far fewer nodes.  This
module provides that bound, and :class:`SearchPolicy` selects whether
the negotiated kernel (:func:`~repro.graph.flat.flat_negotiated_search`)
uses it.

Exactness contract
------------------
The negotiated kernel under an *admissible and consistent* heuristic
settles every node at its exact negotiated distance, so A* and plain
Dijkstra agree on ``dist[target]``.  They do not agree on equal-cost
tie-breaking (A* pops by ``g + h``), so the two backends can route
different trees: ``RouterConfig.search`` is a negotiation choice, not
an implementation detail.

Heuristics
----------
:func:`manhattan_heuristic` is the channel-lattice lower bound for FPGA
routing graphs: junction ``("J", x, y, side, track)`` sits at lattice
point ``(x, y)``, pin ``("P", bx, by, p)`` at the block centre
``(bx + 0.5, by + 0.5)``, and plain ``(x, y)`` grid nodes at
themselves.  With ``scale`` a lower bound on ``weight / L1-displacement``
over every displacement edge, ``h(v) = scale · L1(v, target)`` is
admissible and consistent: an edge moving ``d ≤ 1`` in L1 costs at
least ``scale · d``, so ``h`` can never drop faster than the edge
weight.
"""

from __future__ import annotations

from typing import Callable, Dict, Hashable, Optional, Sequence, Tuple

from ..errors import GraphError
from .core import Graph
from .flat import FlatGraph, flat_negotiated_search

Node = Hashable
INF = float("inf")

#: the RouterConfig.search vocabulary: how negotiated searches run
SEARCH_BACKENDS = ("astar", "dijkstra")


class Heuristic:
    """A lower-bound function plus a hashable identity.

    ``key`` identifies the heuristic — two heuristics with equal keys
    must compute identical bounds.  The negotiated kernel reads a
    ``("manhattan", scale, target)`` key to evaluate the bound through
    the snapshot's memoized per-id table.
    """

    __slots__ = ("fn", "key")

    def __init__(self, fn: Callable[[Node], float], key: Tuple) -> None:
        self.fn = fn
        self.key = key

    def __call__(self, node: Node) -> float:
        return self.fn(node)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Heuristic({self.key!r})"


def lattice_coordinate(node: Node) -> Optional[Tuple[float, float]]:
    """The (x, y) lattice position of a routing-graph or grid node.

    Recognizes the :mod:`repro.fpga.routing_graph` node vocabulary —
    ``("J", x, y, side, track)`` junctions and ``("P", bx, by, p)``
    pins (placed at the block centre) — plus bare ``(x, y)`` pairs from
    :func:`repro.graph.generators.grid_graph`.  Returns None for
    anything else.
    """
    if type(node) is not tuple:
        return None
    n = len(node)
    if n == 5 and node[0] == "J":
        x, y = node[1], node[2]
        if isinstance(x, (int, float)) and isinstance(y, (int, float)):
            return (float(x), float(y))
    elif n == 4 and node[0] == "P":
        bx, by = node[1], node[2]
        if isinstance(bx, (int, float)) and isinstance(by, (int, float)):
            return (float(bx) + 0.5, float(by) + 0.5)
    elif n == 2:
        x, y = node
        if (
            isinstance(x, (int, float))
            and isinstance(y, (int, float))
            and not isinstance(x, bool)
            and not isinstance(y, bool)
        ):
            return (float(x), float(y))
    return None


def lattice_scale(graph: Graph) -> Optional[float]:
    """The admissible Manhattan scale for ``graph``, or None.

    Scans every edge: each endpoint must have a
    :func:`lattice_coordinate` and no edge may move more than one unit
    of L1 distance.  The scale is the minimum ``weight / displacement``
    over the displacement edges — the largest factor for which
    ``scale · L1(v, t)`` is still a lower bound on the true distance.
    Returns None when the graph is not a unit lattice (or a
    displacement edge has zero weight, which would make the bound
    vacuous).
    """
    scale = INF
    for u, v, w in graph.edges():
        cu = lattice_coordinate(u)
        if cu is None:
            return None
        cv = lattice_coordinate(v)
        if cv is None:
            return None
        d = abs(cu[0] - cv[0]) + abs(cu[1] - cv[1])
        if d > 1.0 + 1e-9:
            return None
        if d > 1e-12:
            ratio = w / d
            if ratio < scale:
                scale = ratio
    if scale == INF or scale <= 0.0:
        return None
    return scale


def manhattan_heuristic(
    graph: Graph, target: Node, scale: Optional[float] = None
) -> Optional[Heuristic]:
    """Channel-lattice Manhattan lower bound toward ``target``.

    ``scale`` is the per-unit-L1 weight lower bound; omitted, it is
    derived (and verified) from the graph via :func:`lattice_scale`.
    Returns None when no admissible bound can be formed (no target
    coordinate, or the graph is not a lattice).
    """
    tc = lattice_coordinate(target)
    if tc is None:
        return None
    if scale is None:
        scale = lattice_scale(graph)
        if scale is None:
            return None
    tx, ty = tc

    def h(node: Node) -> float:
        c = lattice_coordinate(node)
        if c is None:
            return 0.0
        return scale * (abs(c[0] - tx) + abs(c[1] - ty))

    return Heuristic(h, ("manhattan", scale, target))


class SearchPolicy:
    """How PathFinder's negotiated searches run.

    Parameters
    ----------
    backend:
        One of :data:`SEARCH_BACKENDS`.  ``"astar"`` (the default)
        searches goal-directed under the channel-lattice Manhattan
        bound whenever one is available; ``"dijkstra"`` runs the plain
        multi-source kernel.  Both are exact under the negotiated
        costs, but they break equal-cost ties differently, so they can
        route different trees (``docs/pathfinder.md`` records the
        trade).
    heuristic_scale:
        Trusted per-unit-L1 weight lower bound.  The router supplies
        ``min(segment_weight, pin_weight)`` from the architecture,
        which skips the O(E) lattice verification scan.  Callers
        providing it assert that every node on any path has a
        :func:`lattice_coordinate` and every edge satisfies
        ``weight ≥ scale · L1-displacement``.

    Paper mode never consults a policy: its distances come from the
    cached single-source trees of
    :class:`~repro.graph.shortest_paths.ShortestPathCache`.
    """

    __slots__ = ("backend", "heuristic_scale")

    def __init__(
        self,
        backend: str = "astar",
        *,
        heuristic_scale: Optional[float] = None,
    ) -> None:
        if backend not in SEARCH_BACKENDS:
            raise GraphError(
                f"unknown search backend {backend!r}; "
                f"expected one of {SEARCH_BACKENDS}"
            )
        if heuristic_scale is not None and heuristic_scale <= 0:
            raise GraphError(
                f"heuristic_scale must be positive, got {heuristic_scale}"
            )
        self.backend = backend
        self.heuristic_scale = heuristic_scale

    @classmethod
    def for_architecture(cls, backend: str, arch) -> "SearchPolicy":
        """The router's policy: Manhattan scale from the architecture.

        ``min(segment_weight, pin_weight)`` bounds the cost of any
        unit-L1 move on the routing-resource graph (switch edges do not
        displace), independent of congestion multipliers (which only
        increase weights) and of which pins are currently attached.
        """
        scale = min(arch.segment_weight, arch.pin_weight)
        if scale <= 0:
            return cls(backend)
        return cls(backend, heuristic_scale=scale)

    def negotiated_search(
        self,
        flat: FlatGraph,
        sources: Sequence[Node],
        target: Node,
        provider,
        criticality: float = 0.0,
        offsets: Optional[Dict[Node, float]] = None,
    ) -> Tuple[Dict[Node, float], Dict[Node, Node]]:
        """Multi-source negotiated-cost search over a frozen snapshot.

        The PathFinder cost seam: ``provider.factor_table(flat)``
        supplies a dense per-id list of present × history multipliers,
        and :func:`~repro.graph.flat.flat_negotiated_search` blends it
        into the edge weights on the fly, so the graph is never
        re-weighted per query.  The negotiation loop freezes the device
        once per route and searches each net on a per-net
        :meth:`~repro.graph.flat.FlatGraph.overlay` of it; every
        overlay shares the device's id space, so one frozen snapshot
        and one factor table serve every net of an iteration.  Factors
        must be ``>= 1``: the blended cost then never undercuts the
        base weight, which keeps this policy's base-metric Manhattan
        heuristic admissible.

        ``"astar"`` goes goal-directed when a Manhattan bound is
        available (the trusted scale, else one derived from ``flat``)
        and runs the plain kernel otherwise; ``"dijkstra"`` always runs
        the plain kernel.
        """
        heuristic = None
        if self.backend == "astar":
            scale = self.heuristic_scale
            if scale is None:
                scale = lattice_scale(flat)
            if scale is not None:
                heuristic = manhattan_heuristic(flat, target, scale=scale)
        return flat_negotiated_search(
            flat,
            sources,
            target,
            provider.factor_table(flat),
            criticality,
            heuristic=heuristic,
            offsets=offsets,
        )
