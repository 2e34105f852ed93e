"""Worst-case instance families for the arborescence heuristics.

Section 4 exhibits three adversarial families:

* **Figure 10** — weighted graphs where PFA's greedy MaxDom pairing is
  lured onto per-pair "trap" structures while a cheap shared trunk goes
  unused, costing Θ(N) × optimal.  :func:`pfa_trap_family` builds a
  fully deterministic realization (no tie-breaking required): the trap
  nodes are strictly farther from the source than the trunk hub, so
  MaxDom *must* prefer them, yet each trap has a private unit-cost
  approach that cannot be shared.
* **Figure 11** — the rectilinear staircase of Rao et al. [32] on which
  path folding approaches 2 × optimal even in grid graphs;
  :func:`staircase_instance` builds the pointset (horizontal pitch 1,
  vertical pitch 2, source at the origin) on a grid graph.
* **Figure 14** — the Set-Cover reduction forcing Ω(log N) on IDOM.
  :func:`setcover_family` builds the overlapping "macro box" graph; the
  abstract greedy behaviour the figure argues about is reproduced by
  :func:`greedy_set_cover`.  Note (documented in EXPERIMENTS.md): with
  substrate-level path sharing, our DOM/IDOM implementation routes
  *through* unselected macro nodes and thus escapes the full log factor
  on the expanded graph — the lower bound binds the abstract cost model
  in which each macro's access edge is paid upon selection, which the
  set-cover simulation demonstrates.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, FrozenSet, Hashable, List, Sequence, Set, Tuple

from ..errors import GraphError
from ..graph.core import Graph
from ..graph.generators import grid_graph
from ..net import Net

Node = Hashable


# ----------------------------------------------------------------------
# Figure 10: PFA trap family (Θ(N) × optimal)
# ----------------------------------------------------------------------
@dataclass
class PFATrapInstance:
    """A Figure-10-style instance with its analytic optima."""

    graph: Graph
    net: Net
    #: cost of the optimal arborescence (shared trunk)
    optimal_cost: float
    #: cost PFA is engineered to pay (per-pair traps)
    trap_cost: float


def pfa_trap_family(num_pairs: int, eps: float = None) -> PFATrapInstance:
    """Build the PFA worst-case family with ``num_pairs`` sink pairs.

    Construction (``k = 2·num_pairs`` sinks, ``ε`` small):

    * trunk hub ``g``: edge ``n0–g`` of weight 1; edges ``g–tᵢ`` of
      weight 2ε to every sink — the shared optimal structure of cost
      ``1 + 2kε``;
    * per-pair trap ``mⱼ``: edge ``n0–mⱼ`` of weight ``1+ε`` and edges
      ``mⱼ–t`` of weight ε to its two sinks.

    Every sink sits at source distance ``1 + 2ε`` both ways.  For a
    same-pair sink pair, MaxDom must be the trap (source distance
    ``1+ε`` beats the hub's 1), and a trap's only shortest-path
    approach is its private ``1+ε`` edge — so PFA pays
    ``≈ num_pairs × 1`` while the optimum pays ``≈ 1``, giving the
    Θ(N) gap of Figure 10.  IDOM accepts the hub ``g`` as a Steiner
    point and recovers the optimum (the paper notes IDOM "optimally
    solves these particular worst-case examples").
    """
    if num_pairs < 1:
        raise GraphError("need at least one sink pair")
    if eps is None:
        eps = 1.0 / (8.0 * num_pairs)
    g = Graph()
    source = "n0"
    hub = "g"
    g.add_edge(source, hub, 1.0)
    sinks: List[Node] = []
    for j in range(num_pairs):
        trap = f"m{j}"
        g.add_edge(source, trap, 1.0 + eps)
        for side in range(2):
            t = f"t{2 * j + side}"
            sinks.append(t)
            g.add_edge(trap, t, eps)
            g.add_edge(hub, t, 2.0 * eps)
    net = Net(source=source, sinks=tuple(sinks), name="fig10")
    k = 2 * num_pairs
    hub_cost = 1.0 + 2.0 * eps * k
    trap_cost = k * eps + num_pairs * (1.0 + eps)
    # for a single pair the trap route is genuinely cheapest; the hub
    # wins for every larger instance
    optimal = min(hub_cost, trap_cost)
    return PFATrapInstance(
        graph=g, net=net, optimal_cost=optimal, trap_cost=trap_cost
    )


# ----------------------------------------------------------------------
# Figure 11: staircase pointset on a grid graph (PFA → 2× on grids)
# ----------------------------------------------------------------------
@dataclass
class StaircaseInstance:
    """A Figure-11 staircase embedded in a grid graph."""

    graph: Graph
    net: Net


def staircase_instance(num_sinks: int) -> StaircaseInstance:
    """The staircase of Figure 11: sinks at ``(i, 2·(k−i+1))``.

    Source at the origin of a ``(k+1) × (2k+3)`` grid graph; horizontal
    interpoint distance 1, vertical interpoint distance 2, exactly as
    the figure caption specifies.  On the plane, path folding on this
    pointset builds combs whose cost approaches twice the optimum as k
    grows; the optimum itself has no closed form here and comes from
    the exact GSA solver
    (:func:`~repro.arborescence.exact.optimal_arborescence_cost`).
    """
    if num_sinks < 1:
        raise GraphError("need at least one sink")
    k = num_sinks
    width = k + 1
    height = 2 * k + 3
    g = grid_graph(width, height)
    source = (0, 0)
    sinks = tuple((i, 2 * (k - i + 1)) for i in range(1, k + 1))
    net = Net(source=source, sinks=sinks, name="fig11")
    return StaircaseInstance(graph=g, net=net)


# ----------------------------------------------------------------------
# Figure 14: set-cover macros (Ω(log N) for IDOM's cost model)
# ----------------------------------------------------------------------
@dataclass
class SetCoverInstance:
    """A Figure-14 macro-box instance.

    ``boxes`` maps a box name to its covered sinks; ``optimal_boxes``
    are the two row boxes whose union covers everything (abstract cost
    2), and the graph realizes every box as the paper's macro: zero
    edges box-node→sinks plus one unit edge box-node→source.
    """

    graph: Graph
    net: Net
    boxes: Dict[str, FrozenSet[Node]]
    optimal_boxes: Tuple[str, str]


def setcover_family(levels: int) -> SetCoverInstance:
    """Build the Figure 14 family with ``2^(levels+1)`` sinks.

    Sinks form a 2 × 2^levels array.  The two *row* boxes are the
    optimal cover; the *column-block* trap boxes halve in size
    (2^levels, 2^(levels−1), …, 2) and tile the columns left to right,
    each covering both rows of its column range.  Greedy cover (largest
    first, traps preferred on ties — the adversarial tie-breaking the
    figure invokes) selects every trap box: Ω(levels) = Ω(log N) sets.
    """
    if levels < 1:
        raise GraphError("need at least one level")
    cols = 2 ** levels
    sinks = [(r, c) for r in range(2) for c in range(cols)]
    boxes: Dict[str, FrozenSet[Node]] = {}
    # trap boxes first => deterministic greedy prefers them on ties
    start = 0
    width = cols // 2
    idx = 0
    while width >= 1:
        members = frozenset(
            (r, c) for r in range(2) for c in range(start, start + width)
        )
        boxes[f"C{idx}"] = members
        start += width
        width //= 2
        idx += 1
    # last remaining column block of width 1 handled when width hits 1;
    # ensure full coverage of the tail column(s)
    if start < cols:
        boxes[f"C{idx}"] = frozenset(
            (r, c) for r in range(2) for c in range(start, cols)
        )
    boxes["R0"] = frozenset((0, c) for c in range(cols))
    boxes["R1"] = frozenset((1, c) for c in range(cols))

    g = Graph()
    source = "n0"
    g.add_node(source)
    for name, members in boxes.items():
        box_node = ("box", name)
        g.add_edge(source, box_node, 1.0)
        for s in members:
            g.add_edge(box_node, ("sink",) + s, 0.0)
    net = Net(
        source=source,
        sinks=tuple(("sink", r, c) for r, c in sinks),
        name="fig14",
    )
    return SetCoverInstance(
        graph=g,
        net=net,
        boxes=boxes,
        optimal_boxes=("R0", "R1"),
    )


def greedy_set_cover(
    universe: Set[Node], sets: Dict[str, FrozenSet[Node]]
) -> List[str]:
    """Greedy set cover, ties broken by insertion order of ``sets``.

    This is the abstract selection dynamic Figure 14 attributes to IDOM
    under the pay-per-macro cost model: with the trap boxes listed
    first, the greedy pass selects Θ(log N) of them while the optimal
    cover has size 2.
    """
    remaining = set(universe)
    chosen: List[str] = []
    while remaining:
        best_name = None
        best_gain = 0
        for name, members in sets.items():
            if name in chosen:
                continue
            gain = len(remaining & members)
            if gain > best_gain:
                best_gain = gain
                best_name = name
        if best_name is None:
            raise GraphError("sets do not cover the universe")
        chosen.append(best_name)
        remaining -= sets[best_name]
    return chosen
