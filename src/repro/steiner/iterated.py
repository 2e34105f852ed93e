"""The Iterated Graph Minimal Steiner Tree (IGMST) template — Section 3.

The paper's first contribution: given *any* graph Steiner heuristic H,
repeatedly find the Steiner candidate ``t ∈ V − (N ∪ S)`` with maximum
positive savings ``ΔH(G, N, S ∪ {t}) = cost(H(G,N∪S)) − cost(H(G,N∪S∪{t}))``
and add it to the growing candidate set S; return ``H(G, N ∪ S)`` when no
candidate improves.  The composite inherits H's performance bound (IKMB
≤ 2×, IZEL ≤ 11/6×) and in practice is considerably better (Table 1).

Implementation notes
--------------------
* **Shared shortest paths.**  All ΔH evaluations run against one
  :class:`ShortestPathCache`, realizing the paper's "factoring out of H
  common computations, such as computing shortest-paths".  A round that
  scans at least :data:`WARM_CANDIDATES` candidates first roots one
  full SSSP at every member of N ∪ S, so each candidate's distances to
  N ∪ S — and every expansion path rooted at a member — are lookups.
* **Shared closure.**  A heuristic may supply a per-round evaluator
  (:attr:`SteinerHeuristic.round_fn`) that builds the N ∪ S closure
  once and costs each candidate by adding one row to it; KMB does
  (:func:`~repro.steiner.kmb.kmb_round`).  Other heuristics fall back to
  one ``cost_fn`` call per candidate.
* **Two-terminal early exit.**  Any tree spanning terminals ``a`` and
  ``b`` contains an ``a``–``b`` path, so when ``cost(H(N))`` already
  equals ``minpath(a, b)`` no candidate can have positive ΔH and the
  scan is skipped.
* **Candidate strategies.**  ``candidates="all"`` is the paper-faithful
  scan of all of ``V − N``.  ``candidates="neighborhood"`` restricts the
  scan to nodes within a radius of the current tree — the practical
  choice inside the FPGA router where ``|V|`` is in the thousands (the
  ablation bench quantifies the cost).  An explicit iterable of nodes is
  also accepted.
* **Batched insertion.**  ``batched=True`` ranks all positive-gain
  candidates once per round and greedily keeps every candidate that
  *still* improves when re-checked against the updated set, mirroring
  the "batches based on a non-interference criterion" remark (the paper
  observes ≤ 3 such rounds are typical; the tests confirm).
* **Traces.**  ``record_trace=True`` captures each accepted Steiner point
  and the cost after acceptance, allowing Figure 6's 7→6→5 narrative to
  be replayed programmatically.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import (
    Callable,
    Hashable,
    Iterable,
    List,
    Optional,
    Sequence,
    Tuple,
    Union,
)

from ..errors import GraphError
from ..graph.core import Graph
from ..graph.shortest_paths import ShortestPathCache
from ..net import Net
from .kmb import kmb_cost, kmb_round, kmb_tree_graph
from .tree import RoutingTree
from .zelikovsky import zel_cost, zel_tree_graph

Node = Hashable
CostFn = Callable[[Graph, Sequence[Node], ShortestPathCache], float]
TreeFn = Callable[[Graph, Sequence[Node], ShortestPathCache], Graph]
RoundFn = Callable[
    [Graph, Sequence[Node], ShortestPathCache], Callable[[Node], float]
]

#: candidates a ΔH round must scan before it warms one SSSP per member
#: of N ∪ S up front (smaller scans root trees only as they miss)
WARM_CANDIDATES = 8


@dataclass
class SteinerHeuristic:
    """A pluggable H for the IGMST template.

    ``cost_fn`` evaluates ``cost(H(G, terminals))`` and ``tree_fn``
    materializes the tree; separating them lets ΔH screening avoid
    building throw-away tree objects where the heuristic allows it.
    ``round_fn``, when given, maps the members N ∪ S of one scan round
    to an evaluator ``t ↦ cost(H(G, N ∪ S ∪ {t}))`` that must equal
    ``cost_fn`` bit for bit; it lets H share work across the round's
    candidates.
    """

    name: str
    cost_fn: CostFn
    tree_fn: TreeFn
    round_fn: Optional[RoundFn] = None


KMB_HEURISTIC = SteinerHeuristic("KMB", kmb_cost, kmb_tree_graph, kmb_round)
ZEL_HEURISTIC = SteinerHeuristic("ZEL", zel_cost, zel_tree_graph)


def _mehlhorn_heuristic() -> SteinerHeuristic:
    # local import: mehlhorn.py imports tree.py which sits beside us
    from .mehlhorn import mehlhorn_cost, mehlhorn_tree_graph

    return SteinerHeuristic("MEHLHORN", mehlhorn_cost, mehlhorn_tree_graph)


#: Mehlhorn's O(E + V log V) heuristic [30] as an IGMST inner engine —
#: the fast choice on large routing graphs.
MEHLHORN_HEURISTIC = _mehlhorn_heuristic()


@dataclass
class IGMSTTrace:
    """Execution record of one IGMST run (Figure 6 in the paper)."""

    heuristic: str
    initial_cost: float = 0.0
    #: (accepted Steiner node, ΔH it produced, cost after acceptance)
    steps: List[Tuple[Node, float, float]] = field(default_factory=list)
    #: number of candidate-scan rounds executed (batched mode counts
    #: one per batch round)
    rounds: int = 0

    @property
    def final_cost(self) -> float:
        return self.steps[-1][2] if self.steps else self.initial_cost

    @property
    def total_savings(self) -> float:
        return self.initial_cost - self.final_cost


def _neighborhood_candidates(
    graph: Graph,
    cache: ShortestPathCache,
    terminals: Sequence[Node],
    radius_factor: float,
) -> List[Node]:
    """Nodes within ``radius_factor × max terminal spread`` of a terminal.

    Cheap, tree-free approximation of "near the current tree": every
    useful Steiner point lies within the net's bounding metric ball.
    """
    terms = list(terminals)
    spread = 0.0
    for t in terms[1:]:
        spread = max(spread, cache.dist(terms[0], t))
    radius = radius_factor * spread
    keep: set = set()
    for t in terms:
        dist, _ = cache.sssp(t)
        for v, d in dist.items():
            if d <= radius:
                keep.add(v)
    term_set = set(terms)
    # sorted for cross-process determinism (set iteration order is
    # hash-randomized and candidate order breaks greedy ties)
    return sorted((v for v in keep if v not in term_set), key=repr)


def igmst(
    graph: Graph,
    net: Net,
    heuristic: SteinerHeuristic = KMB_HEURISTIC,
    cache: Optional[ShortestPathCache] = None,
    candidates: Union[str, Iterable[Node]] = "all",
    neighborhood_radius: float = 0.75,
    batched: bool = False,
    max_steiner_nodes: Optional[int] = None,
    record_trace: bool = False,
) -> RoutingTree:
    """Run the IGMST template (Figure 5) and return the final tree.

    Parameters
    ----------
    graph, net:
        The GMST instance ⟨G, N⟩.
    heuristic:
        The inner Steiner heuristic H (default KMB → this is IKMB).
    cache:
        Optional shared shortest-path cache (created if absent).
    candidates:
        ``"all"`` (paper-faithful), ``"neighborhood"`` (radius-limited),
        or an explicit iterable of candidate nodes.
    batched:
        Use non-interference-style batched acceptance instead of
        strictly one candidate per scan.
    max_steiner_nodes:
        Optional hard cap on |S| (router safety valve).
    record_trace:
        Attach an :class:`IGMSTTrace` to the returned tree as
        ``tree.trace``.
    """
    if cache is None:
        cache = ShortestPathCache(graph)
    terminals = list(net.terminals)
    terminal_set = set(terminals)

    if isinstance(candidates, str):
        if candidates == "all":
            pool = [v for v in graph.nodes if v not in terminal_set]
        elif candidates == "neighborhood":
            pool = _neighborhood_candidates(
                graph, cache, terminals, neighborhood_radius
            )
        else:
            raise GraphError(f"unknown candidate strategy {candidates!r}")
    else:
        pool = [v for v in candidates if v not in terminal_set]

    chosen: List[Node] = []
    base_cost = heuristic.cost_fn(graph, terminals, cache)
    trace = IGMSTTrace(heuristic=heuristic.name, initial_cost=base_cost)
    # a tree spanning a and b contains an a–b path: once H(N) costs
    # minpath(a, b), no candidate passes the gain test below
    distinct = list(dict.fromkeys(terminals))
    settled = (
        len(distinct) == 2
        and base_cost <= cache.dist(distinct[0], distinct[1]) + 1e-12
    )

    def evaluator() -> Callable[[Node], float]:
        members = terminals + chosen
        if heuristic.round_fn is not None:
            return heuristic.round_fn(graph, members, cache)
        return lambda t: heuristic.cost_fn(graph, members + [t], cache)

    active = [v for v in pool]
    while True:
        if max_steiner_nodes is not None and len(chosen) >= max_steiner_nodes:
            break
        trace.rounds += 1
        if settled:
            break
        chosen_set = set(chosen)
        todo = [t for t in active if t not in chosen_set]
        if not todo:
            break
        if len(todo) >= WARM_CANDIDATES:
            # the scan asks every candidate for its distance to each
            # member; rooting one SSSP per member answers all of them
            cache.warm(terminals + chosen)
        cost = evaluator()
        scored: List[Tuple[float, Node]] = []
        for t in todo:
            gain = base_cost - cost(t)
            if gain > 1e-12:
                scored.append((gain, t))
        if not scored:
            break
        scored.sort(key=lambda item: (-item[0], repr(item[1])))
        if not batched:
            gain, t = scored[0]
            chosen.append(t)
            base_cost -= gain
            trace.steps.append((t, gain, base_cost))
        else:
            accepted_any = False
            for expected_gain, t in scored:
                if max_steiner_nodes is not None and len(
                    chosen
                ) >= max_steiner_nodes:
                    break
                if cost is None:  # S grew: re-check against the new set
                    cost = evaluator()
                gain = base_cost - cost(t)
                if gain > 1e-12:
                    chosen.append(t)
                    base_cost -= gain
                    trace.steps.append((t, gain, base_cost))
                    accepted_any = True
                    cost = None
            if not accepted_any:
                break

    tree = heuristic.tree_fn(graph, terminals + chosen, cache)
    # A candidate may end up unused (pruned) in the final H tree.
    used = tuple(t for t in chosen if tree.has_node(t))
    result = RoutingTree(
        net=net,
        tree=tree,
        algorithm=f"I{heuristic.name}",
        steiner_nodes=used,
    ).validate(host=graph)
    if record_trace:
        result.trace = trace  # type: ignore[attr-defined]
    return result


def ikmb(
    graph: Graph,
    net: Net,
    cache: Optional[ShortestPathCache] = None,
    **kwargs,
) -> RoutingTree:
    """IKMB = IGMST template with H = KMB (bound ≤ 2·(1 − 1/L) × optimal)."""
    return igmst(graph, net, heuristic=KMB_HEURISTIC, cache=cache, **kwargs)


def izel(
    graph: Graph,
    net: Net,
    cache: Optional[ShortestPathCache] = None,
    **kwargs,
) -> RoutingTree:
    """IZEL = IGMST template with H = ZEL (bound ≤ 11/6 × optimal)."""
    return igmst(graph, net, heuristic=ZEL_HEURISTIC, cache=cache, **kwargs)
