"""Single-source shortest paths (Dijkstra) and a per-source memo cache.

Every algorithm in the paper is built on shortest paths: KMB and ZEL use
the metric closure over the net, the dominance relation of Section 4 is
*defined* through ``minpath`` values, and DJKA is literally a pruned
Dijkstra tree.  The paper stresses (Sections 3 and 4) that the iterated
constructions only become practical once shortest-path computations are
"factored out" and shared; :class:`ShortestPathCache` is that shared
store, keyed by ``(source, graph.version)`` so any graph mutation
transparently invalidates stale entries.

Instrumentation.  The routing engine (:mod:`repro.engine`) accounts for
every Dijkstra run: install a :class:`DijkstraCounters` with
:func:`set_dijkstra_counters` and each call records its heap pops and
edge relaxations there.  The cache keeps its own hit/miss/invalidation
tallies (:meth:`ShortestPathCache.stats`).

Partial runs.  A source-rooted cache answers
:meth:`ShortestPathCache.path` with an early-exit run that stops at the
target, so that run's ``dist`` map is *not* a valid single-source
result: a node absent from it may still be reachable.  The cache keeps
such runs in a separate partial store that only later ``path`` queries
consult, and never lets them satisfy a full lookup; the reverse
direction — answering a path query from a cached *full* run — is
always sound and is tried first.
"""

from __future__ import annotations

import threading
import time
from typing import Dict, Hashable, Iterable, List, Optional, Tuple

from ..errors import DisconnectedError, EngineTimeoutError
from .core import Graph

Node = Hashable
INF = float("inf")

#: cache entry: (dist, pred) of one Dijkstra run
Entry = Tuple[Dict[Node, float], Dict[Node, Node]]


class DijkstraCounters:
    """Aggregated operation counts across Dijkstra runs.

    ``calls`` is the number of search-kernel invocations (plain or
    negotiated), ``heap_pops`` counts every pop (including stale
    entries), ``relaxations`` counts successful edge relaxations (heap
    pushes), and ``pruned`` counts heap entries a kernel abandoned
    unpopped at termination — the direct measure of how much frontier
    an early exit or goal-directed bound cut off.
    ``record`` takes one lock per *call*, not per operation, so
    multi-threaded engine workers can share a single instance.
    """

    __slots__ = ("calls", "heap_pops", "relaxations", "pruned", "_lock")

    def __init__(self) -> None:
        self.calls = 0
        self.heap_pops = 0
        self.relaxations = 0
        self.pruned = 0
        self._lock = threading.Lock()

    def record(
        self, heap_pops: int, relaxations: int, pruned: int = 0
    ) -> None:
        with self._lock:
            self.calls += 1
            self.heap_pops += heap_pops
            self.relaxations += relaxations
            self.pruned += pruned

    def merge(self, snapshot: Dict[str, int]) -> None:
        """Fold a worker's :meth:`snapshot` into this instance."""
        with self._lock:
            self.calls += snapshot.get("calls", 0)
            self.heap_pops += snapshot.get("heap_pops", 0)
            self.relaxations += snapshot.get("relaxations", 0)
            self.pruned += snapshot.get("pruned", 0)

    def snapshot(self) -> Dict[str, int]:
        with self._lock:
            return {
                "calls": self.calls,
                "heap_pops": self.heap_pops,
                "relaxations": self.relaxations,
                "pruned": self.pruned,
            }

    def reset(self) -> None:
        with self._lock:
            self.calls = 0
            self.heap_pops = 0
            self.relaxations = 0
            self.pruned = 0

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"DijkstraCounters(calls={self.calls}, "
            f"heap_pops={self.heap_pops}, "
            f"relaxations={self.relaxations}, pruned={self.pruned})"
        )


class DijkstraBudget:
    """Cooperative abort bound for Dijkstra runs.

    The engine installs one of these (via :func:`set_dijkstra_budget`)
    around each net's routing when ``RouterConfig.route_timeout_s`` or
    ``max_relaxations`` is configured.  The search checks the budget on
    every heap pop: a relaxation overrun fires exactly; the wall-clock
    deadline is polled every 64 pops (plus once at the first pop), so a
    hung search is interrupted within a bounded amount of extra work
    instead of stalling the pass forever.
    """

    __slots__ = ("max_relaxations", "deadline")

    def __init__(
        self,
        max_relaxations: Optional[int] = None,
        deadline: Optional[float] = None,
    ) -> None:
        self.max_relaxations = max_relaxations
        self.deadline = deadline

    def check(
        self,
        heap_pops: int,
        relaxations: int,
        backend: str = "dijkstra",
    ) -> None:
        """Raise :class:`EngineTimeoutError` when the budget is blown.

        ``backend`` names the search kernel doing the work
        ("dijkstra" or "negotiate"); it is carried in the error's
        ``partial`` stats so timeout reports identify which kernel was
        active.
        """
        if (
            self.max_relaxations is not None
            and relaxations > self.max_relaxations
        ):
            raise EngineTimeoutError(
                f"Dijkstra relaxation budget exhausted "
                f"({relaxations} > {self.max_relaxations})",
                kind="relaxations",
                budget=self.max_relaxations,
                elapsed=relaxations,
                partial={
                    "backend": backend,
                    "heap_pops": heap_pops,
                    "relaxations": relaxations,
                },
            )
        if self.deadline is not None and heap_pops % 64 == 1:
            now = time.perf_counter()
            if now > self.deadline:
                raise EngineTimeoutError(
                    "per-net routing deadline exceeded mid-search",
                    kind="net",
                    elapsed=now - self.deadline,
                    partial={
                        "backend": backend,
                        "heap_pops": heap_pops,
                        "relaxations": relaxations,
                    },
                )


#: the currently-installed budget (None = unbounded, zero overhead)
_BUDGET: Optional[DijkstraBudget] = None


def set_dijkstra_budget(
    budget: Optional[DijkstraBudget],
) -> Optional[DijkstraBudget]:
    """Install ``budget`` as the global Dijkstra execution bound.

    Returns the previously installed budget so callers can restore it
    (the engine brackets each net's routing this way).  ``None``
    removes any bound.
    """
    global _BUDGET
    previous = _BUDGET
    _BUDGET = budget
    return previous


def get_dijkstra_budget() -> Optional[DijkstraBudget]:
    """The currently-installed :class:`DijkstraBudget`, if any."""
    return _BUDGET


#: the currently-installed counters (None = no accounting overhead)
_COUNTERS: Optional[DijkstraCounters] = None


def set_dijkstra_counters(
    counters: Optional[DijkstraCounters],
) -> Optional[DijkstraCounters]:
    """Install ``counters`` as the global Dijkstra accounting sink.

    Returns the previously installed instance so callers can restore it
    (the engine does this around each :class:`RoutingSession` run).
    Passing ``None`` disables accounting.
    """
    global _COUNTERS
    previous = _COUNTERS
    _COUNTERS = counters
    return previous


def get_dijkstra_counters() -> Optional[DijkstraCounters]:
    """The currently-installed :class:`DijkstraCounters`, if any."""
    return _COUNTERS


def dijkstra(
    graph: Graph,
    source: Node,
    targets: Optional[Iterable[Node]] = None,
    cutoff: Optional[float] = None,
) -> Tuple[Dict[Node, float], Dict[Node, Node]]:
    """Run Dijkstra's algorithm [16] from ``source``.

    Parameters
    ----------
    graph:
        The weighted graph.
    source:
        Start node.
    targets:
        If given, the search stops as soon as every target has been
        settled (early exit) — the router uses this when it only needs
        pin-to-pin distances on a large routing graph.
    cutoff:
        If given, nodes farther than ``cutoff`` are not settled.  Used by
        neighborhood-restricted Steiner candidate generation.

    Returns
    -------
    (dist, pred):
        ``dist[v]`` is the shortest-path cost from ``source`` to each
        settled node ``v``; ``pred[v]`` is v's predecessor on one such
        shortest path (``pred[source]`` is absent).

    Notes
    -----
    The search runs the CSR kernel
    (:func:`~repro.graph.flat.flat_dijkstra`) on ``graph.freeze()``,
    which is memoized per graph version.  Ties between equal-cost paths
    are broken by heap insertion order, which is deterministic given a
    deterministic graph construction order; all generators in
    :mod:`repro.graph.generators` are seeded.
    """
    return graph.freeze().sssp(source, targets=targets, cutoff=cutoff)


def reconstruct_path(
    pred: Dict[Node, Node], source: Node, target: Node
) -> List[Node]:
    """Rebuild the node sequence ``source .. target`` from a pred map."""
    if target == source:
        return [source]
    if target not in pred:
        raise DisconnectedError(source, target)
    path = [target]
    node = target
    while node != source:
        node = pred[node]
        path.append(node)
    path.reverse()
    return path


def shortest_path(
    graph: Graph, source: Node, target: Node
) -> Tuple[List[Node], float]:
    """Convenience wrapper: one shortest path and its cost."""
    dist, pred = dijkstra(graph, source, targets=[target])
    if target not in dist:
        raise DisconnectedError(source, target)
    return reconstruct_path(pred, source, target), dist[target]


def path_cost(graph: Graph, path: List[Node]) -> float:
    """Total weight of consecutive edges along ``path``."""
    return sum(graph.weight(u, v) for u, v in zip(path, path[1:]))


class ShortestPathCache:
    """Memoized single-source shortest-path trees for one graph.

    The cache stores, per source node, the full ``(dist, pred)`` result of
    an untruncated Dijkstra run over the graph's frozen CSR view
    (:meth:`Graph.freeze`).  Entries are invalidated automatically
    when :attr:`Graph.version` changes, so the router can mutate the graph
    between nets and keep using the same cache object.

    This is the concrete realization of the paper's complexity reductions:
    IGMST evaluates ``ΔH`` for every candidate node, and IDOM calls DOM
    ``O(|V|·|N|)`` times — both become tractable once those calls share
    shortest-path work.  :meth:`dist` answers from a stored tree of
    either endpoint and otherwise roots a full SSSP at the queried
    source, so a closure's later lookups reuse terminal-rooted trees;
    IGMST also warms every member of N ∪ S before a large ΔH round.

    The early-exit runs of a source-rooted :meth:`path` are
    second-class citizens: they live in a separate partial store that
    only later :meth:`path` queries consult, and can never answer a
    full query.

    Path rules.  A path not covered by a stored tree of its source
    comes from one of two rules, fixed at construction:

    * ``source_rooted=True`` — the router's caches.  The path is
      reconstructed from a (possibly early-exit) plain Dijkstra run
      rooted at the query's source.  An early-exit run's settled prefix
      is bit-identical to the full run, so the node sequence is
      independent of what happens to be cached.
    * ``source_rooted=False`` (default) — every other caller.  The path
      is the reverse of the target's full SSSP tree path.  It stays
      because the paper's experiments run on unit-weight grids full of
      equal-cost ties: rooting these paths at the source changes
      committed outputs (Table 1's low- and medium-congestion rows,
      Figure 13's IDOM trace).

    Accounting: ``hits``/``misses`` count lookups answered from /
    absent from the store; ``invalidations`` counts version-change (or
    :meth:`rebind`) events that actually dropped entries, and
    ``entries_invalidated`` the total number of entries dropped.
    """

    def __init__(self, graph: Graph, *, source_rooted: bool = False):
        self._graph = graph
        self._store: Dict[Node, Entry] = {}
        #: early-exit runs of path(), keyed (source, target)
        self._partial_store: Dict[Tuple[Node, Node], Entry] = {}
        #: partial keys per source, for coverage lookups
        self._partial_index: Dict[Node, List[Tuple[Node, Node]]] = {}
        self._source_rooted = source_rooted
        self._version = graph.version
        self.hits = 0
        self.misses = 0
        self.invalidations = 0
        self.entries_invalidated = 0

    @property
    def graph(self) -> Graph:
        return self._graph

    def _drop_all(self) -> int:
        dropped = len(self._store) + len(self._partial_store)
        self._store.clear()
        self._partial_store.clear()
        self._partial_index.clear()
        return dropped

    def _check_version(self) -> None:
        if self._graph.version != self._version:
            dropped = self._drop_all()
            if dropped:
                self.invalidations += 1
                self.entries_invalidated += dropped
            self._version = self._graph.version

    def rebind(self, graph: Graph) -> None:
        """Point the cache at a replacement graph, dropping all entries.

        The engine calls this when the routing-resource graph is rebuilt
        between passes (:meth:`RoutingResourceGraph.reset` swaps in a
        fresh :class:`Graph` object, so version comparison alone cannot
        detect the change).
        """
        dropped = self._drop_all()
        if dropped:
            self.invalidations += 1
            self.entries_invalidated += dropped
        self._graph = graph
        self._version = graph.version

    def stats(self) -> Dict[str, int]:
        """Hit/miss/invalidation counters as a plain dict."""
        return {
            "hits": self.hits,
            "misses": self.misses,
            "invalidations": self.invalidations,
            "entries_invalidated": self.entries_invalidated,
            "entries": len(self._store),
            "partial_entries": len(self._partial_store),
        }

    def _plain_run(
        self, source: Node, targets: Optional[Iterable[Node]] = None
    ) -> Entry:
        """One canonical (possibly early-exit) run on the frozen graph."""
        return self._graph.freeze().sssp(source, targets=targets)

    def sssp(self, source: Node) -> Entry:
        """Full shortest-path tree from ``source`` (memoized).

        Only complete, untruncated runs are stored under the plain
        ``source`` key — a partial entry for the same source (from
        :meth:`path`) is never promoted to answer this query.
        """
        self._check_version()
        entry = self._store.get(source)
        if entry is None:
            self.misses += 1
            entry = self._plain_run(source)
            self._store[source] = entry
        else:
            self.hits += 1
        return entry

    def _partial_covering(
        self, source: Node, target: Node
    ) -> Optional[Entry]:
        """A partial run from ``source`` that settled ``target``, if one
        is stored.

        A node *present* in a limited run's ``dist`` map was settled,
        so its distance and predecessor chain are bit-identical to the
        full run's (absence still proves nothing).
        """
        for key in self._partial_index.get(source, ()):
            entry = self._partial_store.get(key)
            if entry is not None and target in entry[0]:
                return entry
        return None

    def dist(self, source: Node, target: Node) -> float:
        """``minpath_G(source, target)``; INF if unreachable.

        Answered from whichever endpoint is already cached (the graph is
        undirected so ``d(u,v) == d(v,u)``), preferring ``source``; a
        miss roots a full SSSP at ``source``.
        """
        self._check_version()
        entry = self._store.get(source)
        if entry is not None:
            self.hits += 1
            return entry[0].get(target, INF)
        entry = self._store.get(target)
        if entry is not None:
            self.hits += 1
            return entry[0].get(source, INF)
        return self.sssp(source)[0].get(target, INF)

    def path(self, source: Node, target: Node) -> List[Node]:
        """One shortest path ``source .. target`` as a node list.

        A stored tree of ``source`` answers first.  Otherwise the
        cache's path rule applies (see the class docstring): a
        source-rooted cache reconstructs from a covering partial run or
        a fresh early-exit run from ``source``, so the node sequence is
        independent of cache history; the default rule reverses the
        path of ``target``'s full tree.
        """
        self._check_version()
        full = self._store.get(source)
        if full is not None:
            self.hits += 1
            dist, pred = full
            if target not in dist:
                raise DisconnectedError(source, target)
            return reconstruct_path(pred, source, target)
        if not self._source_rooted:
            dist, pred = self.sssp(target)
            if source not in dist:
                raise DisconnectedError(source, target)
            path = reconstruct_path(pred, target, source)
            path.reverse()
            return path
        entry = self._partial_covering(source, target)
        if entry is None:
            self.misses += 1
            entry = self._plain_run(source, targets=[target])
            key = (source, target)
            self._partial_store[key] = entry
            self._partial_index.setdefault(source, []).append(key)
        else:
            self.hits += 1
        dist, pred = entry
        if target not in dist:
            raise DisconnectedError(source, target)
        return reconstruct_path(pred, source, target)

    def warm(self, sources: Iterable[Node]) -> None:
        """Pre-compute SSSPs from every node in ``sources``."""
        for s in sources:
            self.sssp(s)

    def cached_sources(self) -> List[Node]:
        self._check_version()
        return list(self._store)

    def __len__(self) -> int:
        self._check_version()
        return len(self._store)
