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

Partial runs.  ``targets``/``cutoff``-limited searches settle only a
subset of the graph, so their ``dist`` maps are *not* valid single-source
results: a node absent from a partial map may still be reachable.  The
cache therefore stores limited runs under a distinct key that includes
the limits (:meth:`ShortestPathCache.sssp_limited`) and never lets them
satisfy full-query lookups; the reverse direction — answering a limited
query from a cached *full* run — is always sound and is done eagerly.
"""

from __future__ import annotations

import threading
import time
from typing import Dict, Hashable, Iterable, List, Optional, Tuple

from ..errors import DisconnectedError, EngineTimeoutError
from .core import Graph, edge_key

Node = Hashable
INF = float("inf")

#: cache entry: (dist, pred) of one Dijkstra run
Entry = Tuple[Dict[Node, float], Dict[Node, Node]]


class DijkstraCounters:
    """Aggregated operation counts across Dijkstra runs.

    ``calls`` is the number of search-kernel invocations (plain
    Dijkstra, A*, or bidirectional), ``heap_pops`` counts every pop
    (including stale entries), ``relaxations`` counts successful edge
    relaxations (heap pushes), and ``pruned`` counts heap entries a
    kernel abandoned unpopped at termination — the direct measure of
    how much frontier an early exit or goal-directed bound cut off.
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

        ``backend`` names the search kernel doing the work ("dijkstra",
        "astar", "bidir"); it is carried in the error's ``partial``
        stats so timeout reports identify which kernel was active.
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
    shortest-path work.  Without a search policy (or under the plain
    ``"dijkstra"`` backend) a closure lookup roots a full SSSP at the
    queried terminal, so later calls reuse terminal-rooted trees.  Under
    a goal-directed policy (the router's default ``"auto"``) a closure
    lookup is a pair search until its endpoint is promoted after
    ``PAIR_PROMOTE`` misses; IGMST therefore calls :meth:`warm` on
    every member of N ∪ S at the start of each large ΔH round rather
    than paying for the misses first.

    Limited runs (``targets``/``cutoff``) are second-class citizens: they
    live in a separate store keyed by their limits and can never answer a
    full query (see :meth:`sssp_limited`).

    Search policies.  Constructed with a
    :class:`~repro.graph.search.SearchPolicy`, the cache answers
    point-to-point queries with goal-directed kernels instead of full
    SSSPs:

    * :meth:`dist` consults a pair-distance store and computes misses
      with the policy's kernel (A*/bidirectional).  Pair values are
      exact, hence backend-independent — but kernel ``(dist, pred)``
      maps are *never* stored where plain-Dijkstra results live:
      A*/bidirectional results are reduced to bare floats.  An
      endpoint that keeps missing (``PAIR_PROMOTE`` kernel computes)
      is promoted to a full SSSP so closure-style workloads never do
      worse than the plain backend.
    * :meth:`path` becomes *canonically source-rooted*: the path is
      always reconstructed from a (possibly early-exit) plain Dijkstra
      run rooted at the query's source, independent of what happens to
      be cached.  An early-exit run's settled prefix is bit-identical
      to the full run, so every search backend returns the identical
      node sequence — this is what makes ``RouterConfig.search``
      results indistinguishable across backends.

    Without a policy the cache behaves exactly as it always has (plain
    kernels, full-SSSP fallbacks).

    Accounting: ``hits``/``misses`` count lookups answered from /
    absent from the store; ``invalidations`` counts version-change (or
    :meth:`rebind`) events that actually dropped entries, and
    ``entries_invalidated`` the total number of entries dropped.
    """

    #: pair-query misses per endpoint before promoting it to a full SSSP
    #: (IGMST warms a ΔH round's members up front at this many candidates)
    PAIR_PROMOTE = 8

    def __init__(self, graph: Graph, search=None):
        self._graph = graph
        self._store: Dict[Node, Entry] = {}
        #: limited plain runs, keyed (source, frozenset(targets)|None,
        #: cutoff); goal-directed runs are reduced to bare floats and
        #: never stored here
        self._partial_store: Dict[Tuple, Entry] = {}
        #: partial keys per source, for coverage lookups
        self._partial_index: Dict[Node, List[Tuple]] = {}
        #: exact point-to-point distances, keyed (policy key, edge key)
        self._pair_store: Dict[Tuple, float] = {}
        #: kernel computes per endpoint (drives full-SSSP promotion)
        self._pair_misses: Dict[Node, int] = {}
        self._search = search
        self._version = graph.version
        self.hits = 0
        self.misses = 0
        self.invalidations = 0
        self.entries_invalidated = 0

    @property
    def search(self):
        """The attached :class:`SearchPolicy` (None = plain behaviour)."""
        return self._search

    @property
    def graph(self) -> Graph:
        return self._graph

    def _drop_all(self) -> int:
        dropped = (
            len(self._store)
            + len(self._partial_store)
            + len(self._pair_store)
        )
        self._store.clear()
        self._partial_store.clear()
        self._partial_index.clear()
        self._pair_store.clear()
        self._pair_misses.clear()
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
            "pair_entries": len(self._pair_store),
        }

    def reset_stats(self) -> None:
        self.hits = 0
        self.misses = 0
        self.invalidations = 0
        self.entries_invalidated = 0

    def _plain_run(
        self,
        source: Node,
        targets: Optional[Iterable[Node]] = None,
        cutoff: Optional[float] = None,
    ) -> Entry:
        """One canonical (possibly limited) run on the frozen graph."""
        return self._graph.freeze().sssp(
            source, targets=targets, cutoff=cutoff
        )

    def sssp(self, source: Node) -> Entry:
        """Full shortest-path tree from ``source`` (memoized).

        Only complete, untruncated runs are stored under the plain
        ``source`` key — a partial entry for the same source (from
        :meth:`sssp_limited`) is never promoted to answer this query.
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

    @staticmethod
    def _partial_key(
        source: Node,
        targets: Optional[Iterable[Node]],
        cutoff: Optional[float],
    ) -> Tuple:
        targets_key = None if targets is None else frozenset(targets)
        return (source, targets_key, cutoff)

    def _index_partial(self, source: Node, key: Tuple) -> None:
        """Register a partial entry for coverage lookups."""
        self._partial_index.setdefault(source, []).append(key)

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

    def sssp_limited(
        self,
        source: Node,
        targets: Optional[Iterable[Node]] = None,
        cutoff: Optional[float] = None,
    ) -> Entry:
        """A ``targets``/``cutoff``-limited run, memoized under its limits.

        A cached *full* run for ``source`` answers any limited query (a
        complete ``dist`` map dominates every truncation of itself), but
        a limited result is stored only under its ``(source, targets,
        cutoff)`` key: its ``dist`` map is incomplete, and letting it
        satisfy a later full query would silently report reachable nodes
        as unreachable.
        """
        if targets is None and cutoff is None:
            return self.sssp(source)
        self._check_version()
        full = self._store.get(source)
        if full is not None:
            self.hits += 1
            return full
        key = self._partial_key(source, targets, cutoff)
        entry = self._partial_store.get(key)
        if entry is None:
            self.misses += 1
            entry = self._plain_run(source, targets=targets, cutoff=cutoff)
            self._partial_store[key] = entry
            self._index_partial(source, key)
        else:
            self.hits += 1
        return entry

    def dist(self, source: Node, target: Node) -> float:
        """``minpath_G(source, target)``; INF if unreachable.

        Answered from whichever endpoint is already cached (the graph is
        undirected so ``d(u,v) == d(v,u)``), preferring ``source``.
        Without a search policy (or under the plain backend) a miss
        falls back to a full SSSP from ``source`` — the historical
        behaviour.  With a goal-directed policy, a miss consults the
        pair-distance store and settled partial runs before running the
        policy's kernel; all of these yield the exact distance, so the
        answer is independent of the backend.
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
        policy = self._search
        if policy is None or policy.backend == "dijkstra":
            return self.sssp(source)[0].get(target, INF)
        pair_key = (policy.key(), edge_key(source, target))
        d = self._pair_store.get(pair_key)
        if d is not None:
            self.hits += 1
            return d
        entry = self._partial_covering(source, target)
        if entry is not None:
            self.hits += 1
            d = entry[0][target]
            self._pair_store[pair_key] = d
            return d
        entry = self._partial_covering(target, source)
        if entry is not None:
            self.hits += 1
            d = entry[0][source]
            self._pair_store[pair_key] = d
            return d
        # an endpoint that keeps triggering kernel runs is cheaper to
        # warm once: promote it to a full (plain) SSSP, after which the
        # whole closure around it answers from the store
        nu = self._pair_misses.get(source, 0) + 1
        self._pair_misses[source] = nu
        nv = self._pair_misses.get(target, 0) + 1
        self._pair_misses[target] = nv
        if nu >= self.PAIR_PROMOTE:
            d = self.sssp(source)[0].get(target, INF)
        elif nv >= self.PAIR_PROMOTE:
            d = self.sssp(target)[0].get(source, INF)
        else:
            self.misses += 1
            d = policy.pair_distance(self._graph, source, target)
        self._pair_store[pair_key] = d
        return d

    def path(self, source: Node, target: Node) -> List[Node]:
        """One shortest path ``source .. target`` as a node list.

        With a search policy attached the result is *canonical*: always
        reconstructed from a source-rooted plain-Dijkstra run (cached
        full tree, covering partial run, or a fresh early-exit run), so
        the node sequence is the same under every search backend and
        independent of cache history.  Without a policy, the historical
        fallback reconstructs from a target-rooted full run instead.
        """
        self._check_version()
        full = self._store.get(source)
        if full is not None:
            self.hits += 1
            dist, pred = full
            if target not in dist:
                raise DisconnectedError(source, target)
            return reconstruct_path(pred, source, target)
        if self._search is None:
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
            key = self._partial_key(source, [target], None)
            self._partial_store[key] = entry
            self._index_partial(source, key)
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
