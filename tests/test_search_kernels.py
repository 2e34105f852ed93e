"""Search kernels: negotiated A*, early-exit Dijkstra, the Manhattan bound.

Covers the exactness contract of the package's search kernels — the
CSR kernels behind ``Graph.freeze()`` return the distances of the
dict-adjacency reference Dijkstra (``tests/reference_kernels.py``) —
the admissibility machinery (lattice coordinates, Manhattan scale),
the :class:`SearchPolicy` configuration surface, and the guarantees
around them: the :class:`ShortestPathCache` never serves a partial run
where a full SSSP is expected, its two path rules, and
:class:`DijkstraBudget` overruns naming the kernel that was active.

A* survives only inside PathFinder's negotiated search
(:func:`~repro.graph.flat.flat_negotiated_search`).  Under unit
factors its negotiated cost is the base edge weight exactly, so the A*
cases below run that kernel against plain Dijkstra.
"""

from __future__ import annotations

import random

import pytest

from repro.engine.checkpoint import config_fingerprint
from repro.engine.worker import (
    ROUTED,
    NetTask,
    materialize_graph,
    run_net_task,
)
from repro.errors import EngineTimeoutError, GraphError, RoutingError
from repro.graph import (
    DijkstraCounters,
    DijkstraBudget,
    Graph,
    SearchPolicy,
    SEARCH_BACKENDS,
    ShortestPathCache,
    dijkstra,
    grid_graph,
    lattice_coordinate,
    lattice_scale,
    manhattan_heuristic,
    random_connected_graph,
    reconstruct_path,
    set_dijkstra_budget,
    set_dijkstra_counters,
)
from repro.graph.flat import flat_negotiated_search
from repro.net import Net
from repro.router import RouterConfig
from repro.router.negotiation import FrozenFactorProvider
from repro.service import config_from_dict

from .reference_kernels import dijkstra as reference_dijkstra


@pytest.fixture(autouse=True)
def _clean_globals():
    """No budget/counters leakage between tests."""
    prev_b = set_dijkstra_budget(None)
    prev_c = set_dijkstra_counters(None)
    yield
    set_dijkstra_budget(prev_b)
    set_dijkstra_counters(prev_c)


def zero_heuristic(_node):
    return 0.0


#: every negotiated factor 1: the negotiated cost of an edge is then its
#: base weight, bit for bit
UNIT_FACTORS = FrozenFactorProvider({})


def astar(graph, source, target, heuristic):
    """The package's A*: the negotiated kernel under unit factors."""
    flat = graph.freeze().flat
    return flat_negotiated_search(
        flat, [source], target, UNIT_FACTORS.factor_table(flat),
        heuristic=heuristic,
    )


def multi_target_dijkstra(graph, source, targets):
    """The package's early-exit Dijkstra."""
    return dijkstra(graph, source, targets=targets)


class TestAstar:
    """Negotiated A* under unit factors against plain Dijkstra."""

    def test_exact_on_grid_with_manhattan(self, medium_grid):
        target = (9, 9)
        h = manhattan_heuristic(medium_grid, target)
        assert h is not None
        full, _ = reference_dijkstra(medium_grid, (0, 0))
        dist, _ = astar(medium_grid, (0, 0), target, h)
        assert dist[target] == full[target]

    def test_zero_heuristic_matches_early_exit_dijkstra(self, medium_grid):
        """With h = 0, A* degenerates to early-exit Dijkstra exactly
        (same pushes in the same order), so even the settled prefix and
        predecessors coincide."""
        target = (7, 4)
        d_ref, p_ref = reference_dijkstra(
            medium_grid, (0, 0), targets=[target]
        )
        d_ast, p_ast = astar(medium_grid, (0, 0), target, zero_heuristic)
        assert d_ast == d_ref
        assert p_ast == p_ref

    def test_exact_on_random_weighted_grid(self):
        rnd = random.Random(7)
        g = grid_graph(8, 8)
        for u, v, _ in list(g.edges()):
            g.set_weight(u, v, 1.0 + rnd.random())
        # weights >= 1 per unit move, so scale 1.0 stays admissible
        h = manhattan_heuristic(g, (7, 7), scale=1.0)
        full, _ = reference_dijkstra(g, (0, 0))
        dist, _ = astar(g, (0, 0), (7, 7), h)
        assert dist[(7, 7)] == full[(7, 7)]

    def test_settles_fewer_nodes_than_full_run(self, medium_grid):
        h = manhattan_heuristic(medium_grid, (9, 0))
        full, _ = reference_dijkstra(medium_grid, (0, 0))
        dist, _ = astar(medium_grid, (0, 0), (9, 0), h)
        assert len(dist) < len(full)

    def test_infinite_heuristic_prunes(self, path_graph):
        # h = inf everywhere except the source: nothing can be relaxed
        def h(node):
            return 0.0 if node == "a" else float("inf")

        dist, pred = astar(path_graph, "a", "e", h)
        assert dist == {"a": 0.0}
        assert pred == {}

    def test_missing_endpoints_raise(self, path_graph):
        with pytest.raises(GraphError):
            astar(path_graph, "zz", "a", zero_heuristic)
        with pytest.raises(GraphError):
            astar(path_graph, "a", "zz", zero_heuristic)

    def test_source_equals_target(self, path_graph):
        dist, _ = astar(path_graph, "c", "c", zero_heuristic)
        assert dist["c"] == 0.0


class TestMultiTargetDijkstra:
    def test_settles_all_targets_with_full_run_values(self, medium_grid):
        targets = [(9, 9), (0, 9), (5, 5)]
        full, full_pred = reference_dijkstra(medium_grid, (0, 0))
        dist, pred = multi_target_dijkstra(medium_grid, (0, 0), targets)
        for t in targets:
            assert dist[t] == full[t]
            # the settled prefix is bit-identical, path included
            assert reconstruct_path(pred, (0, 0), t) == reconstruct_path(
                full_pred, (0, 0), t
            )

    def test_stops_early(self, medium_grid):
        dist, _ = multi_target_dijkstra(medium_grid, (0, 0), [(1, 1)])
        assert len(dist) < medium_grid.num_nodes


class TestLatticeGeometry:
    def test_coordinate_vocabulary(self):
        assert lattice_coordinate(("J", 3, 4, "N", 2)) == (3.0, 4.0)
        assert lattice_coordinate(("P", 3, 4, 1)) == (3.5, 4.5)
        assert lattice_coordinate((2, 5)) == (2.0, 5.0)
        assert lattice_coordinate("a") is None
        assert lattice_coordinate((True, False)) is None
        assert lattice_coordinate(("J", "x", 4, "N", 2)) is None
        assert lattice_coordinate((1, 2, 3)) is None

    def test_scale_of_unit_grid(self, small_grid):
        assert lattice_scale(small_grid) == 1.0

    def test_scale_is_min_ratio(self):
        g = grid_graph(3, 3, weight=2.0)
        g.set_weight((0, 0), (1, 0), 0.5)
        assert lattice_scale(g) == 0.5

    def test_scale_rejects_non_lattice_nodes(self):
        g = Graph()
        g.add_edge("a", "b", 1.0)
        assert lattice_scale(g) is None

    def test_scale_rejects_long_edges(self):
        g = Graph()
        g.add_edge((0, 0), (2, 0), 1.0)
        assert lattice_scale(g) is None

    def test_zero_displacement_edges_ignored(self):
        # switch-style edge between co-located junctions must not
        # drag the scale to zero
        g = Graph()
        g.add_edge(("J", 0, 0, "E", 0), ("J", 0, 0, "S", 0), 0.1)
        g.add_edge(("J", 0, 0, "E", 0), ("J", 1, 0, "E", 0), 1.0)
        assert lattice_scale(g) == 1.0

    def test_manhattan_requires_target_coordinate(self, small_grid):
        assert manhattan_heuristic(small_grid, "not-a-node") is None

    def test_manhattan_heuristic_values(self, small_grid):
        h = manhattan_heuristic(small_grid, (5, 5))
        assert h((0, 0)) == 10.0
        assert h((5, 5)) == 0.0


def assert_admissible_and_consistent(graph, target, h):
    # undirected: d(v, t) == d(t, v)
    ref, _ = reference_dijkstra(graph, target)
    for v in graph.nodes:
        assert h(v) <= ref.get(v, float("inf")) + 1e-9
    for u, v, w in graph.edges():
        assert h(u) <= w + h(v) + 1e-9
        assert h(v) <= w + h(u) + 1e-9


class TestHeuristicSoundness:
    def test_manhattan_on_routing_graph(self):
        from repro.fpga import build_routing_graph, xc3000

        arch = xc3000(3, 3, 4)
        rrg = build_routing_graph(arch)
        scale = min(arch.segment_weight, arch.pin_weight)
        target = next(n for n in rrg.graph.nodes if n[0] == "J")
        h = manhattan_heuristic(rrg.graph, target, scale=scale)
        assert_admissible_and_consistent(rrg.graph, target, h)


class TestSearchPolicy:
    def test_backend_vocabulary(self):
        assert SEARCH_BACKENDS == ("astar", "dijkstra")
        for retired in ("bfs", "auto", "bidir"):
            with pytest.raises(GraphError):
                SearchPolicy(retired)

    def test_validation(self):
        with pytest.raises(GraphError):
            SearchPolicy("astar", heuristic_scale=0.0)
        with pytest.raises(TypeError):
            SearchPolicy("astar", landmarks=2)

    def test_for_architecture_scale(self):
        from repro.fpga import xc3000

        arch = xc3000(3, 3, 4)
        policy = SearchPolicy.for_architecture("astar", arch)
        assert policy.heuristic_scale == min(
            arch.segment_weight, arch.pin_weight
        )

    def test_astar_without_lattice_runs_the_plain_kernel(self):
        # no lattice coordinates, no bound: both backends run the same
        # plain search, event for event
        rnd = random.Random(5)
        g = random_connected_graph(30, 55, rnd)
        nodes = sorted(g.nodes, key=repr)
        flat = g.freeze().flat
        runs = [
            SearchPolicy(backend).negotiated_search(
                flat, [nodes[0]], nodes[-1], UNIT_FACTORS
            )
            for backend in SEARCH_BACKENDS
        ]
        assert runs[0] == runs[1]
        full, _ = reference_dijkstra(g, nodes[0])
        assert runs[0][0][nodes[-1]] == full[nodes[-1]]


class TestCacheKernelIsolation:
    """A partial run must never masquerade as a full SSSP."""

    def test_full_query_after_kernel_run_is_complete(self, medium_grid):
        cache = ShortestPathCache(medium_grid, source_rooted=True)
        cache.dist((0, 0), (9, 9))
        cache.path((5, 5), (9, 9))
        dist, _ = cache.sssp((0, 0))
        assert len(dist) == medium_grid.num_nodes
        dist, _ = cache.sssp((5, 5))
        # the early-exit path run settled a subset; the full query
        # must not see it
        assert len(dist) == medium_grid.num_nodes

    def test_limited_run_never_answers_full_query(self, medium_grid):
        cache = ShortestPathCache(medium_grid, source_rooted=True)
        cache.path((0, 0), (1, 0))
        assert cache.stats()["partial_entries"] == 1
        dist, _ = cache.sssp((0, 0))
        assert len(dist) == medium_grid.num_nodes


class TestCanonicalPaths:
    """A source-rooted cache's path() returns one fixed node sequence
    regardless of the ``search`` a request names and of what the cache
    happened to compute earlier; the default rule reverses the target's
    tree path."""

    #: every ``search`` value a stored request may carry; the service's
    #: loader maps the retired "auto" and "bidir" onto the live two
    REQUEST_SEARCH = ["astar", "auto", "bidir", "dijkstra"]

    def reference_path(self, graph, u, v):
        _, pred = reference_dijkstra(graph, u, targets=[v])
        return reconstruct_path(pred, u, v)

    def worker_path(self, search):
        """Route a two-pin net across a 7x7 grid as a paper-mode net
        task under ``search``; the task's graph and reported path."""
        task = NetTask(
            name="n0",
            net=Net(("pin", 0), [("pin", 1)], name="n0"),
            algo="djka",
            config=config_from_dict({"search": search}),
            flat=grid_graph(7, 7).freeze().flat,
            pin_taps={
                ("pin", 0): (((0, 0), 1.0),),
                ("pin", 1): (((6, 6), 1.0),),
            },
        )
        payload = run_net_task(task)
        assert payload["status"] == ROUTED
        return materialize_graph(task), payload["paths"][("pin", 1)]

    @pytest.mark.parametrize("backend", REQUEST_SEARCH)
    def test_path_matches_source_rooted_reference(self, backend):
        graph, path = self.worker_path(backend)
        assert path == self.reference_path(graph, ("pin", 0), ("pin", 1))

    @pytest.mark.parametrize("backend", REQUEST_SEARCH)
    def test_path_independent_of_cache_history(self, backend):
        # the task routed on a fresh cache; a shared one has history
        graph, cold = self.worker_path(backend)
        warmed = ShortestPathCache(graph, source_rooted=True)
        warmed.dist(("pin", 1), ("pin", 0))
        warmed.path(("pin", 0), (3, 3))
        assert warmed.path(("pin", 0), ("pin", 1)) == cold

    def test_default_rule_reverses_the_target_tree(self):
        g = grid_graph(7, 7)
        cache = ShortestPathCache(g)
        expected = self.reference_path(g, (6, 6), (0, 0))
        expected.reverse()
        assert cache.path((0, 0), (6, 6)) == expected
        # the rule roots a full tree at the target, nothing at the source
        assert cache.cached_sources() == [(6, 6)]
        assert cache.stats()["partial_entries"] == 0

    def test_full_store_still_preferred(self, small_grid):
        cache = ShortestPathCache(small_grid, source_rooted=True)
        cache.warm([(0, 0)])
        hits = cache.hits
        path = cache.path((0, 0), (5, 5))
        assert cache.hits == hits + 1
        assert path == self.reference_path(small_grid, (0, 0), (5, 5))


class TestBudgetsAcrossKernels:
    """Budgets fire under both kernels, goal direction trips them no
    later, and the partial stats say which kernel was interrupted."""

    def run_kernel(self, backend, graph, source, target):
        if backend == "dijkstra":
            dijkstra(graph, source, targets=[target])
        else:  # negotiated A*
            astar(graph, source, target, manhattan_heuristic(graph, target))

    @pytest.mark.parametrize("backend", ["dijkstra", "negotiate"])
    def test_relaxation_budget_names_backend(self, backend):
        g = grid_graph(12, 12)
        set_dijkstra_budget(DijkstraBudget(max_relaxations=20))
        with pytest.raises(EngineTimeoutError) as exc:
            self.run_kernel(backend, g, (0, 0), (11, 11))
        assert exc.value.kind == "relaxations"
        assert exc.value.partial["backend"] == backend
        assert exc.value.partial["relaxations"] > 20

    @pytest.mark.parametrize("backend", ["dijkstra", "negotiate"])
    def test_deadline_budget_names_backend(self, backend):
        g = grid_graph(12, 12)
        set_dijkstra_budget(DijkstraBudget(deadline=-1.0))
        with pytest.raises(EngineTimeoutError) as exc:
            self.run_kernel(backend, g, (0, 0), (11, 11))
        assert exc.value.kind == "net"
        assert exc.value.partial["backend"] == backend

    @pytest.mark.parametrize("backend", ["astar"])
    def test_kernels_relax_no_more_than_plain(self, backend):
        """A budget sized for the plain kernel can only trip earlier
        under goal direction: A* does at most as many relaxations for
        the same single-target query."""
        g = grid_graph(12, 12)
        counters = DijkstraCounters()
        set_dijkstra_counters(counters)
        dijkstra(g, (0, 0), targets=[(11, 0)])
        plain = counters.snapshot()["relaxations"]
        counters.reset()
        self.run_kernel(backend, g, (0, 0), (11, 0))
        assert counters.snapshot()["relaxations"] <= plain


class TestPrunedCounter:
    def test_full_run_on_path_prunes_nothing(self, path_graph):
        counters = DijkstraCounters()
        set_dijkstra_counters(counters)
        dijkstra(path_graph, "a")
        assert counters.pruned == 0

    def test_early_exit_prunes_frontier(self, medium_grid):
        counters = DijkstraCounters()
        set_dijkstra_counters(counters)
        dijkstra(medium_grid, (0, 0), targets=[(1, 1)])
        assert counters.pruned > 0

    def test_goal_direction_prunes_frontier(self, medium_grid):
        counters = DijkstraCounters()
        set_dijkstra_counters(counters)
        h = manhattan_heuristic(medium_grid, (5, 5))
        astar(medium_grid, (0, 0), (5, 5), h)
        snap = counters.snapshot()
        assert snap["pruned"] > 0
        assert snap["calls"] == 1

class TestConfigSurface:
    def test_router_config_validates_backend(self):
        for backend in SEARCH_BACKENDS:
            assert RouterConfig(search=backend).search == backend
        for retired in ("bfs", "auto", "bidir"):
            with pytest.raises(RoutingError):
                RouterConfig(search=retired)

    def test_default_is_astar(self):
        assert RouterConfig().search == "astar"

    def test_checkpoints_interchangeable_across_backends(self):
        """`search` is deliberately absent from the checkpoint config
        fingerprint: a checkpoint written under one backend resumes
        under the other (``docs/pathfinder.md``)."""
        prints = {
            backend: config_fingerprint(RouterConfig(search=backend))
            for backend in SEARCH_BACKENDS
        }
        first = prints["dijkstra"]
        assert all(p == first for p in prints.values())
