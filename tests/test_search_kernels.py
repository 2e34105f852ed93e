"""Goal-directed search kernels: A*, bidirectional Dijkstra, heuristics.

Covers the exactness contract of the package's search kernels — the
CSR kernels behind ``Graph.freeze()`` return the distances of the
dict-adjacency reference Dijkstra (``tests/reference_kernels.py``) —
the admissibility machinery
(lattice coordinates, Manhattan scale, ALT landmarks), the
:class:`SearchPolicy` configuration surface, and the two satellite
guarantees around it: the :class:`ShortestPathCache` never serves a
goal-directed run where a plain-Dijkstra result is expected, and
:class:`DijkstraBudget` overruns name the kernel that was active.
"""

from __future__ import annotations

import random

import pytest

from repro.engine.checkpoint import config_fingerprint
from repro.errors import EngineTimeoutError, GraphError
from repro.graph import (
    DijkstraCounters,
    DijkstraBudget,
    Graph,
    LandmarkIndex,
    SearchPolicy,
    SEARCH_BACKENDS,
    ShortestPathCache,
    dijkstra,
    grid_graph,
    lattice_coordinate,
    lattice_scale,
    manhattan_heuristic,
    path_cost,
    random_connected_graph,
    reconstruct_path,
    set_dijkstra_budget,
    set_dijkstra_counters,
)
from repro.router import RouterConfig

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


def astar(graph, source, target, heuristic, cutoff=None):
    """The package's A*: the CSR kernel on ``graph.freeze()``."""
    return graph.freeze().astar(source, target, heuristic, cutoff=cutoff)


def bidirectional_dijkstra(graph, source, target):
    """The package's two-frontier search on ``graph.freeze()``."""
    return graph.freeze().bidirectional(source, target)


def multi_target_dijkstra(graph, source, targets):
    """The package's early-exit Dijkstra."""
    return dijkstra(graph, source, targets=targets)


class TestAstar:
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

    def test_cutoff_limits_settled_set(self, medium_grid):
        h = manhattan_heuristic(medium_grid, (9, 9))
        dist, _ = astar(medium_grid, (0, 0), (9, 9), h, cutoff=4.0)
        assert (9, 9) not in dist
        assert all(d <= 4.0 for d in dist.values())

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


class TestBidirectionalDijkstra:
    def test_exact_on_grid(self, medium_grid):
        full, _ = reference_dijkstra(medium_grid, (0, 0))
        d, path = bidirectional_dijkstra(medium_grid, (0, 0), (9, 9))
        assert d == full[(9, 9)]
        assert path[0] == (0, 0) and path[-1] == (9, 9)
        assert path_cost(medium_grid, path) == d

    @pytest.mark.parametrize("seed", [1, 2, 3, 4])
    def test_exact_on_random_graphs(self, seed):
        rnd = random.Random(seed)
        g = random_connected_graph(40, 90, rnd)
        nodes = sorted(g.nodes, key=repr)
        src, dst = nodes[0], nodes[-1]
        full, _ = reference_dijkstra(g, src)
        d, path = bidirectional_dijkstra(g, src, dst)
        assert d == pytest.approx(full[dst], abs=0.0)
        assert path_cost(g, path) == pytest.approx(d)

    def test_disconnected_returns_inf(self):
        g = Graph()
        g.add_edge("a", "b", 1.0)
        g.add_edge("x", "y", 1.0)
        d, path = bidirectional_dijkstra(g, "a", "y")
        assert d == float("inf")
        assert path is None

    def test_trivial_query(self, path_graph):
        assert bidirectional_dijkstra(path_graph, "b", "b") == (0.0, ["b"])

    def test_missing_endpoints_raise(self, path_graph):
        with pytest.raises(GraphError):
            bidirectional_dijkstra(path_graph, "zz", "a")
        with pytest.raises(GraphError):
            bidirectional_dijkstra(path_graph, "a", "zz")

    def test_expands_less_than_full_run(self):
        g = grid_graph(14, 14)
        counters = DijkstraCounters()
        set_dijkstra_counters(counters)
        dijkstra(g, (0, 0))
        full_pops = counters.heap_pops
        counters.reset()
        bidirectional_dijkstra(g, (0, 0), (3, 3))
        assert counters.heap_pops < full_pops


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

    def test_alt_on_random_graph(self):
        rnd = random.Random(11)
        g = random_connected_graph(30, 60, rnd)
        idx = LandmarkIndex(g, k=4)
        target = sorted(g.nodes, key=repr)[-1]
        h = idx.heuristic(target)
        assert_admissible_and_consistent(g, target, h)


class TestLandmarkIndex:
    def test_deterministic_selection(self, small_grid):
        a = LandmarkIndex(small_grid, k=3)
        b = LandmarkIndex(grid_graph(6, 6), k=3)
        assert a.landmarks == b.landmarks
        assert a.landmarks[0] == sorted(small_grid.nodes, key=repr)[0]

    def test_k_capped_at_node_count(self, path_graph):
        idx = LandmarkIndex(path_graph, k=100)
        assert len(idx.landmarks) == path_graph.num_nodes

    def test_k_must_be_positive(self, path_graph):
        with pytest.raises(GraphError):
            LandmarkIndex(path_graph, k=0)

    def test_freshness_tracks_version(self, small_grid):
        idx = LandmarkIndex(small_grid, k=2)
        assert idx.fresh(small_grid)
        small_grid.set_weight((0, 0), (1, 0), 2.0)
        assert not idx.fresh(small_grid)
        assert not idx.fresh(grid_graph(6, 6))

    def test_disconnected_graph_stays_admissible(self):
        g = Graph()
        for u, v in zip("abc", "bcd"):
            g.add_edge(u, v, 1.0)
        g.add_edge("x", "y", 1.0)
        idx = LandmarkIndex(g, k=3)
        h = idx.heuristic("d")
        # nodes in the other component get bound 0, never inf/negative
        assert h("x") == 0.0
        assert_admissible_and_consistent(g, "d", h)

    def test_alt_astar_is_exact(self):
        rnd = random.Random(23)
        g = random_connected_graph(35, 80, rnd)
        idx = LandmarkIndex(g, k=3)
        nodes = sorted(g.nodes, key=repr)
        full, _ = reference_dijkstra(g, nodes[0])
        dist, _ = astar(g, nodes[0], nodes[-1], idx.heuristic(nodes[-1]))
        assert dist[nodes[-1]] == full[nodes[-1]]


class TestSearchPolicy:
    def test_backend_vocabulary(self):
        assert set(SEARCH_BACKENDS) == {"dijkstra", "astar", "bidir", "auto"}
        with pytest.raises(GraphError):
            SearchPolicy("bfs")

    def test_validation(self):
        with pytest.raises(GraphError):
            SearchPolicy("auto", heuristic_scale=0.0)
        with pytest.raises(GraphError):
            SearchPolicy("auto", landmarks=-1)

    def test_for_architecture_scale(self):
        from repro.fpga import xc3000

        arch = xc3000(3, 3, 4)
        policy = SearchPolicy.for_architecture("astar", arch)
        assert policy.heuristic_scale == min(
            arch.segment_weight, arch.pin_weight
        )

    def test_key_distinguishes_configurations(self):
        keys = {
            SearchPolicy("astar").key(),
            SearchPolicy("bidir").key(),
            SearchPolicy("astar", heuristic_scale=0.5).key(),
            SearchPolicy("astar", landmarks=2).key(),
        }
        assert len(keys) == 4

    @pytest.mark.parametrize("backend", SEARCH_BACKENDS)
    def test_pair_distance_exact_on_grid(self, medium_grid, backend):
        policy = SearchPolicy(backend)
        full, _ = reference_dijkstra(medium_grid, (0, 0))
        assert policy.pair_distance(medium_grid, (0, 0), (9, 9)) == full[
            (9, 9)
        ]

    @pytest.mark.parametrize("backend", SEARCH_BACKENDS)
    def test_pair_distance_exact_on_general_graph(self, backend):
        # no lattice coordinates: astar/auto must fall back to bidir
        rnd = random.Random(5)
        g = random_connected_graph(30, 55, rnd)
        nodes = sorted(g.nodes, key=repr)
        policy = SearchPolicy(backend)
        full, _ = reference_dijkstra(g, nodes[0])
        assert policy.pair_distance(g, nodes[0], nodes[-1]) == full[nodes[-1]]

    def test_pair_distance_disconnected(self):
        g = Graph()
        g.add_edge("a", "b", 1.0)
        g.add_edge("x", "y", 1.0)
        for backend in SEARCH_BACKENDS:
            assert SearchPolicy(backend).pair_distance(g, "a", "x") == float(
                "inf"
            )

    def test_derived_scale_tracks_graph_version(self, small_grid):
        policy = SearchPolicy("astar")
        assert policy.heuristic_for(small_grid, (5, 5)) is not None
        # a sub-unit edge tightens the derived scale
        small_grid.set_weight((0, 0), (1, 0), 0.25)
        h = policy.heuristic_for(small_grid, (5, 5))
        assert h((0, 0)) == 0.25 * 10

    def test_landmark_fallback_on_general_graph(self):
        rnd = random.Random(3)
        g = random_connected_graph(25, 50, rnd)
        policy = SearchPolicy("astar", landmarks=2)
        nodes = sorted(g.nodes, key=repr)
        h = policy.heuristic_for(g, nodes[-1])
        assert h is not None and h.key[0] == "alt"
        full, _ = reference_dijkstra(g, nodes[0])
        assert policy.pair_distance(g, nodes[0], nodes[-1]) == full[nodes[-1]]


class TestCacheKernelIsolation:
    """Satellite: a goal-directed run must never masquerade as plain
    Dijkstra data — not as a full SSSP, not as a plain partial run."""

    def test_pair_query_never_creates_full_entry(self, medium_grid):
        cache = ShortestPathCache(medium_grid, search=SearchPolicy("astar"))
        cache.dist((0, 0), (9, 9))
        stats = cache.stats()
        assert stats["entries"] == 0
        assert stats["pair_entries"] == 1

    def test_full_query_after_kernel_run_is_complete(self, medium_grid):
        cache = ShortestPathCache(medium_grid, search=SearchPolicy("astar"))
        cache.dist((0, 0), (9, 9))
        dist, _ = cache.sssp((0, 0))
        # the A* run settled a subset; the full query must not see it
        assert len(dist) == medium_grid.num_nodes

    def test_pair_store_is_symmetric_hit(self, medium_grid):
        cache = ShortestPathCache(medium_grid, search=SearchPolicy("bidir"))
        d1 = cache.dist((0, 0), (9, 9))
        misses = cache.misses
        d2 = cache.dist((9, 9), (0, 0))
        assert d1 == d2
        assert cache.misses == misses  # reverse query hits the pair store

    def test_limited_run_never_answers_full_query(self, medium_grid):
        cache = ShortestPathCache(medium_grid, search=SearchPolicy("auto"))
        cache.sssp_limited((0, 0), targets=[(1, 0)])
        assert cache.stats()["partial_entries"] == 1
        dist, _ = cache.sssp((0, 0))
        assert len(dist) == medium_grid.num_nodes

    def test_settled_partial_answers_pair_query(self, medium_grid):
        cache = ShortestPathCache(medium_grid, search=SearchPolicy("astar"))
        cache.sssp_limited((0, 0), targets=[(5, 5)])
        misses = cache.misses
        full, _ = reference_dijkstra(medium_grid, (0, 0))
        assert cache.dist((0, 0), (5, 5)) == full[(5, 5)]
        assert cache.misses == misses  # served from the settled prefix

    def test_promotion_after_repeated_misses(self, medium_grid):
        cache = ShortestPathCache(medium_grid, search=SearchPolicy("astar"))
        others = [(x, 9) for x in range(ShortestPathCache.PAIR_PROMOTE)]
        for t in others:
            cache.dist((0, 0), t)
        # the hot endpoint got promoted to a real full SSSP
        assert (0, 0) in cache.cached_sources()
        full, _ = reference_dijkstra(medium_grid, (0, 0))
        assert len(cache.sssp((0, 0))[0]) == len(full)

    def test_version_bump_drops_pair_store(self, medium_grid):
        cache = ShortestPathCache(medium_grid, search=SearchPolicy("bidir"))
        cache.dist((0, 0), (9, 9))
        medium_grid.set_weight((0, 0), (1, 0), 3.0)
        assert cache.stats()["pair_entries"] == 1  # not yet observed
        full, _ = reference_dijkstra(medium_grid, (0, 0))
        assert cache.dist((0, 0), (9, 9)) == full[(9, 9)]
        assert cache.invalidations == 1


class TestCanonicalPaths:
    """path() must return one fixed node sequence regardless of the
    backend and of what the cache happened to compute earlier."""

    def reference_path(self, graph, u, v):
        _, pred = reference_dijkstra(graph, u, targets=[v])
        return reconstruct_path(pred, u, v)

    @pytest.mark.parametrize("backend", SEARCH_BACKENDS)
    def test_path_matches_source_rooted_reference(self, backend):
        g = grid_graph(7, 7)
        cache = ShortestPathCache(g, search=SearchPolicy(backend))
        assert cache.path((0, 0), (6, 6)) == self.reference_path(
            g, (0, 0), (6, 6)
        )

    @pytest.mark.parametrize("backend", SEARCH_BACKENDS)
    def test_path_independent_of_cache_history(self, backend):
        g = grid_graph(7, 7)
        cold = ShortestPathCache(g, search=SearchPolicy(backend))
        warmed = ShortestPathCache(g, search=SearchPolicy(backend))
        warmed.dist((6, 6), (0, 0))
        warmed.sssp_limited((0, 0), targets=[(3, 3)])
        assert cold.path((0, 0), (6, 6)) == warmed.path((0, 0), (6, 6))

    def test_full_store_still_preferred(self, small_grid):
        cache = ShortestPathCache(small_grid, search=SearchPolicy("auto"))
        cache.warm([(0, 0)])
        hits = cache.hits
        path = cache.path((0, 0), (5, 5))
        assert cache.hits == hits + 1
        assert path == self.reference_path(small_grid, (0, 0), (5, 5))


class TestBudgetsAcrossKernels:
    """Satellite: budgets fire under every kernel, at the same
    relaxation count or earlier, and the partial stats say which
    kernel was interrupted."""

    def run_kernel(self, backend, graph, source, target):
        if backend == "astar":
            astar(graph, source, target, manhattan_heuristic(graph, target))
        elif backend == "bidir":
            bidirectional_dijkstra(graph, source, target)
        else:
            dijkstra(graph, source, targets=[target])

    @pytest.mark.parametrize("backend", ["dijkstra", "astar", "bidir"])
    def test_relaxation_budget_names_backend(self, backend):
        g = grid_graph(12, 12)
        set_dijkstra_budget(DijkstraBudget(max_relaxations=20))
        with pytest.raises(EngineTimeoutError) as exc:
            self.run_kernel(backend, g, (0, 0), (11, 11))
        assert exc.value.kind == "relaxations"
        assert exc.value.partial["backend"] == backend
        assert exc.value.partial["relaxations"] > 20

    @pytest.mark.parametrize("backend", ["dijkstra", "astar", "bidir"])
    def test_deadline_budget_names_backend(self, backend):
        g = grid_graph(12, 12)
        set_dijkstra_budget(DijkstraBudget(deadline=-1.0))
        with pytest.raises(EngineTimeoutError) as exc:
            self.run_kernel(backend, g, (0, 0), (11, 11))
        assert exc.value.kind == "net"
        assert exc.value.partial["backend"] == backend

    @pytest.mark.parametrize("backend", ["astar", "bidir"])
    def test_kernels_relax_no_more_than_plain(self, backend):
        """A budget sized for the plain kernel can only trip earlier
        under goal direction: the kernels do at most as many
        relaxations for the same single-target query."""
        g = grid_graph(12, 12)
        counters = DijkstraCounters()
        set_dijkstra_counters(counters)
        dijkstra(g, (0, 0), targets=[(11, 0)])
        plain = counters.snapshot()["relaxations"]
        counters.reset()
        self.run_kernel(backend, g, (0, 0), (11, 0))
        assert counters.snapshot()["relaxations"] <= plain

    def test_budget_trips_at_same_count_under_zero_heuristic(self):
        """With h = 0 the A* run is operation-identical to early-exit
        Dijkstra, so a budget boundary trips at the exact same point."""
        g = grid_graph(10, 10)
        set_dijkstra_budget(DijkstraBudget(max_relaxations=30))
        with pytest.raises(EngineTimeoutError) as d_exc:
            dijkstra(g, (0, 0), targets=[(9, 9)])
        with pytest.raises(EngineTimeoutError) as a_exc:
            astar(g, (0, 0), (9, 9), zero_heuristic)
        assert (
            d_exc.value.partial["relaxations"]
            == a_exc.value.partial["relaxations"]
        )
        assert (
            d_exc.value.partial["heap_pops"]
            == a_exc.value.partial["heap_pops"]
        )


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

    def test_bidir_records_both_frontiers(self, medium_grid):
        counters = DijkstraCounters()
        set_dijkstra_counters(counters)
        bidirectional_dijkstra(medium_grid, (0, 0), (9, 9))
        snap = counters.snapshot()
        assert snap["calls"] == 1
        assert snap["heap_pops"] > 0 and snap["pruned"] > 0


class TestConfigSurface:
    def test_router_config_validates_backend(self):
        for backend in SEARCH_BACKENDS:
            assert RouterConfig(search=backend).search == backend
        from repro.errors import RoutingError

        with pytest.raises(RoutingError):
            RouterConfig(search="bfs")

    def test_default_is_auto(self):
        assert RouterConfig().search == "auto"

    def test_checkpoints_interchangeable_across_backends(self):
        """`search` is deliberately absent from the checkpoint config
        fingerprint: every backend routes identically, so a checkpoint
        written under one backend must resume under any other."""
        prints = {
            backend: config_fingerprint(RouterConfig(search=backend))
            for backend in SEARCH_BACKENDS
        }
        first = prints["dijkstra"]
        assert all(p == first for p in prints.values())
