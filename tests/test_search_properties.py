"""Property-based guarantees for the goal-directed search kernels.

Two families of properties:

* **Exactness** — every kernel of the package (A* under Manhattan or
  ALT bounds, bidirectional Dijkstra, early-exit Dijkstra, all on the
  CSR view) reports the distance of the dict-adjacency reference
  Dijkstra (``tests/reference_kernels.py``) for arbitrary random graphs
  and endpoint pairs.
* **Heuristic soundness** — the Manhattan and landmark bounds are
  admissible (``h(v) ≤ d(v, t)``) and consistent
  (``h(u) ≤ w(u, v) + h(v)``), which is the precondition the exactness
  contract rests on.

Runs under `hypothesis` when it is installed; otherwise the same
property checks execute over a vendored corpus of seeds, so the suite
needs no extra dependency to stay meaningful.
"""

from __future__ import annotations

import random

import pytest

from repro.graph import (
    LandmarkIndex,
    SEARCH_BACKENDS,
    SearchPolicy,
    dijkstra,
    grid_graph,
    lattice_scale,
    manhattan_heuristic,
    path_cost,
    random_connected_graph,
    reconstruct_path,
)

from .reference_kernels import dijkstra as reference_dijkstra

try:
    from hypothesis import given, settings, strategies as st

    HAVE_HYPOTHESIS = True
except ImportError:  # pragma: no cover - exercised on minimal installs
    HAVE_HYPOTHESIS = False

def astar(graph, source, target, heuristic):
    """The package's A*: the CSR kernel on ``graph.freeze()``."""
    return graph.freeze().astar(source, target, heuristic)


def bidirectional_dijkstra(graph, source, target):
    """The package's two-frontier search on ``graph.freeze()``."""
    return graph.freeze().bidirectional(source, target)


def multi_target_dijkstra(graph, source, targets):
    """The package's early-exit Dijkstra."""
    return dijkstra(graph, source, targets=targets)


#: vendored fallback corpus: (seed, nodes, extra edges)
SEED_CASES = [
    (0, 8, 4),
    (1, 12, 10),
    (2, 16, 20),
    (3, 20, 15),
    (4, 25, 30),
    (5, 30, 45),
    (6, 18, 6),
    (7, 40, 60),
    (8, 10, 25),
    (9, 22, 11),
]


def property_case(func):
    """Run ``func(seed, n, extra)`` under hypothesis or the corpus."""
    if HAVE_HYPOTHESIS:
        return settings(max_examples=30, deadline=None)(
            given(
                seed=st.integers(min_value=0, max_value=2**20),
                n=st.integers(min_value=2, max_value=40),
                extra=st.integers(min_value=0, max_value=60),
            )(func)
        )
    return pytest.mark.parametrize("seed,n,extra", SEED_CASES)(func)


def make_graph(seed, n, extra):
    rnd = random.Random(seed)
    g = random_connected_graph(n, min(n - 1 + extra, n * (n - 1) // 2), rnd)
    nodes = sorted(g.nodes, key=repr)
    rnd2 = random.Random(seed + 1)
    u = rnd2.choice(nodes)
    v = rnd2.choice(nodes)
    return g, u, v


def make_weighted_grid(seed, n, extra):
    side = 2 + (n % 7)
    rnd = random.Random(seed)
    g = grid_graph(side, side)
    for a, b, _ in list(g.edges()):
        g.set_weight(a, b, 0.25 + 2.0 * rnd.random())
    nodes = sorted(g.nodes)
    rnd2 = random.Random(seed + extra)
    return g, rnd2.choice(nodes), rnd2.choice(nodes)


@property_case
def test_bidirectional_distance_matches_dijkstra(seed, n, extra):
    g, u, v = make_graph(seed, n, extra)
    ref, _ = reference_dijkstra(g, u)
    d, path = bidirectional_dijkstra(g, u, v)
    # exact up to the last ulp: the two searches may settle on distinct
    # equal-cost shortest paths whose float sums differ by one rounding
    assert d == pytest.approx(ref.get(v, float("inf")), rel=1e-12)
    if path is not None:
        assert path[0] == u and path[-1] == v
        # the reported distance IS the forward-order sum along the path
        assert path_cost(g, path) == d


@property_case
def test_alt_astar_distance_matches_dijkstra(seed, n, extra):
    g, u, v = make_graph(seed, n, extra)
    idx = LandmarkIndex(g, k=min(3, g.num_nodes))
    ref, _ = reference_dijkstra(g, u)
    dist, _ = astar(g, u, v, idx.heuristic(v))
    assert dist.get(v, float("inf")) == ref.get(v, float("inf"))


@property_case
def test_manhattan_astar_distance_matches_dijkstra(seed, n, extra):
    g, u, v = make_weighted_grid(seed, n, extra)
    h = manhattan_heuristic(g, v)
    assert h is not None  # weighted unit grids always admit a bound
    ref, _ = reference_dijkstra(g, u)
    dist, _ = astar(g, u, v, h)
    assert dist.get(v, float("inf")) == ref[v]


@property_case
def test_early_exit_prefix_is_bit_identical(seed, n, extra):
    g, u, v = make_graph(seed, n, extra)
    full_dist, full_pred = reference_dijkstra(g, u)
    dist, pred = multi_target_dijkstra(g, u, [v])
    # every settled node carries the full run's distance AND pred
    for node, d in dist.items():
        assert d == full_dist[node]
        if node != u:
            assert pred[node] == full_pred[node]
    if v in full_dist:
        assert reconstruct_path(pred, u, v) == reconstruct_path(
            full_pred, u, v
        )


@property_case
def test_policy_backends_agree(seed, n, extra):
    g, u, v = make_graph(seed, n, extra)
    ref, _ = reference_dijkstra(g, u)
    expected = ref.get(v, float("inf"))
    for backend in SEARCH_BACKENDS:
        got = SearchPolicy(backend).pair_distance(g, u, v)
        # general graphs have no lattice bound, so astar/auto/bidir all
        # route through the bidirectional kernel — last-ulp tolerance
        # for ties, as above
        assert got == pytest.approx(expected, rel=1e-12)


@property_case
def test_manhattan_heuristic_admissible_and_consistent(seed, n, extra):
    g, u, v = make_weighted_grid(seed, n, extra)
    scale = lattice_scale(g)
    assert scale is not None and scale > 0
    h = manhattan_heuristic(g, v, scale=scale)
    ref, _ = reference_dijkstra(g, v)  # undirected: d(x, v) == d(v, x)
    for node in g.nodes:
        assert h(node) <= ref.get(node, float("inf")) + 1e-9
    for a, b, w in g.edges():
        assert h(a) <= w + h(b) + 1e-9
        assert h(b) <= w + h(a) + 1e-9


@property_case
def test_landmark_heuristic_admissible_and_consistent(seed, n, extra):
    g, u, v = make_graph(seed, n, extra)
    idx = LandmarkIndex(g, k=min(4, g.num_nodes))
    h = idx.heuristic(v)
    ref, _ = reference_dijkstra(g, v)
    for node in g.nodes:
        assert h(node) <= ref.get(node, float("inf")) + 1e-9
    for a, b, w in g.edges():
        assert h(a) <= w + h(b) + 1e-9
        assert h(b) <= w + h(a) + 1e-9


@property_case
def test_trusted_scale_survives_weight_increase(seed, n, extra):
    """Congestion only multiplies weights up, so a scale bound derived
    once stays admissible after weights grow — the invariant the router
    relies on when it passes the architecture scale to the policy."""
    g, u, v = make_weighted_grid(seed, n, extra)
    scale = lattice_scale(g)
    rnd = random.Random(seed + 2)
    for a, b, w in list(g.edges()):
        g.set_weight(a, b, w * (1.0 + rnd.random()))
    h = manhattan_heuristic(g, v, scale=scale)
    ref, _ = reference_dijkstra(g, v)
    for node in g.nodes:
        assert h(node) <= ref.get(node, float("inf")) + 1e-9
    dist, _ = astar(g, u, v, h)
    full, _ = reference_dijkstra(g, u)
    assert dist.get(v, float("inf")) == full[v]
