"""Property-based guarantees for the search kernels.

Two families of properties:

* **Exactness** — every kernel of the package (negotiated A* under the
  Manhattan bound, either negotiated backend, early-exit Dijkstra, all
  on the CSR view) reports the distance of the dict-adjacency reference
  Dijkstra (``tests/reference_kernels.py``) for arbitrary random graphs
  and endpoint pairs.  Negotiated searches run under unit factors, which
  make the negotiated cost the base edge weight exactly.
* **Heuristic soundness** — the Manhattan bound is admissible
  (``h(v) ≤ d(v, t)``) and consistent (``h(u) ≤ w(u, v) + h(v)``),
  which is the precondition the exactness contract rests on.

Runs under `hypothesis` when it is installed; otherwise the same
property checks execute over a vendored corpus of seeds, so the suite
needs no extra dependency to stay meaningful.
"""

from __future__ import annotations

import random

import pytest

from repro.graph import (
    SEARCH_BACKENDS,
    SearchPolicy,
    dijkstra,
    grid_graph,
    lattice_scale,
    manhattan_heuristic,
    random_connected_graph,
    reconstruct_path,
)
from repro.graph.flat import flat_negotiated_search
from repro.router.negotiation import FrozenFactorProvider

from .reference_kernels import dijkstra as reference_dijkstra

try:
    from hypothesis import given, settings, strategies as st

    HAVE_HYPOTHESIS = True
except ImportError:  # pragma: no cover - exercised on minimal installs
    HAVE_HYPOTHESIS = False

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
    for make in (make_graph, make_weighted_grid):
        g, u, v = make(seed, n, extra)
        ref, _ = reference_dijkstra(g, u)
        flat = g.freeze().flat
        for backend in SEARCH_BACKENDS:
            dist, _ = SearchPolicy(backend).negotiated_search(
                flat, [u], v, UNIT_FACTORS
            )
            assert dist.get(v, float("inf")) == ref[v]


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
