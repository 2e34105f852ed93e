"""MaxDom's bounded backward walk against the forward-scan oracle.

:meth:`repro.arborescence.DominanceOracle.maxdom` tests only the nodes
that can win: it walks the source SSSP's settlement order backwards from
the last node within ``min(dp, dq)`` plus tolerance and stops below the
best distance found.  This suite checks that it returns exactly the node
and distance of the forward scan over V (``tests/reference_kernels.py``)
for every pair of a random node set that includes the source.

The graphs mix the weights under which ties and the 1e-9 tolerance
matter: integers, floats, zero-weight edges, sub-tolerance edges and
near-ties (an integer plus a sub-tolerance offset), and congestion-factor
products ``base · (1 + alpha · utilization)`` as the router writes them.

Runs under `hypothesis` when it is installed; otherwise the same
property checks execute over a vendored corpus of seeds.
"""

from __future__ import annotations

import random
from itertools import product

import pytest

from repro.arborescence import DominanceOracle
from repro.graph import grid_graph, random_connected_graph

from .reference_kernels import maxdom_forward_scan

try:
    from hypothesis import given, settings, strategies as st

    HAVE_HYPOTHESIS = True
except ImportError:  # pragma: no cover - exercised on minimal installs
    HAVE_HYPOTHESIS = False

#: vendored fallback corpus: (seed, nodes, extra edges)
SEED_CASES = [
    (0, 6, 3),
    (1, 10, 12),
    (2, 14, 25),
    (3, 18, 10),
    (4, 24, 40),
    (5, 30, 30),
    (6, 9, 20),
    (7, 36, 60),
    (8, 12, 4),
    (9, 20, 35),
    (10, 27, 15),
    (11, 16, 50),
]


def property_case(func):
    """Run ``func(seed, n, extra)`` under hypothesis or the corpus."""
    if HAVE_HYPOTHESIS:
        return settings(max_examples=60, deadline=None)(
            given(
                seed=st.integers(min_value=0, max_value=2**20),
                n=st.integers(min_value=2, max_value=36),
                extra=st.integers(min_value=0, max_value=60),
            )(func)
        )
    return pytest.mark.parametrize("seed,n,extra", SEED_CASES)(func)


def weight(rnd: random.Random) -> float:
    """One edge weight drawn from the tie- and tolerance-prone kinds."""
    kind = rnd.randrange(6)
    if kind == 0:
        return float(rnd.randint(1, 3))
    if kind == 1:
        return rnd.uniform(0.1, 3.0)
    if kind == 2:
        return 0.0
    if kind == 3:
        return rnd.choice((1e-12, 3e-10, 8e-10))
    if kind == 4:
        return rnd.randint(1, 3) + rnd.choice((-1, 1)) * rnd.choice(
            (1e-12, 4e-10)
        )
    # the paper-mode congestion model: base · (1 + 2 · used/W), W = 5
    return rnd.choice((1.0, 0.5)) * (1.0 + 2.0 * rnd.randint(0, 5) / 5)


def make_case(seed, n, extra):
    """A connected graph, a source, and the nodes to pair up."""
    rnd = random.Random(seed)
    if rnd.random() < 0.25:
        side = 2 + n % 5
        g = grid_graph(side, side + 1)
    else:
        m = min(n - 1 + extra, n * (n - 1) // 2)
        g = random_connected_graph(n, m, rnd)
    for u, v, _ in list(g.edges()):
        g.set_weight(u, v, weight(rnd))
    nodes = sorted(g.nodes, key=repr)
    source = rnd.choice(nodes)
    picked = rnd.sample(nodes, min(len(nodes), 9))
    return g, source, sorted(set(picked) | {source}, key=repr)


@property_case
def test_maxdom_equals_forward_scan(seed, n, extra):
    g, source, nodes = make_case(seed, n, extra)
    oracle = DominanceOracle(g, source)
    for p, q in product(nodes, repeat=2):
        got = oracle.maxdom(p, q)
        assert got == maxdom_forward_scan(oracle, p, q), (p, q)


@property_case
def test_maxdom_after_reweighting(seed, n, extra):
    """The oracle's settled lists follow the cache across a mutation."""
    g, source, nodes = make_case(seed, n, extra)
    oracle = DominanceOracle(g, source)
    p, q = nodes[0], nodes[-1]
    oracle.maxdom(p, q)
    rnd = random.Random(seed + 1)
    for u, v, _ in list(g.edges())[::2]:
        g.set_weight(u, v, weight(rnd))
    for p, q in product(nodes, repeat=2):
        assert oracle.maxdom(p, q) == maxdom_forward_scan(oracle, p, q)
