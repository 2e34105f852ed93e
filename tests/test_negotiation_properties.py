"""Property tests for the PathFinder negotiation invariants.

Four contracts the differential suite cannot pin with goldens because
they must hold over *every* input, not just the fixture circuits:

* history costs are monotone non-decreasing, iteration over iteration;
* slack ratios live in ``[0, 1]`` and the critical-path sink sits at
  exactly ``1.0``;
* negotiated node factors are ≥ 1, so negotiated edge weights are
  strictly positive and never below base cost, and the incrementally
  patched dense factor table always equals ``node_factor`` per id;
* a congestion-free circuit converges in exactly one iteration with a
  checker-valid Steiner tree per net.

Runs under hypothesis when available; otherwise every property is
exercised over a vendored seed list through the exact same code path
(each property is a pure function of one integer seed).
"""

from __future__ import annotations

import random

import pytest

from repro.engine import RoutingSession
from repro.fpga import CircuitSpec, synthesize_circuit, xc3000
from repro.graph import Graph
from repro.net import Net
from repro.router import RouterConfig
from repro.router.negotiation import FrozenFactorProvider, NegotiationState
from repro.router.timing import SlackTable
from repro.validate import verify_result

try:  # pragma: no cover - exercised implicitly by which path runs
    from hypothesis import HealthCheck, given, settings
    from hypothesis import strategies as st

    HAVE_HYPOTHESIS = True
except ImportError:  # pragma: no cover
    HAVE_HYPOTHESIS = False

#: fallback seeds when hypothesis is unavailable — chosen once, fixed
VENDORED_SEEDS = (0, 1, 2, 7, 11, 23, 57, 123, 999, 4242)


def seeded(func):
    """Run ``func(seed)`` under hypothesis or over the vendored seeds."""
    if HAVE_HYPOTHESIS:
        return settings(
            max_examples=25,
            deadline=None,
            suppress_health_check=[HealthCheck.function_scoped_fixture],
        )(given(st.integers(min_value=0, max_value=2**16))(func))
    return pytest.mark.parametrize("seed", VENDORED_SEEDS)(func)


def junction(rng):
    return ("J", rng.randrange(8), rng.randrange(8),
            rng.randrange(4), rng.randrange(4))


def random_state(rng, iterations=None, on_step=None):
    """A NegotiationState taken through a random usage history.

    ``on_step(state)`` runs after every add, remove, ``begin_iteration``
    and ``update_history``.
    """
    cfg = RouterConfig(
        mode="negotiate",
        negotiate_present_factor=rng.choice([0.1, 0.5, 2.0]),
        negotiate_growth=rng.choice([1.0, 1.3, 2.0]),
        negotiate_history_gain=rng.choice([0.1, 0.4, 1.5]),
    )
    state = NegotiationState(cfg)
    step = on_step or (lambda _state: None)
    pool = [junction(rng) for _ in range(rng.randrange(2, 10))]
    snapshots = []
    for i in range(1, (iterations or rng.randrange(2, 6)) + 1):
        state.begin_iteration(i)
        step(state)
        for name in list(state.trees):
            if rng.random() < 0.75:
                state.remove_tree(name)
                step(state)
        for n in range(rng.randrange(1, 6)):
            if f"net{n}" in state.trees:
                continue
            k = rng.randrange(1, min(4, len(pool)) + 1)
            nodes = rng.sample(pool, k)
            edges = [
                (nodes[j], nodes[j + 1], 1.0) for j in range(k - 1)
            ]
            state.add_tree(f"net{n}", list(nodes), edges)
            step(state)
        state.update_history()
        step(state)
        snapshots.append(dict(state.history))
    return state, pool, snapshots


# ----------------------------------------------------------------------
# property 1: history costs never decrease
# ----------------------------------------------------------------------
@seeded
def test_history_monotone_non_decreasing(seed):
    rng = random.Random(seed)
    _, _, snapshots = random_state(rng)
    for before, after in zip(snapshots, snapshots[1:]):
        for node, h in before.items():
            assert after.get(node, 0.0) >= h, (
                f"history decreased at {node}: {h} -> {after.get(node)}"
            )
        # and no entry is ever negative
        assert all(v >= 0.0 for v in after.values())


# ----------------------------------------------------------------------
# property 2: slack ratios in [0, 1], critical-path sink exactly 1.0
# ----------------------------------------------------------------------
def random_slack_instance(rng):
    trees, nets = {}, {}
    for n in range(rng.randrange(1, 5)):
        g = Graph()
        sinks = []
        prev = "src"
        for s in range(rng.randrange(1, 4)):
            node = f"s{s}"
            g.add_edge(prev, node, rng.uniform(0.25, 4.0))
            sinks.append(node)
            if rng.random() < 0.5:
                prev = node  # sometimes chain, sometimes star
        name = f"net{n}"
        trees[name] = g
        nets[name] = Net(source="src", sinks=tuple(sinks))
    return trees, nets


@seeded
def test_slack_ratios_unit_interval_critical_at_one(seed):
    rng = random.Random(seed)
    trees, nets = random_slack_instance(rng)
    table = SlackTable.from_trees(trees, nets)
    assert len(table) > 0
    for (name, sink), ratio in table.items():
        assert 0.0 <= ratio <= 1.0
        assert table.criticality(name, sink) == ratio
    assert table.critical is not None
    assert table.criticality(*table.critical) == 1.0
    assert table.dmax > 0.0
    # unknown connections report zero criticality, not KeyError
    assert table.criticality("ghost", "nowhere") == 0.0


# ----------------------------------------------------------------------
# property 3: negotiated factors >= 1 -> edge weights strictly positive
# ----------------------------------------------------------------------
@seeded
def test_negotiated_factors_at_least_one(seed):
    rng = random.Random(seed)
    state, pool, _ = random_state(rng)
    for node in pool:
        f = state.node_factor(node)
        assert f >= 1.0
        # an occupied or historied junction costs strictly more
        if state.occupancy.get(node, 0) or state.history.get(node):
            assert f > 1.0
    # non-junction nodes (pins) are always exactly 1
    assert state.node_factor(("P", 0, 0)) == 1.0
    assert state.node_factor("plain-node") == 1.0
    # the frozen snapshot agrees with the live state everywhere
    frozen = FrozenFactorProvider(state.sparse_factors())
    for node in pool:
        assert frozen.node_factor(node) == state.node_factor(node)
    # negotiated edge weight = base * (f(u) + f(v)) / 2 >= base > 0
    for u in pool[:3]:
        for v in pool[:3]:
            base = rng.uniform(0.1, 5.0)
            weight = base * (state.node_factor(u)
                             + state.node_factor(v)) / 2.0
            assert weight >= base > 0.0


# ----------------------------------------------------------------------
# property 3b: the incrementally patched factor table stays exact
# ----------------------------------------------------------------------
@seeded
def test_incremental_factor_table_equals_node_factor(seed):
    """After any add/remove/iteration/history sequence, the patched
    dense table equals a from-scratch ``node_factor`` per id."""
    rng = random.Random(seed)
    g = Graph()
    g.add_node(("P", 0, 0, 0))  # a pin: always factor 1
    for x in range(8):
        for y in range(8):
            for side in range(4):
                for t in range(4):
                    g.add_node(("J", x, y, side, t))
    flat = g.freeze().flat

    def check(state):
        if rng.random() < 0.5:
            table = state.factor_table(flat)
            assert table == [state.node_factor(n) for n in flat.nodes]

    state, _, _ = random_state(rng, on_step=check)
    table = state.factor_table(flat)
    assert table == [state.node_factor(n) for n in flat.nodes]
    # and it is one table, patched in place, between whole-table changes
    assert state.factor_table(flat) is table


# ----------------------------------------------------------------------
# property 4: congestion-free circuits converge in exactly one
# iteration with a valid Steiner tree per net
# ----------------------------------------------------------------------
UNCONGESTED_SPEC = CircuitSpec(
    name="prop-uncongested",
    family="xc3000",
    cols=3,
    rows=3,
    nets_2_3=3,
    nets_4_10=1,
    nets_over_10=0,
    published={},
)

#: wide enough that no junction is ever contended
UNCONGESTED_WIDTH = 8


@seeded
def test_congestion_free_converges_in_one_iteration(seed):
    circuit = synthesize_circuit(UNCONGESTED_SPEC, seed=seed % 16)
    arch = xc3000(circuit.rows, circuit.cols, UNCONGESTED_WIDTH)
    cfg = RouterConfig(mode="negotiate")
    with RoutingSession(arch, cfg) as session:
        result = session.route(circuit)
    assert result.passes_used == 1
    assert result.complete
    report = verify_result(result, circuit, arch, cfg, level="full")
    assert report.ok, [d.render() for d in report.errors]
    # each route is a connected tree: |edges| == |nodes| - 1 and every
    # sink is reachable from the source
    for route in result.routes:
        tree = route.tree()
        nodes = set()
        for u, v, _ in route.edges:
            nodes.add(u)
            nodes.add(v)
        assert len(route.edges) == len(nodes) - 1
        seen = {route.source}
        frontier = [route.source]
        while frontier:
            cur = frontier.pop()
            for nxt in tree.neighbors(cur):
                if nxt not in seen:
                    seen.add(nxt)
                    frontier.append(nxt)
        assert set(route.sinks) <= seen
