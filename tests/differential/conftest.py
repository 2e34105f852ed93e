"""Fixtures for the differential harness.

The harness replays routing workloads — every algorithm, engine and
stored ``RouterConfig.search`` value — and asserts the results are
bit-identical to the committed goldens: same trees, same wirelengths,
same pass counts, same channel widths.  The fixture circuits are
deliberately tiny (3×3 / 4×4 arrays) so the full
``algorithms × search values × engines`` matrix stays fast; the point
is coverage of every code path, not routing pressure.
"""

from __future__ import annotations

import pytest

from repro.engine import RoutingSession
from repro.fpga import CircuitSpec, synthesize_circuit, xc3000, xc4000
from repro.graph.core import edge_key
from repro.router import RouterConfig
from repro.service import config_from_dict, config_to_dict

#: enough tracks that the tiny fixtures route in one or two passes
TINY_XC3000_WIDTH = 6
TINY_XC4000_WIDTH = 6
MINI_WIDTH = 5

TINY_XC3000_SPEC = CircuitSpec(
    name="diff-tiny3k",
    family="xc3000",
    cols=4,
    rows=4,
    nets_2_3=8,
    nets_4_10=3,
    nets_over_10=1,
    published={},
)

TINY_XC4000_SPEC = CircuitSpec(
    name="diff-tiny4k",
    family="xc4000",
    cols=4,
    rows=4,
    nets_2_3=8,
    nets_4_10=3,
    nets_over_10=1,
    published={},
)

#: even smaller: IZEL's meeting-node scan is cubic in practice
MINI_SPEC = CircuitSpec(
    name="diff-mini",
    family="xc3000",
    cols=3,
    rows=3,
    nets_2_3=5,
    nets_4_10=1,
    nets_over_10=0,
    published={},
)


@pytest.fixture(scope="session")
def tiny_xc3000():
    circuit = synthesize_circuit(TINY_XC3000_SPEC, seed=3)
    arch = xc3000(circuit.rows, circuit.cols, TINY_XC3000_WIDTH)
    return arch, circuit


@pytest.fixture(scope="session")
def tiny_xc4000():
    circuit = synthesize_circuit(TINY_XC4000_SPEC, seed=5)
    arch = xc4000(circuit.rows, circuit.cols, TINY_XC4000_WIDTH)
    return arch, circuit


@pytest.fixture(scope="session")
def mini_xc3000():
    circuit = synthesize_circuit(MINI_SPEC, seed=3)
    arch = xc3000(circuit.rows, circuit.cols, MINI_WIDTH)
    return arch, circuit


def route_once(arch, circuit, *, backend, algorithm="ikmb",
               engine="serial", max_passes=6, max_workers=None,
               **cfg_kwargs):
    """One full routing session, its config loaded the way a stored
    request carrying ``search=backend`` is (retired values included)."""
    doc = config_to_dict(RouterConfig(
        algorithm=algorithm,
        max_passes=max_passes,
        **cfg_kwargs,
    ))
    doc["search"] = backend
    cfg = config_from_dict(doc)
    session = RoutingSession(arch, cfg, engine=engine,
                             max_workers=max_workers)
    return session.route(circuit)


def result_signature(result):
    """A stable, exact, comparable image of a routing result.

    Edges are canonicalized with :func:`edge_key` and sorted by repr;
    floats are kept at full precision — the differential contract is
    bit-identity, not approximate agreement.
    """
    routes = {}
    for r in result.routes:
        edges = sorted(
            (repr(edge_key(u, v)), w) for u, v, w in r.edges
        )
        routes[r.name] = {
            "algorithm": r.algorithm,
            "wirelength": r.wirelength,
            "edges": edges,
        }
    return {
        "passes": result.passes_used,
        "wirelength": result.total_wirelength,
        "routes": routes,
    }
