"""Bit-identity of the PathFinder schedule against a recorded trajectory.

The goldens in ``test_negotiation.py`` pin end results (iterations,
wirelength, critical-path delay).  This suite pins the *whole
trajectory* of a negotiated route, so any change to the search order,
the cost tables or the graph the kernels walk shows up at the first
iteration it touches:

* every pass's ``negotiation`` block (overuse, overused nodes, history
  norm, critical-path delay);
* every pass's Dijkstra counters (calls, heap pops, relaxations,
  pruned) — these move whenever a search settles nodes in a different
  order, even when the final trees agree;
* every converged route's edges, in route order, and its optimal
  source→sink pathlengths.

Cases: both tiny fixtures × {wirelength, timing} on the serial engine
under the default A* search, the tiny XC3000 wirelength route under
plain Dijkstra (so both kernels' per-pass heap pops and relaxations are
pinned), plus one chunked run on the thread engine with two workers.
Regenerate deliberately with ``--update-goldens``.

``auto`` and ``bidir`` are retired ``search`` values that stored
requests still carry.  Loaded through the service's request loader,
each must replay the trajectory of the backend it ran as: negotiation
went goal-directed under ``auto`` and ran the plain kernel under
``bidir``.
"""

from __future__ import annotations

import json
import os

import pytest

from repro.engine import RoutingSession
from repro.fpga import xc3000, xc4000
from repro.router import RouterConfig
from repro.service import config_from_dict, config_to_dict

GOLDEN_DIR = os.path.join(os.path.dirname(__file__), "goldens")

#: golden id -> (fixture, family, width, config kwargs, engine)
TRAJECTORY_CASES = {
    "nego_trajectory_tiny_xc3000": ("tiny_xc3000", xc3000, 3, {}, "serial"),
    "nego_trajectory_tiny_xc3000_dijkstra": (
        "tiny_xc3000", xc3000, 3, {"search": "dijkstra"}, "serial",
    ),
    "nego_trajectory_tiny_xc3000_timing": (
        "tiny_xc3000", xc3000, 3, {"timing": True}, "serial",
    ),
    "nego_trajectory_tiny_xc4000": ("tiny_xc4000", xc4000, 4, {}, "serial"),
    "nego_trajectory_tiny_xc4000_timing": (
        "tiny_xc4000", xc4000, 4, {"timing": True}, "serial",
    ),
    "nego_trajectory_tiny_xc4000_thread": (
        "tiny_xc4000", xc4000, 4, {}, "thread",
    ),
}


def trajectory(session, result):
    """The JSON image of one negotiated route's full trajectory."""
    passes = [
        {"negotiation": p["negotiation"], "dijkstra": p["dijkstra"]}
        for p in session.trace.pass_dicts()
    ]
    routes = {
        r.name: {
            "edges": [[repr(u), repr(v), w] for u, v, w in r.edges],
            "optimal_pathlengths": [
                [repr(s), d] for s, d in r.optimal_pathlengths.items()
            ],
        }
        for r in result.routes
    }
    return json.loads(json.dumps({"passes": passes, "routes": routes}))


def route_trajectory(request, golden_id, cfg):
    fixture, family, width, _, engine = TRAJECTORY_CASES[golden_id]
    _, circuit = request.getfixturevalue(fixture)
    arch = family(circuit.rows, circuit.cols, width)
    workers = 2 if engine != "serial" else None
    with RoutingSession(arch, cfg, engine=engine,
                        max_workers=workers) as session:
        result = session.route(circuit)
    return trajectory(session, result)


def load_golden(golden_id):
    path = os.path.join(GOLDEN_DIR, f"{golden_id}.json")
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


@pytest.mark.parametrize("golden_id", sorted(TRAJECTORY_CASES))
def test_trajectory_golden(request, update_goldens, golden_id):
    cfg_kwargs = TRAJECTORY_CASES[golden_id][3]
    cfg = RouterConfig(mode="negotiate", **cfg_kwargs)
    got = route_trajectory(request, golden_id, cfg)
    assert len(got["passes"]) > 1  # the case really negotiates
    path = os.path.join(GOLDEN_DIR, f"{golden_id}.json")
    if update_goldens:
        os.makedirs(GOLDEN_DIR, exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(got, fh, indent=1, sort_keys=True)
            fh.write("\n")
        return
    if not os.path.exists(path):
        pytest.fail(
            f"golden file {path} missing - generate it with "
            f"`pytest {__file__} --update-goldens` and commit it"
        )
    golden = load_golden(golden_id)
    assert got["passes"] == golden["passes"], (
        f"negotiation trajectory diverged from {path}"
    )
    assert got["routes"] == golden["routes"], (
        f"converged routes diverged from {path}"
    )


@pytest.mark.parametrize(
    "search,golden_id",
    [
        ("auto", "nego_trajectory_tiny_xc3000"),
        ("astar", "nego_trajectory_tiny_xc3000"),
        ("bidir", "nego_trajectory_tiny_xc3000_dijkstra"),
        ("dijkstra", "nego_trajectory_tiny_xc3000_dijkstra"),
    ],
)
def test_stored_search_key_replays_trajectory(request, search, golden_id):
    doc = config_to_dict(RouterConfig(mode="negotiate"))
    doc["search"] = search
    got = route_trajectory(request, golden_id, config_from_dict(doc))
    assert got == load_golden(golden_id)
