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

Cases: both tiny fixtures × {wirelength, timing} on the serial engine,
plus one chunked run on the thread engine with two workers.
Regenerate deliberately with ``--update-goldens``.
"""

from __future__ import annotations

import json
import os

import pytest

from repro.engine import RoutingSession
from repro.fpga import xc3000, xc4000
from repro.router import RouterConfig

GOLDEN_DIR = os.path.join(os.path.dirname(__file__), "goldens")

#: golden id -> (fixture, family, width, config kwargs, engine)
TRAJECTORY_CASES = {
    "nego_trajectory_tiny_xc3000": ("tiny_xc3000", xc3000, 3, {}, "serial"),
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


@pytest.mark.parametrize("golden_id", sorted(TRAJECTORY_CASES))
def test_trajectory_golden(request, update_goldens, golden_id):
    fixture, family, width, cfg_kwargs, engine = TRAJECTORY_CASES[golden_id]
    _, circuit = request.getfixturevalue(fixture)
    arch = family(circuit.rows, circuit.cols, width)
    cfg = RouterConfig(mode="negotiate", **cfg_kwargs)
    workers = 2 if engine != "serial" else None
    with RoutingSession(arch, cfg, engine=engine,
                        max_workers=workers) as session:
        result = session.route(circuit)
    got = trajectory(session, result)
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
    with open(path, "r", encoding="utf-8") as fh:
        golden = json.load(fh)
    assert got["passes"] == golden["passes"], (
        f"negotiation trajectory diverged from {path}"
    )
    assert got["routes"] == golden["routes"], (
        f"converged routes diverged from {path}"
    )
