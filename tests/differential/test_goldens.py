"""Golden-file regression tests for the routing pipeline.

Each golden is the full :func:`result_signature` of one fixture
circuit routed with a fixed configuration, committed as JSON.  Any
change to routing behaviour — tie-breaking, search kernels, pass
negotiation, congestion weighting — shows up as a diff against these
files instead of silently shifting results.

Regenerate deliberately with::

    pytest tests/differential/test_goldens.py --update-goldens

and commit the diff together with the change that explains it.
"""

from __future__ import annotations

import json
import os

import pytest

from .conftest import result_signature, route_once

GOLDEN_DIR = os.path.join(os.path.dirname(__file__), "goldens")

#: golden id -> (fixture name, route_once kwargs)
GOLDEN_CASES = {
    "tiny_xc3000_ikmb": ("tiny_xc3000", dict(algorithm="ikmb")),
    "tiny_xc3000_pfa": ("tiny_xc3000", dict(algorithm="pfa")),
    "tiny_xc3000_idom": ("tiny_xc3000", dict(algorithm="idom")),
    "tiny_xc3000_djka": ("tiny_xc3000", dict(algorithm="djka")),
    "tiny_xc3000_dom": ("tiny_xc3000", dict(algorithm="dom")),
    "tiny_xc4000_ikmb": ("tiny_xc4000", dict(algorithm="ikmb")),
    "mini_xc3000_izel": (
        "mini_xc3000",
        dict(algorithm="izel", steiner_candidate_depth=1,
             max_steiner_nodes=4),
    ),
}


def golden_path(golden_id: str) -> str:
    return os.path.join(GOLDEN_DIR, f"{golden_id}.json")


def compute_signature(request, golden_id: str):
    fixture_name, kwargs = GOLDEN_CASES[golden_id]
    arch, circuit = request.getfixturevalue(fixture_name)
    result = route_once(arch, circuit, backend="dijkstra", **kwargs)
    # JSON round-trip normalizes tuples to lists; float repr in json
    # is shortest-roundtrip, so equality stays exact
    return json.loads(json.dumps(result_signature(result)))


@pytest.mark.parametrize("golden_id", sorted(GOLDEN_CASES))
def test_golden(request, update_goldens, golden_id):
    signature = compute_signature(request, golden_id)
    path = golden_path(golden_id)
    if update_goldens:
        os.makedirs(GOLDEN_DIR, exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(signature, fh, indent=2, sort_keys=True)
            fh.write("\n")
        return
    if not os.path.exists(path):
        pytest.fail(
            f"golden file {path} missing - generate it with "
            f"`pytest {__file__} --update-goldens` and commit it"
        )
    with open(path, "r", encoding="utf-8") as fh:
        golden = json.load(fh)
    assert signature == golden, (
        f"routing output diverged from {path}; if the change is "
        f"intentional, regenerate with --update-goldens and commit "
        f"the diff"
    )


def test_goldens_complete():
    """Every committed golden corresponds to a live case (no orphans)."""
    if not os.path.isdir(GOLDEN_DIR):
        pytest.skip("goldens not generated yet")
    on_disk = {
        os.path.splitext(name)[0]
        for name in os.listdir(GOLDEN_DIR)
        if name.endswith(".json")
        # negotiation goldens are owned by test_negotiation.py, and
        # channel-width goldens by test_graph_backend_equivalence.py
        and not name.startswith(("nego_", "width_"))
    }
    assert on_disk == set(GOLDEN_CASES)
