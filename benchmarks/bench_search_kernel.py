"""Goal-directed search kernels vs plain Dijkstra on a routing graph.

Not a paper table — this bench quantifies the tentpole claim behind
``RouterConfig.search``: on an XC4000-style routing-resource graph,
A* under the channel-lattice Manhattan bound (and the bidirectional
kernel) answer single-target queries with substantially fewer heap
pops than plain early-exit Dijkstra, while the differential suite
(``tests/differential/``) proves the answers identical.  Every kernel
runs on the graph's frozen CSR view (``Graph.freeze()``), as the
package's searches do; the freeze happens once, before timing.

Emits ``BENCH_search.json`` at the repository root (and a text block
under ``benchmarks/output/``).  Runs standalone::

    PYTHONPATH=src python benchmarks/bench_search_kernel.py

or through pytest, where it asserts the headline ≥ 25% heap-pop
reduction for the A* kernel.
"""

from __future__ import annotations

import json
import pathlib
import random
import time

from repro.fpga import build_routing_graph, xc4000
from repro.graph import (
    DijkstraCounters,
    manhattan_heuristic,
    set_dijkstra_counters,
)

try:  # pytest provides `record` via conftest; standalone runs inline it
    from .conftest import full_scale, record
except ImportError:  # pragma: no cover - script entry
    from conftest import full_scale, record

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent
BENCH_PATH = REPO_ROOT / "BENCH_search.json"

#: the acceptance floor for the A* kernel's heap-pop reduction
REDUCTION_FLOOR_PCT = 25.0

SEED = 1995


def build_queries(graph, rnd, per_class):
    """Deterministic single-target query mix on the routing graph.

    Two classes: pin-to-pin (the router's precheck shape, heuristic
    scale 0.5 on XC4000 weights) and junction-to-junction (pure channel
    geometry, where the Manhattan bound is nearly exact).
    """
    pins = sorted((n for n in graph.nodes if n[0] == "P"), key=repr)
    juncs = sorted((n for n in graph.nodes if n[0] == "J"), key=repr)
    classes = {
        "pin_to_pin": [
            (rnd.choice(pins), rnd.choice(pins)) for _ in range(per_class)
        ],
        "junction_to_junction": [
            (rnd.choice(juncs), rnd.choice(juncs))
            for _ in range(per_class)
        ],
    }
    return {
        name: [(s, t) for s, t in qs if s != t]
        for name, qs in classes.items()
    }


def run_kernel(kernel, graph, queries, scale):
    """All queries under one kernel; returns (counters, seconds, dists)."""
    view = graph.freeze()
    counters = DijkstraCounters()
    previous = set_dijkstra_counters(counters)
    dists = []
    start = time.perf_counter()
    try:
        for s, t in queries:
            if kernel == "dijkstra":
                dist, _ = view.sssp(s, targets=[t])
                dists.append(dist.get(t))
            elif kernel == "astar":
                h = manhattan_heuristic(graph, t, scale=scale)
                dist, _ = view.astar(s, t, h)
                dists.append(dist.get(t))
            else:
                d, _ = view.bidirectional(s, t)
                dists.append(d)
    finally:
        set_dijkstra_counters(previous)
    return counters.snapshot(), time.perf_counter() - start, dists


def run_bench():
    size = 12 if full_scale() else 8
    width = 10
    arch = xc4000(size, size, width)
    rrg = build_routing_graph(arch)
    graph = rrg.graph
    scale = min(arch.segment_weight, arch.pin_weight)
    rnd = random.Random(SEED)
    per_class = 60 if full_scale() else 40
    classes = build_queries(graph, rnd, per_class)

    doc = {
        "schema": "repro.bench/search-v1",
        "architecture": {
            "family": "xc4000",
            "rows": size,
            "cols": size,
            "channel_width": width,
            "nodes": graph.num_nodes,
            "edges": graph.num_edges,
        },
        "seed": SEED,
        "heuristic_scale": scale,
        "classes": {},
        "totals": {},
        "reduction_pct": {},
    }

    totals = {k: {"heap_pops": 0, "relaxations": 0, "pruned": 0,
                  "seconds": 0.0}
              for k in ("dijkstra", "astar", "bidir")}
    for cls_name, queries in classes.items():
        cls_doc = {"queries": len(queries), "kernels": {}}
        reference = None
        for kernel in ("dijkstra", "astar", "bidir"):
            snap, seconds, dists = run_kernel(
                kernel, graph, queries, scale
            )
            if reference is None:
                reference = dists
            elif dists != reference:
                raise AssertionError(
                    f"{kernel} distances diverged from plain Dijkstra "
                    f"on {cls_name}"
                )
            cls_doc["kernels"][kernel] = {
                "heap_pops": snap["heap_pops"],
                "relaxations": snap["relaxations"],
                "pruned": snap["pruned"],
                "seconds": round(seconds, 4),
            }
            for key in ("heap_pops", "relaxations", "pruned"):
                totals[kernel][key] += snap[key]
            totals[kernel]["seconds"] += seconds
        doc["classes"][cls_name] = cls_doc

    base = totals["dijkstra"]["heap_pops"]
    for kernel, snap in totals.items():
        snap["seconds"] = round(snap["seconds"], 4)
        doc["totals"][kernel] = snap
        doc["reduction_pct"][kernel] = round(
            100.0 * (1.0 - snap["heap_pops"] / base), 2
        )
    return doc


def write_bench(doc):
    with open(BENCH_PATH, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")
    lines = [
        "search kernel bench (single-target queries, "
        f"{doc['architecture']['rows']}x{doc['architecture']['cols']} "
        "xc4000 routing graph)",
        f"{'kernel':<10} {'heap pops':>12} {'relaxations':>12} "
        f"{'reduction':>10}",
    ]
    for kernel in ("dijkstra", "astar", "bidir"):
        t = doc["totals"][kernel]
        lines.append(
            f"{kernel:<10} {t['heap_pops']:>12} {t['relaxations']:>12} "
            f"{doc['reduction_pct'][kernel]:>9.1f}%"
        )
    lines.append(f"[saved to {BENCH_PATH}]")
    record("bench_search_kernel", "\n".join(lines))


def test_bench_search_kernel():
    doc = run_bench()
    write_bench(doc)
    assert doc["reduction_pct"]["astar"] >= REDUCTION_FLOOR_PCT
    # the bidirectional kernel must at least not regress
    assert doc["reduction_pct"]["bidir"] > 0.0


if __name__ == "__main__":  # pragma: no cover
    test_bench_search_kernel()
    print("ok")
