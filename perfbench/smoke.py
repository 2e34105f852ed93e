#!/usr/bin/env python3
"""The benchmark's own smoke test (tiny scale, about a minute).

    python3 perfbench/smoke.py

Runs every workload once untraced and once traced on tiny circuits and
a tiny history, and asserts that

* each run passes its correctness gate and emits exactly the metrics
  ``BENCHMARK.json`` names (end-to-end untraced, per-layer traced), with
  each workload's own layers measured (non-zero), and
* the gate trips when results are tampered with: a route workload whose
  router drops a net, and a service whose fetched results lack a net.
"""

from __future__ import annotations

import contextlib
import dataclasses
import io
import json
import sys

import run
import routes
from common import ROOT

#: per-layer metrics each workload must measure even at tiny scale
MEASURED = {
    "paper_sweep": (
        "graph.dijkstra.heap_pops", "graph.cache.hits", "graph.cache.sssp_calls",
        "steiner.tree_calls", "arborescence.tree_calls", "rrg.commit_calls",
        "congestion.reweight_calls", "engine.widths_tried",
        "engine_axis.process_route_s",
    ),
    "pathfinder_timing": (
        "graph.negotiated_search_calls", "graph.freeze_calls",
        "negotiation.route_connections_calls", "negotiation.factor_table_calls",
        "negotiation.iterations", "timing.slack_table_s",
    ),
    "service_http": (
        "journal.append_calls", "journal.replay_s", "store.refresh_calls",
        "api.submit_s", "api.metrics_s", "supervisor.run_job_calls",
        "validate.verify_calls", "supervisor.queue_wait_s",
        "http.notify_lag_s", "http.metrics_get_s",
    ),
}


def bench(workload, trace=0):
    """One tiny in-process run: (exit code, parsed result line)."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = run.main([
            "--workload", workload, "--seconds", "3", "--tiny",
            "--trace", str(trace),
        ])
    return code, json.loads(out.getvalue().splitlines()[-1])


def without_first_route(result):
    return dataclasses.replace(result, routes=result.routes[1:])


def main():
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        spec = json.load(fh)
    names = {kind: {m["name"] for m in spec[kind]}
             for kind in ("end_to_end", "per_layer")}
    for workload in run.WORKLOADS:
        for trace, kind in ((0, "end_to_end"), (1, "per_layer")):
            code, doc = bench(workload, trace)
            assert code == 0 and doc["correct"], (workload, trace, doc)
            assert set(doc["metrics"]) == names[kind], (workload, kind)
            if trace:
                idle = [m for m in MEASURED[workload]
                        if not doc["metrics"][m]["value"]]
                assert not idle, (workload, idle)
        print(f"smoke: {workload} ok", file=sys.stderr)

    route_once = routes.route_once
    routes.route_once = lambda *a, **k: without_first_route(route_once(*a, **k))
    try:
        code, doc = bench("paper_sweep")
    finally:
        routes.route_once = route_once
    assert code == 1 and not doc["correct"] and doc["failed"] >= 1, doc

    from repro.service import ServiceClient

    fetch = ServiceClient.result
    ServiceClient.result = lambda self, job: without_first_route(fetch(self, job))
    try:
        code, doc = bench("service_http")
    finally:
        ServiceClient.result = fetch
    assert code == 1 and not doc["correct"] and doc["failed"] >= 1, doc
    print("smoke: tampered results are refused; all ok", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
