"""One-shot reproduction report: run the fast drivers, emit markdown.

``generate_report()`` executes every driver that completes in seconds
(Table 1 at a configurable trial count, Figures 3/4/6/10/11/13/14, CPU
times) and returns a single markdown document with measured-vs-published
framing — the programmatic companion to EXPERIMENTS.md.  The heavier
router studies (Tables 2–5, Figures 15/16) remain the benchmark
harness's job and are referenced, not re-run.

Exposed on the CLI as ``python -m repro report``.
"""

from __future__ import annotations

import time
from typing import List, Optional

from .experiments import (
    run_cpu_times,
    run_fig3_detours,
    run_fig4,
    run_fig10,
    run_fig11,
    run_fig14,
    run_table1,
    run_trace_demo,
)
from .tables import render_table


def _section(title: str, body: str) -> str:
    return f"## {title}\n\n```\n{body}\n```\n"


def render_trace(doc: dict) -> str:
    """Render a routing-engine trace document as a markdown section body.

    ``doc`` is a loaded ``repro.engine/trace-v4`` document (see
    :func:`repro.engine.load_trace`): header line, one row per pass,
    and the aggregate totals.
    """
    header = (
        f"{doc['circuit']} — engine={doc['engine']} "
        f"W={doc['channel_width']} outcome={doc['outcome']}"
        + (
            f" wirelength={doc['total_wirelength']}"
            if doc.get("total_wirelength") is not None
            else ""
        )
    )
    rows = []
    for p in doc["passes"]:
        rows.append([
            p["pass"],
            round(p["seconds"], 3),
            p["nets_routed"],
            p["nets_failed"],
            p["batches"],
            p["max_batch_size"],
            p["speculative_commits"],
            p["conflict_reroutes"],
            p["dijkstra"]["calls"],
            f"{p['cache']['hits']}/{p['cache']['misses']}",
            p["congestion"]["max"],
        ])
    table = render_table(
        ["pass", "s", "routed", "failed", "batches", "max batch",
         "spec", "conflict", "dijkstra", "cache h/m", "peak util"],
        rows,
    )
    totals = doc["totals"]
    footer = (
        f"totals: {totals['seconds']}s, "
        f"dijkstra calls={totals['dijkstra']['calls']} "
        f"pops={totals['dijkstra']['heap_pops']} "
        f"relax={totals['dijkstra']['relaxations']}, "
        f"cache hits={totals['cache']['hits']} "
        f"misses={totals['cache']['misses']} "
        f"invalidations={totals['cache']['invalidations']}, "
        f"speculative={totals['speculative_commits']} "
        f"conflicts={totals['conflict_reroutes']}"
    )
    verify = totals.get("verify")
    if verify:
        footer += (
            f"\nverification: checked={verify['checked']} "
            f"violations={verify['violations']} "
            f"repaired={verify['repaired']} "
            f"quarantined={verify['quarantined']}"
        )
    return header + "\n\n" + table + "\n\n" + footer


def generate_report(
    table1_trials: int = 3,
    seed: int = 1995,
    trace=None,
) -> str:
    """Build the markdown report; deterministic given the seed.

    ``trace`` (path or open file) appends a routing-engine trace
    section rendered from a ``route --trace`` / ``width --trace`` dump.
    """
    started = time.time()
    parts: List[str] = [
        "# repro — quick reproduction report",
        "",
        "Fast-driver subset of the full benchmark harness "
        "(`pytest benchmarks/ --benchmark-only` regenerates the router "
        "studies: Tables 2-5, Figures 15-16).",
        "",
    ]

    table1 = run_table1(trials=table1_trials, seed=seed)
    parts.append(_section(
        "Table 1 — eight algorithms on congested grids",
        table1.render(published=True),
    ))

    before, after = run_fig3_detours()
    parts.append(_section(
        "Figure 3 — congestion-induced detours",
        before.render() + "\n\n" + after.render(),
    ))

    fig4 = run_fig4()
    parts.append(_section(
        "Figure 4 — the four-pin showcase", fig4.render()
    ))

    traced_ikmb, traced_idom = run_trace_demo()
    trace_rows = []
    for label, traced in (
        ("IKMB", traced_ikmb), ("IDOM", traced_idom)
    ):
        construction_trace = traced.trace
        trace_rows.append([label,
                           round(construction_trace.initial_cost, 2),
                           round(construction_trace.final_cost, 2),
                           len(construction_trace.steps)])
    parts.append(_section(
        "Figures 6/13 — iterated-construction traces",
        render_table(
            ["construction", "initial cost", "final cost",
             "Steiner points accepted"],
            trace_rows,
        ),
    ))

    fig10 = run_fig10((1, 2, 4, 8))
    parts.append(_section(
        "Figure 10 — PFA Θ(N) trap family",
        render_table(
            ["pairs", "PFA/opt", "IDOM/opt"],
            [[r["pairs"], round(r["pfa_ratio"], 2),
              round(r["idom_ratio"], 2)] for r in fig10],
        ),
    ))

    fig11 = run_fig11((2, 3, 4, 5))
    parts.append(_section(
        "Figure 11 — PFA on the staircase",
        render_table(
            ["sinks", "PFA/opt"],
            [[r["sinks"], round(r["ratio"], 3)] for r in fig11],
        ),
    ))

    fig14 = run_fig14((1, 2, 3, 4))
    parts.append(_section(
        "Figure 14 — Set-Cover family (abstract greedy)",
        render_table(
            ["sinks", "greedy sets", "optimal sets"],
            [[r["sinks"], r["greedy_sets"], r["optimal_sets"]]
             for r in fig14],
        ),
    ))

    cpu = run_cpu_times(trials=3, seed=seed)
    parts.append(_section(
        "CPU times (|V|=50, |E|=1000, |N|=5)",
        render_table(
            ["algorithm", "ms/net"],
            [[k, round(v, 2)] for k, v in cpu.items()],
        ),
    ))

    if trace is not None:
        from ..engine import load_trace

        parts.append(_section(
            "Routing-engine trace", render_trace(load_trace(trace))
        ))

    parts.append(
        f"_Generated in {time.time() - started:.1f}s "
        f"(table1_trials={table1_trials}, seed={seed})._"
    )
    return "\n".join(parts)
