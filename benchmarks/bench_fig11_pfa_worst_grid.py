"""Figure 11 — PFA on the rectilinear staircase against the exact optimum.

The pointset of Rao et al. [32]: horizontal pitch 1, vertical pitch 2,
source at the origin.  On the plane, path folding on this pointset
approaches 2× the optimum; on grid graphs our graph-dominance PFA stays
within 1.05× of the exact GSA optimum (1.0 at most sizes, 1.05 at 5
sinks, 1.026 at 8).  Every ratio divides by the exact optimum, which
the solver certifies up to 12 sinks.
"""

from __future__ import annotations

import pytest

from repro.analysis import run_fig11
from repro.analysis.tables import render_table
from .conftest import full_scale, record


def test_fig11_pfa_worst_grid(benchmark):
    sink_counts = (2, 3, 4, 5, 6, 8, 10) if full_scale() else (2, 3, 4, 5, 6)
    rows = benchmark.pedantic(
        run_fig11, args=(sink_counts,), rounds=1, iterations=1
    )
    record(
        "fig11_pfa_worst_grid",
        render_table(
            ["sinks", "optimal*", "PFA", "ratio"],
            [[r["sinks"], r["optimal"], r["pfa"], r["ratio"]] for r in rows],
            title="Figure 11: PFA on the staircase "
            "(*exact GSA optimum at every size)",
        ),
    )
    # PFA never beats the optimum and the ratio never improves with size
    for r in rows:
        assert r["ratio"] >= 1.0 - 1e-9
    assert rows[-1]["ratio"] >= rows[0]["ratio"] - 1e-9
    # the construction stays a valid arborescence throughout: the cost
    # is bounded by the RSA guarantee of 2x optimal on grids
    for r in rows:
        assert r["ratio"] <= 2.0 + 1e-9
