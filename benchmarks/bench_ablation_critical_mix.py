"""Ablation — mixed criticality-aware routing (§2 net classification).

The paper routes nets "in either category" with the matching algorithm
family.  This bench routes the same circuit three ways — all-Steiner,
all-arborescence, and mixed (top-HPWL quarter critical → PFA, rest →
KMB) — and measures what the mix costs in width/wirelength and buys in
critical-net pathlength.
"""

from __future__ import annotations

import pytest

from repro.analysis.tables import render_table
from repro.fpga import circuit_spec, scaled_spec, synthesize_circuit, xc4000
from repro.router import RouterConfig, minimum_channel_width
from .conftest import circuit_fraction, full_scale, record


def test_ablation_critical_mix(benchmark):
    spec = circuit_spec("apex7")
    fraction = 0.4 if full_scale() else circuit_fraction(spec)
    circuit = synthesize_circuit(scaled_spec(spec, fraction), seed=7)
    configs = {
        "all KMB": RouterConfig(algorithm="kmb"),
        "mixed (25% critical -> PFA)": RouterConfig(
            algorithm="kmb",
            critical_algorithm="pfa",
            critical_fraction=0.25,
        ),
        "all PFA": RouterConfig(algorithm="pfa"),
    }

    def run():
        rows = []
        for label, cfg in configs.items():
            w, res = minimum_channel_width(circuit, xc4000, cfg)
            crit = [
                r for r in res.routes if r.algorithm in ("PFA", "IDOM")
            ]
            stretch = res.mean_pathlength_stretch()
            rows.append(
                [label, w, round(res.total_wirelength, 1),
                 len(crit), round(stretch, 3)]
            )
        return rows

    rows = benchmark.pedantic(run, rounds=1, iterations=1)
    record(
        "ablation_critical_mix",
        render_table(
            ["configuration", "min W", "wirelength",
             "arborescence nets", "mean path stretch"],
            rows,
            title="Ablation: criticality-aware mixed routing",
        ),
    )
    by_label = {r[0]: r for r in rows}
    w_kmb = by_label["all KMB"][1]
    w_mix = by_label["mixed (25% critical -> PFA)"][1]
    w_pfa = by_label["all PFA"][1]
    # the mix sits between the two pure modes in channel width
    assert w_kmb <= w_mix + 1
    assert w_mix <= w_pfa + 1
    # and the mixed run actually routed some nets as arborescences
    assert by_label["mixed (25% critical -> PFA)"][3] > 0
