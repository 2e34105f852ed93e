#!/usr/bin/env python3
"""Critical-net routing: the wirelength / pathlength tradeoff curve.

Routes the same circuit with the pure-wirelength router (IKMB) and the
two arborescence routers (PFA, IDOM) at a common channel width, then
reports how much wirelength each arborescence spends to buy its optimal
source–sink pathlengths — the Table 5 experiment in miniature, plus a
per-net scatter of pathlength stretch.

Run:  python examples/critical_net_tradeoffs.py
"""

from __future__ import annotations

from repro.analysis.tables import render_table
from repro.fpga import circuit_spec, scaled_spec, synthesize_circuit, xc4000
from repro.engine import RoutingSession
from repro.router import RouterConfig, minimum_channel_width


def main() -> None:
    spec = scaled_spec(circuit_spec("9symml"), 0.3)
    circuit = synthesize_circuit(spec, seed=2)
    print(f"Circuit: {circuit.stats()}\n")

    algorithms = ("ikmb", "pfa", "idom")
    config = RouterConfig(steiner_candidate_depth=1)

    # common width: smallest feasible for all three, plus one track of
    # headroom so congestion doesn't drown the pathlength signal
    width = (
        max(
            minimum_channel_width(
                circuit, xc4000, config.with_algorithm(a)
            )[0]
            for a in algorithms
        )
        + 1
    )
    print(f"Common channel width: {width}\n")

    results = {}
    for algo in algorithms:
        arch = xc4000(circuit.rows, circuit.cols, width)
        results[algo] = RoutingSession(
            arch, config.with_algorithm(algo)
        ).route(circuit)

    rows = []
    ref = results["ikmb"]
    for algo in algorithms:
        res = results[algo]
        rows.append(
            [
                algo,
                round(res.total_wirelength, 1),
                round(
                    (res.total_wirelength / ref.total_wirelength - 1)
                    * 100,
                    1,
                ),
                round(res.mean_pathlength_stretch(), 3),
            ]
        )
    print(
        render_table(
            ["router", "wirelength", "wire % vs IKMB",
             "mean path stretch"],
            rows,
            title="Wirelength vs pathlength at equal channel width",
        )
    )

    # per-net detail: the nets where IKMB's trees stretch paths most
    stretches = []
    for route in ref.routes:
        for sink, opt in route.optimal_pathlengths.items():
            if opt > 0:
                stretches.append(
                    (route.pathlengths[sink] / opt, route.name)
                )
    stretches.sort(reverse=True)
    print("\nWorst IKMB pathlength stretches (PFA/IDOM pin these to ~1.0):")
    for stretch, name in stretches[:5]:
        print(f"  {name}: {stretch:.2f}x optimal")


if __name__ == "__main__":
    main()
