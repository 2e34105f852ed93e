"""Graph core work counts: search operations and CSR freezes per route.

Not a paper table — this bench pins the work the CSR graph core does
on a whole-circuit route.  Every search runs on a frozen CSR view
(``Graph.freeze()``), so the quantities that matter are deterministic
counts, not seconds:

* the Dijkstra heap pops and edge relaxations of the route;
* the real freezes of the routing-resource graph, split into full
  rebuilds (``FlatGraph.from_graph``) and incremental patches
  (``FlatGraph.refrozen`` returning a snapshot);
* the freezes of the small scratch graphs the tree constructions
  search directly (DOM's shortest-paths union, for one).

The counts are taken by wrapping those two ``FlatGraph`` entry points
from here, outside the package.  Each device's count must stay at or
below its ceiling — the value the dict/CSR-switchable core recorded
when forced onto CSR, before the dict kernels were deleted (scratch
freezes did not exist then; their ceiling is the value recorded when
they appeared) — and the result signature must equal the recorded
one, so fewer counts can never come from routing something else.
Wall-clock seconds are recorded for information only.

Emits ``BENCH_graph_core.json`` at the repository root (and a text
block under ``benchmarks/output/``).  Runs standalone::

    PYTHONPATH=src python benchmarks/bench_graph_core.py

or through pytest, where it asserts the ceilings and signatures.
"""

from __future__ import annotations

import hashlib
import json
import pathlib
import time
import weakref

from repro.engine import RoutingSession
from repro.fpga import CircuitSpec, synthesize_circuit, xc4000
from repro.fpga.routing_graph import RoutingResourceGraph
from repro.graph.flat import FlatGraph
from repro.router import RouterConfig

try:  # pytest provides `record` via conftest; standalone runs inline it
    from .conftest import record
except ImportError:  # pragma: no cover - script entry
    from conftest import record

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent
BENCH_PATH = REPO_ROOT / "BENCH_graph_core.json"

SEED = 7

#: DOM exercises the full graph-core surface — per-sink SSSPs through
#: the ShortestPathCache, dominance scans over the dist/pred dicts, and
#: one scratch-graph search per net for the final shortest-paths tree.
ALGORITHM = "dom"
MAX_PASSES = 8

#: (label, cols, rows, channel width, nets_2_3, nets_4_10, nets_over_10)
DEVICES = [
    ("8x8", 8, 8, 5, 16, 6, 2),
    ("16x16", 16, 16, 8, 30, 12, 4),
]

#: the gated counts
COUNTS = (
    "heap_pops",
    "relaxations",
    "full_rebuilds",
    "patches",
    "scratch_freezes",
)

#: per device: the count ceilings and the result signature digest.
#: heap pops, relaxations, rebuilds and patches are the values of the
#: dict/CSR-switchable graph core with ``graph_backend="flat"``;
#: scratch freezes are new with the single substrate.
CEILINGS = {
    "8x8": {
        "heap_pops": 461090,
        "relaxations": 504487,
        "full_rebuilds": 39,
        "patches": 34,
        "scratch_freezes": 69,
        "signature": (
            "b98f4ee8a745c5c62be3bc255f2c345ad01624b81365768f289c86d1cd7b79f3"
        ),
    },
    "16x16": {
        "heap_pops": 1738098,
        "relaxations": 1834373,
        "full_rebuilds": 3,
        "patches": 43,
        "scratch_freezes": 46,
        "signature": (
            "7fdf5761ff6bb51a3ad6a377d8add3aadd2a0048a872fb187b70658a34b295b8"
        ),
    },
}


def build_workload(label, cols, rows, width, n23, n410, n10):
    spec = CircuitSpec(
        name=f"bench-{label}", family="xc4000", cols=cols, rows=rows,
        nets_2_3=n23, nets_4_10=n410, nets_over_10=n10, published={},
    )
    return xc4000(cols, rows, width), synthesize_circuit(spec, seed=SEED)


def result_signature(result) -> str:
    """A digest of an exact image of a routing result: pass count,
    total wirelength, and every route's edge set."""
    routes = tuple(
        (r.name, r.wirelength, tuple(sorted(repr(e) for e in r.edges)))
        for r in sorted(result.routes, key=lambda r: r.name)
    )
    image = repr((result.passes_used, result.total_wirelength, routes))
    return hashlib.sha256(image.encode()).hexdigest()


class FreezeCounter:
    """Counts CSR builds by wrapping two ``FlatGraph`` entry points.

    A build belongs to the device when it freezes a routing-resource
    graph: one registered by ``RoutingResourceGraph`` construction or
    ``reset``, or any freeze made inside either call.  Devices are
    copies of a per-process template of their architecture, and the
    pristine snapshot that ``reset`` thaws is frozen once per template,
    inside the first wrapped ``reset`` of any of its devices, so it
    still counts as a device rebuild; a route whose architecture's
    template already holds it makes none.  Every other ``from_graph``
    freezes a scratch graph.
    """

    def __init__(self):
        self.full_rebuilds = 0
        self.patches = 0
        self.scratch_freezes = 0
        self._devices = weakref.WeakSet()
        self._in_device = 0
        self._saved = {}

    def __enter__(self):
        counter = self
        from_graph = FlatGraph.from_graph.__func__
        refrozen = FlatGraph.refrozen
        init = RoutingResourceGraph.__init__
        reset = RoutingResourceGraph.reset
        self._saved = {
            (FlatGraph, "from_graph"): FlatGraph.__dict__["from_graph"],
            (FlatGraph, "refrozen"): refrozen,
            (RoutingResourceGraph, "__init__"): init,
            (RoutingResourceGraph, "reset"): reset,
        }

        def counting_from_graph(cls, graph):
            if counter._in_device or graph in counter._devices:
                counter.full_rebuilds += 1
            else:
                counter.scratch_freezes += 1
            return from_graph(cls, graph)

        def counting_refrozen(self, *args, **kwargs):
            flat = refrozen(self, *args, **kwargs)
            if flat is not None:
                counter.patches += 1
            return flat

        def device_call(method):
            def wrapper(self, *args, **kwargs):
                counter._in_device += 1
                try:
                    return method(self, *args, **kwargs)
                finally:
                    counter._in_device -= 1
                    counter._devices.add(self.graph)
            return wrapper

        FlatGraph.from_graph = classmethod(counting_from_graph)
        FlatGraph.refrozen = counting_refrozen
        RoutingResourceGraph.__init__ = device_call(init)
        RoutingResourceGraph.reset = device_call(reset)
        return self

    def __exit__(self, *exc):
        for (owner, name), value in self._saved.items():
            setattr(owner, name, value)
        return False


def route_counts(arch, circuit, **config_kwargs):
    """One full serial route: its work counts, seconds and signature."""
    config = RouterConfig(
        algorithm=ALGORITHM, max_passes=MAX_PASSES, **config_kwargs
    )
    session = RoutingSession(arch, config, engine="serial")
    with FreezeCounter() as freezes:
        start = time.perf_counter()
        result = session.route(circuit)
        seconds = time.perf_counter() - start
    dijkstra = session.trace.totals()["dijkstra"]
    return {
        "nets": len(circuit.nets),
        "routed_nets": len(result.routes),
        "total_wirelength": result.total_wirelength,
        "dijkstra_calls": dijkstra["calls"],
        "heap_pops": dijkstra["heap_pops"],
        "relaxations": dijkstra["relaxations"],
        "full_rebuilds": freezes.full_rebuilds,
        "patches": freezes.patches,
        "scratch_freezes": freezes.scratch_freezes,
        "seconds": round(seconds, 4),
        "signature": result_signature(result),
    }


def run_bench():
    doc = {
        "schema": "repro.bench/graph-core-v2",
        "algorithm": ALGORITHM,
        "max_passes": MAX_PASSES,
        "engine": "serial",
        "seed": SEED,
        "gated_counts": list(COUNTS),
        "devices": {},
    }
    for label, *shape in DEVICES:
        arch, circuit = build_workload(label, *shape)
        row = route_counts(arch, circuit)
        row["ceiling"] = CEILINGS[label]
        doc["devices"][label] = row
    return doc


def check(doc):
    """Every gated count within its ceiling, every signature equal."""
    for label, row in doc["devices"].items():
        ceiling = row["ceiling"]
        for key in COUNTS:
            assert row[key] <= ceiling[key], (label, key, row[key])
        assert row["signature"] == ceiling["signature"], label


def write_bench(doc):
    with open(BENCH_PATH, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")
    lines = [
        "graph core bench (full serial routing, "
        f"{doc['algorithm']} x{doc['max_passes']} passes, xc4000)",
        f"{'device':<8} {'nets':>5} {'heap pops':>10} {'relax':>10} "
        f"{'rebuilds':>9} {'patches':>8} {'scratch':>8} {'seconds':>8}",
    ]
    for label, dev in doc["devices"].items():
        lines.append(
            f"{label:<8} {dev['nets']:>5} {dev['heap_pops']:>10} "
            f"{dev['relaxations']:>10} {dev['full_rebuilds']:>9} "
            f"{dev['patches']:>8} {dev['scratch_freezes']:>8} "
            f"{dev['seconds']:>7.2f}s"
        )
    lines.append(f"[saved to {BENCH_PATH}]")
    record("bench_graph_core", "\n".join(lines))


def test_bench_graph_core():
    doc = run_bench()
    write_bench(doc)
    check(doc)


if __name__ == "__main__":  # pragma: no cover
    test_bench_graph_core()
    print("ok")
