#!/usr/bin/env python3
"""The repository's benchmark: one workload per call, one JSON result line.

    python3 perfbench/run.py --workload paper_sweep --seed 1 --seconds 20 --trace 0

Workloads: ``paper_sweep`` and ``pathfinder_timing`` (routing,
:mod:`routes`) and ``service_http`` (live job-service traffic,
:mod:`service`).  ``--trace 0`` reports every end-to-end metric of
``BENCHMARK.json``; ``--trace 1`` makes a traced run, reports every
per-layer metric and writes a layer report to
``.perfbench-work/report-<workload>.{json,md}``.  Every result is
certified (``verify_result(level="full")``) and checked against the
quality signature pinned in ``signatures.json``; the exit code is 1
when any check fails.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import sys

from common import ROOT, SRC, WORK

WORKLOADS = ("paper_sweep", "pathfinder_timing", "service_http")


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1,
                        help="workload seed: the service's job circuits")
    parser.add_argument("--seconds", type=float, default=20.0,
                        help="measured time per run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--circuit-seed", type=int, default=1,
                        help="synthesis seed of the route workloads' circuit")
    parser.add_argument("--tiny", action="store_true",
                        help="tiny circuits and history (smoke test only)")
    return parser.parse_args(argv)


def main(argv=None):
    args = parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no repro package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        spec = json.load(fh)
    WORK.mkdir(exist_ok=True)

    import service
    # The service's history takes ~90 s to build.  Build it on the first
    # run in a checkout, whichever workload that is, so no later run has
    # to pay for it.
    service.history_store(args.tiny)
    if args.workload == "service_http":
        workload = service
    else:
        import routes as workload
    gate, values, report = workload.run(args.workload, args)

    units = {
        m["name"]: m["unit"]
        for m in spec["per_layer" if args.trace else "end_to_end"]
    }
    unknown = sorted(set(values) - set(units))
    missing = sorted(set(units) - set(values))
    if unknown or (missing and not args.trace):
        raise RuntimeError(
            f"metrics out of step with BENCHMARK.json: "
            f"unlisted {unknown}, not measured {missing}"
        )
    if report is not None:
        from layers import render_report

        stem = WORK / f"report-{args.workload}"
        stem.with_suffix(".json").write_text(json.dumps(report, indent=1))
        stem.with_suffix(".md").write_text(render_report(report))
        print(f"perfbench: layer report in {stem}.md", file=sys.stderr)

    # per-layer metrics of a layer this workload never calls read 0
    metrics = {
        name: {"value": values.get(name, 0), "unit": unit}
        for name, unit in units.items()
    }
    print(json.dumps({
        "correct": gate.correct,
        "attempted": gate.attempted,
        "failed": gate.failed,
        "metrics": metrics,
    }))
    return 0 if gate.correct else 1


if __name__ == "__main__":
    sys.exit(main())
