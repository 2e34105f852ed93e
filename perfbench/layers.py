"""Layer spans recorded from outside the program.

A :class:`Tracer` wraps public functions and methods of each
``repro`` layer (see :data:`SPANS`) so every call records a span:
name, start, end, parent span and job id.  Spans stay in memory until
the run ends.  Nothing under ``src/`` is edited: class methods are
wrapped on the class, and functions bound by name with
``from x import f`` are wrapped at each importing module.

Very hot calls (``ShortestPathCache.dist``, the search kernels' heap
pops) are not spanned; their counts come from the engine's own trace
totals, harvested when each ``RoutingSession.route`` returns.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import threading
import time
from collections import Counter, defaultdict

#: algorithms whose trees are Steiner trees; the rest are arborescences
STEINER_ALGORITHMS = frozenset({"kmb", "zel", "ikmb", "izel"})


def _tree_span(args, kwargs):
    algo = kwargs.get("algo", args[3] if len(args) > 3 else None)
    return "steiner.tree" if algo in STEINER_ALGORITHMS else "arborescence.tree"


def _job_of_record(args, kwargs, result):
    return getattr(args[1], "job_id", None) if len(args) > 1 else None


def _job_of_event(args, kwargs, result):
    event = args[1] if len(args) > 1 else kwargs.get("event")
    return event.get("job") if isinstance(event, dict) else None


def _job_of_result(args, kwargs, result):
    return getattr(result, "job_id", None)


def _freeze_is_memoized(graph) -> bool:
    """True when ``Graph.freeze`` will return its cached view.

    Those calls are free and frequent; only real (re)freezes get spans.
    """
    view = getattr(graph, "_frozen", None)
    return view is not None and view.version == getattr(graph, "_version", None)


#: (module, attribute path, span name or name function, job extractor)
SPANS = (
    ("repro.graph.shortest_paths", "ShortestPathCache.sssp", "graph.cache.sssp", None),
    ("repro.graph.core", "Graph.freeze", "graph.freeze", None),
    ("repro.graph.search", "SearchPolicy.negotiated_search", "graph.negotiated_search", None),
    ("repro.router.router", "route_net_tree", _tree_span, None),
    ("repro.engine.worker", "route_net_tree", _tree_span, None),
    ("repro.fpga.routing_graph", "RoutingResourceGraph._build", "rrg.build", None),
    ("repro.fpga.routing_graph", "RoutingResourceGraph.commit", "rrg.commit", None),
    ("repro.fpga.routing_graph", "RoutingResourceGraph.reset", "rrg.reset", None),
    ("repro.fpga.routing_graph", "RoutingResourceGraph.attach_pins", "rrg.attach_pins", None),
    ("repro.router.congestion", "CongestionModel.reweight_groups", "congestion.reweight", None),
    ("repro.router.congestion", "CongestionModel.reweight_all", "congestion.reweight", None),
    ("repro.router.negotiation", "route_connections", "negotiation.route_connections", None),
    ("repro.engine.session", "route_connections", "negotiation.route_connections", None),
    ("repro.router.negotiation", "NegotiationState.factor_table", "negotiation.factor_table", None),
    ("repro.router.negotiation", "NegotiationState.update_history", "negotiation.update_history", None),
    ("repro.router.timing", "SlackTable.from_trees", "timing.slack_table", None),
    ("repro.engine.session", "RoutingSession.route", "engine.route", None),
    ("repro.engine.session", "save_checkpoint", "engine.checkpoint.save", None),
    ("repro.engine.session", "verify_result", "validate.verify", None),
    ("repro.service.api", "verify_result", "validate.verify", None),
    ("repro.service.supervisor", "verify_result", "validate.verify", None),
    ("repro.engine.session", "validate_circuit", "validate.lint", None),
    ("repro.service.admission", "validate_circuit", "validate.lint", None),
    ("repro.service.journal", "Journal.__init__", "journal.replay", None),
    ("repro.service.journal", "Journal.append", "journal.append", _job_of_event),
    ("repro.service.store", "JobStore.refresh", "store.refresh", None),
    ("repro.service.api", "RoutingService.metrics", "api.metrics", None),
    ("repro.service.api", "RoutingService.submit", "api.submit", _job_of_result),
    ("repro.service.supervisor", "JobSupervisor.run_job", "supervisor.run_job", _job_of_record),
)

#: every span name :data:`SPANS` can produce
SPAN_NAMES = sorted(
    {"steiner.tree", "arborescence.tree"}
    | {name for _, _, name, _ in SPANS if isinstance(name, str)}
)


class Tracer:
    """In-memory span recorder plus the wrappers that feed it."""

    def __init__(self):
        #: (id, parent id, name, start, end, job, thread id)
        self.spans = []
        self.counts = Counter()
        self._ids = iter(range(1, 1 << 62))
        self._local = threading.local()
        self._undo = []

    # -- recording -------------------------------------------------------
    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def call(self, name, fn, args, kwargs, job_of=None):
        """Run ``fn`` inside a span named ``name``.

        ``job_of(args, kwargs, result)`` names the span's job, from the
        arguments (``result`` is None then) or else from the result.  A
        span without a job id of its own inherits its parent's.
        """
        stack = self._stack()
        parent_id, job = stack[-1] if stack else (0, None)
        job = (job_of and job_of(args, kwargs, None)) or job
        span_id = next(self._ids)
        stack.append((span_id, job))
        result = None
        start = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
            return result
        finally:
            end = time.perf_counter()
            stack.pop()
            if job is None and job_of is not None:
                job = job_of(args, kwargs, result)
            self.spans.append(
                (span_id, parent_id, name, start, end, job,
                 threading.get_ident())
            )

    def span(self, name, fn, *args, **kwargs):
        """Call ``fn(*args, **kwargs)`` inside a benchmark-level span."""
        return self.call(name, fn, args, kwargs)

    # -- installing wrappers ---------------------------------------------
    def _wrapper(self, original, name, job_of):
        tracer = self

        if name == "graph.freeze":
            @functools.wraps(original)
            def wrapped(*args, **kwargs):
                if _freeze_is_memoized(args[0]):
                    return original(*args, **kwargs)
                return tracer.call(name, original, args, kwargs)
        elif name == "engine.route":
            @functools.wraps(original)
            def wrapped(*args, **kwargs):
                try:
                    return tracer.call(name, original, args, kwargs)
                finally:
                    tracer.harvest(args[0])
        else:
            @functools.wraps(original)
            def wrapped(*args, **kwargs):
                label = name(args, kwargs) if callable(name) else name
                return tracer.call(label, original, args, kwargs, job_of=job_of)
        return wrapped

    def _patch(self, module_name, path, make):
        owner = importlib.import_module(module_name)
        *parents, attr = path.split(".")
        for part in parents:
            owner = getattr(owner, part)
        raw = inspect.getattr_static(owner, attr)
        if isinstance(raw, classmethod):
            replacement = classmethod(make(raw.__func__))
        else:
            replacement = make(raw)
        setattr(owner, attr, replacement)
        self._undo.append((owner, attr, raw))

    def install(self):
        """Wrap every layer entry point in :data:`SPANS`."""
        for module_name, path, name, job_of in SPANS:
            self._patch(
                module_name, path,
                lambda fn, n=name, j=job_of: self._wrapper(fn, n, j),
            )
        self._patch(
            "repro.router.negotiation", "NegotiationState.begin_iteration",
            self._counting("negotiation.iterations"),
        )
        return self

    def uninstall(self):
        while self._undo:
            owner, attr, raw = self._undo.pop()
            setattr(owner, attr, raw)

    def _counting(self, key):
        def make(original):
            @functools.wraps(original)
            def wrapped(*args, **kwargs):
                self.counts[key] += 1
                return original(*args, **kwargs)
            return wrapped
        return make

    def harvest(self, session):
        """Fold one finished ``RoutingSession.route``'s trace totals."""
        trace = getattr(session, "trace", None)
        if trace is None:
            return
        totals = trace.totals()
        for key in ("calls", "heap_pops", "relaxations"):
            self.counts[f"graph.dijkstra.{key}"] += totals["dijkstra"].get(key, 0)
        for key in ("hits", "misses", "invalidations"):
            self.counts[f"graph.cache.{key}"] += totals["cache"].get(key, 0)
        self.counts["engine.passes"] += len(trace.pass_dicts())
        self.counts["engine.widths_tried"] += 1

    # -- output ----------------------------------------------------------
    def dump(self, path):
        """Write spans and counts as one JSON document."""
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"spans": self.spans, "counts": dict(self.counts)}, fh)


def load(path):
    with open(path, encoding="utf-8") as fh:
        doc = json.load(fh)
    return [tuple(s) for s in doc["spans"]], Counter(doc["counts"])


def span_totals(spans):
    """Per-name ``{"calls", "total_s", "self_s"}`` over ``spans``.

    Self time is a span's duration minus the time its child spans
    cover (children on one thread nest, so their durations add).
    """
    child_time = defaultdict(float)
    for _, parent, _, start, end, _, _ in spans:
        if parent:
            child_time[parent] += end - start
    out = defaultdict(lambda: {"calls": 0, "total_s": 0.0, "self_s": 0.0})
    for span_id, _, name, start, end, _, _ in spans:
        row = out[name]
        row["calls"] += 1
        row["total_s"] += end - start
        row["self_s"] += end - start - child_time[span_id]
    return dict(out)


def layer_metrics(totals, counts):
    """The per-layer metric values named in BENCHMARK.json."""
    def self_s(name):
        return totals.get(name, {}).get("self_s", 0.0)

    def calls(name):
        return totals.get(name, {}).get("calls", 0)

    out = {}
    for name in SPAN_NAMES:
        out[f"{name}_s"] = self_s(name)
        out[f"{name}_calls"] = calls(name)
    for key in (
        "graph.dijkstra.calls", "graph.dijkstra.heap_pops",
        "graph.dijkstra.relaxations", "graph.cache.hits",
        "graph.cache.misses", "graph.cache.invalidations",
        "negotiation.iterations", "engine.passes", "engine.widths_tried",
    ):
        out[key] = counts.get(key, 0)
    lookups = out["graph.cache.hits"] + out["graph.cache.misses"]
    out["graph.cache.hit_ratio"] = out["graph.cache.hits"] / lookups if lookups else 0.0
    return out


def _layer_table(spans, label, last_column):
    lines = [f"| layer | calls | self s | {label} |", "|---|---:|---:|---:|"]
    for name, row in sorted(spans.items(), key=lambda kv: -kv[1]["self_s"]):
        lines.append(
            f"| `{name}` | {row['calls']} | {row['self_s']:.3f} | "
            f"{last_column(row['self_s'])} |"
        )
    return lines


def render_report(report):
    """Markdown for one traced run's report dict."""
    name = report["workload"]
    out = [f"## {name}", "", f"Operation: {report['op']}.", ""]
    out.append(f"- set-up (median of 5): {report['setup_s']:.3f} s")
    if "op_s" in report:
        op_s, spans = report["op_s"], report["spans"]
        traced, untraced = report["traced_op_s"], report["untraced_op_s"]
        unattributed = op_s - sum(r["self_s"] for r in spans.values())
        out += [
            f"- one operation (median of {report['ops']}, scaled to the "
            f"reference host): traced {traced:.3f} s, untraced "
            f"{untraced:.3f} s; tracing overhead {traced / untraced - 1:+.1%}",
            f"- the table covers all {report['ops']} traced operations: "
            f"{op_s:.3f} s of wall time",
            "",
            *_layer_table(spans, "share of traced op", lambda s: f"{s / op_s:.1%}"),
            f"| unattributed (inside the op, outside every span) | | "
            f"{unattributed:.3f} | {unattributed / op_s:.1%} |",
            "",
            "Counts: " + ", ".join(
                f"`{k}`={v}" for k, v in sorted(report["counts"].items())
            ),
        ]
        axis = report.get("engine_axis_s")
        if axis:
            serial = axis["serial"]
            out += ["", "Engine axis (untraced, 2 workers, same sweep, "
                    "median of 3, scaled):", ""]
            out += [
                f"- `{engine}`: {s:.3f} s ({s / serial:.2f}x serial)"
                for engine, s in axis.items()
            ]
        return "\n".join(out) + "\n"

    jobs = report["jobs"]
    n = len(jobs)
    mean = {k: sum(j[k] for j in jobs) / n for k in jobs[0] if k != "job"}
    traced_p50 = sorted(j["latency"] for j in jobs)[n // 2]
    out += [
        f"- fresh jobs traced: {n}; latency p50 traced {traced_p50:.3f} s, "
        f"untraced {report['untraced_latency_p50_s']:.3f} s; tracing overhead "
        f"{traced_p50 / report['untraced_latency_p50_s'] - 1:+.1%}",
        "",
        "Where a fresh job's latency goes (mean over jobs; segments add up "
        "to the latency):",
        "",
        "| segment | mean s | share |",
        "|---|---:|---:|",
    ]
    segments = (
        ("submit: HTTP request and admission, to the journaled submit", "submit"),
        ("queue wait: submitted to claimed (worker poll)", "queue_wait"),
        ("run: route (RoutingSession.route, less checkpoint)", "route"),
        ("run: checkpoint writes", "checkpoint"),
        ("run: verify (verify_result level=full)", "verify"),
        ("run: other (journal, request load, result write; unattributed)", "run_other"),
        ("notification: done to terminal SSE state at the client", "notify"),
        ("result fetch: GET result over HTTP", "fetch"),
    )
    for label, key in segments:
        out.append(f"| {label} | {mean[key]:.4f} | {mean[key] / mean['latency']:.1%} |")
    out += [
        f"| **total latency** | {mean['latency']:.4f} | 100% |",
        "",
        f"Journal appends (write + fsync) on the job's behalf take "
        f"{mean['journal_fsync']:.4f} s per job "
        f"({mean['journal_fsync'] / mean['latency']:.1%}); they fall inside "
        "the submit, run and notification segments.",
        "",
        "Server layers, self time over the traced server's life "
        "(start-up replay included):",
        "",
        *_layer_table(report["spans"], "self s per fresh job", lambda s: f"{s / n:.4f}"),
    ]
    return "\n".join(out) + "\n"
