"""Structured observability for the routing engine.

The engine emits one :class:`PassRecord` per move-to-front pass —
wall-clock seconds, batch-size profile, routed/failed net counts,
speculative-commit vs. conflict-fallback tallies, Dijkstra operation
counters (delta for the pass), shortest-path-cache accounting, graph
mutation counts, and a channel-utilization histogram — collected by a
:class:`TraceRecorder` and dumped as a single JSON document.

The trace is a stable, versioned schema (:data:`TRACE_SCHEMA`) so it
can be consumed away from the process that produced it:
``repro.analysis.report`` renders it into the markdown report and
``python -m repro report --trace out.json`` does so from the CLI.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import (
    IO, Callable, Dict, Iterable, List, Optional, Set, Tuple, Union,
)

from ..fpga.routing_graph import GroupKey, RoutingResourceGraph

#: trace document schema identifier, the only one :func:`load_trace`
#: accepts
TRACE_SCHEMA = "repro.engine/trace-v4"

#: channel-utilization histogram bucket count (utilization ∈ [0, 1])
HISTOGRAM_BINS = 10


def congestion_histogram(
    rrg: RoutingResourceGraph,
    bins: int = HISTOGRAM_BINS,
    trees: Optional[Iterable[Iterable[Tuple]]] = None,
) -> Dict[str, object]:
    """Histogram of channel-span utilization over the whole device.

    Utilization is the fraction of a span's tracks consumed
    (:meth:`RoutingResourceGraph.group_utilization`).  PathFinder never
    consumes the graph, so negotiation passes the routed trees' edge
    lists as ``trees`` instead: a span's utilization is then the number
    of distinct tracks those edges use in it ÷ W (shared tracks count
    once).  Bucket ``i`` counts spans with utilization in
    ``[i/bins, (i+1)/bins)``; fully used spans land in the last bucket.
    """
    utilization = rrg.group_utilization
    if trees is not None:
        used: Dict[GroupKey, Set[int]] = {}
        for edges in trees:
            for u, v in edges:
                info = rrg.segment_info(u, v)
                if info is not None:
                    used.setdefault(info.group, set()).add(info.track)
        width = rrg.num_tracks

        def utilization(group: GroupKey) -> float:
            return len(used.get(group, ())) / width

    counts = [0] * bins
    total = 0.0
    peak = 0.0
    n = 0
    for group in rrg.groups():
        u = utilization(group)
        idx = min(int(u * bins), bins - 1)
        counts[idx] += 1
        total += u
        peak = max(peak, u)
        n += 1
    return {
        "bins": bins,
        "counts": counts,
        "spans": n,
        "mean": round(total / n, 4) if n else 0.0,
        "max": round(peak, 4),
    }


@dataclass
class PassRecord:
    """Everything the engine observed during one routing pass."""

    index: int
    seconds: float
    batch_sizes: List[int]
    nets_routed: int
    nets_failed: int
    failed_nets: List[str]
    #: nets committed straight from a speculative (parallel) route
    speculative_commits: int
    #: speculative routes invalidated by a conflict and re-routed serially
    conflict_reroutes: int
    #: nets routed inline (serial engine, singleton batches, two_pin)
    serial_routes: int
    dijkstra: Dict[str, int]
    cache: Dict[str, int]
    graph_mutations: int
    congestion: Dict[str, object]
    #: task dispatches re-attempted after a crash or pool breakage
    retries: int = 0
    #: per-pass verification summary (verify="pass" only):
    #: {"checked", "violations", "repaired", "quarantined"}
    verify: Optional[Dict[str, int]] = None
    #: per-iteration negotiation summary (mode="negotiate" only):
    #: {"iteration", "overuse", "overused_nodes", "history_norm",
    #:  "critical_path_delay"} — see docs/pathfinder.md
    negotiation: Optional[Dict[str, object]] = None

    def to_dict(self) -> Dict[str, object]:
        doc = {
            "pass": self.index,
            "seconds": round(self.seconds, 6),
            "batches": len(self.batch_sizes),
            "batch_sizes": self.batch_sizes,
            "max_batch_size": max(self.batch_sizes, default=0),
            "nets_routed": self.nets_routed,
            "nets_failed": self.nets_failed,
            "failed_nets": self.failed_nets,
            "speculative_commits": self.speculative_commits,
            "conflict_reroutes": self.conflict_reroutes,
            "serial_routes": self.serial_routes,
            "dijkstra": dict(self.dijkstra),
            "cache": dict(self.cache),
            "graph_mutations": self.graph_mutations,
            "congestion": self.congestion,
            "retries": self.retries,
        }
        if self.verify is not None:
            doc["verify"] = dict(self.verify)
        if self.negotiation is not None:
            doc["negotiation"] = dict(self.negotiation)
        return doc


@dataclass
class TraceRecorder:
    """Accumulates pass records and session metadata into a trace doc."""

    circuit: str
    engine: str
    architecture: Dict[str, object]
    config: Dict[str, object]
    passes: List[PassRecord] = field(default_factory=list)
    outcome: str = "incomplete"
    channel_width: Optional[int] = None
    passes_used: Optional[int] = None
    total_wirelength: Optional[float] = None
    #: resilience events: retries, pool rebuilds, engine degradations,
    #: timeouts, checkpoint writes — in occurrence order
    events: List[Dict] = field(default_factory=list)
    #: pass dicts restored from a checkpoint when the session resumed
    restored_passes: List[Dict] = field(default_factory=list)
    #: where the session resumed from (path + pass), if it did
    resumed_from: Optional[Dict] = None
    #: engine actually in use at the end of the run (differs from
    #: ``engine`` only after a degradation)
    engine_final: Optional[str] = None
    #: optional live sink: called with each event dict (and each pass,
    #: wrapped as a ``{"type": "pass", ...}`` event) as it is recorded,
    #: so long-running consumers (the job service's per-job logs) can
    #: stream progress instead of waiting for the final document.
    #: Listener failures are swallowed — observability must never be
    #: able to fail a routing run.
    listener: Optional[Callable[[Dict], None]] = field(
        default=None, repr=False, compare=False
    )

    def _emit(self, event: Dict) -> None:
        if self.listener is not None:
            try:
                self.listener(event)
            except Exception:  # pragma: no cover - listener bug
                pass

    def record_pass(self, record: PassRecord) -> None:
        self.passes.append(record)
        self._emit({"type": "pass", **record.to_dict()})

    def record_event(self, event: Dict) -> None:
        """Append one resilience event (retry/degradation/checkpoint)."""
        self.events.append(dict(event))
        self._emit(dict(event))

    def finish(
        self,
        outcome: str,
        *,
        passes_used: Optional[int] = None,
        total_wirelength: Optional[float] = None,
    ) -> None:
        """Stamp the session outcome (``complete`` / ``unroutable``)."""
        self.outcome = outcome
        self.passes_used = passes_used
        self.total_wirelength = (
            round(total_wirelength, 4) if total_wirelength is not None else None
        )

    def pass_dicts(self) -> List[Dict]:
        """Every pass as a serialized dict — restored ones first.

        A resumed session's trace covers the *whole* logical run: the
        passes replayed from the checkpoint plus the ones it routed
        itself, with continuous pass numbering.
        """
        return list(self.restored_passes) + [
            p.to_dict() for p in self.passes
        ]

    def totals(self) -> Dict[str, object]:
        agg = {
            "seconds": 0.0,
            "nets_routed": 0,
            "speculative_commits": 0,
            "conflict_reroutes": 0,
            "serial_routes": 0,
            "graph_mutations": 0,
            "retries": 0,
        }
        dijkstra = {
            "calls": 0,
            "heap_pops": 0,
            "relaxations": 0,
            "pruned": 0,
        }
        cache = {"hits": 0, "misses": 0, "invalidations": 0}
        passes = self.pass_dicts()
        for p in passes:
            agg["seconds"] += p.get("seconds", 0.0)
            agg["nets_routed"] += p.get("nets_routed", 0)
            agg["speculative_commits"] += p.get("speculative_commits", 0)
            agg["conflict_reroutes"] += p.get("conflict_reroutes", 0)
            agg["serial_routes"] += p.get("serial_routes", 0)
            agg["graph_mutations"] += p.get("graph_mutations", 0)
            agg["retries"] += p.get("retries", 0)
            for k in dijkstra:
                dijkstra[k] += p.get("dijkstra", {}).get(k, 0)
            for k in cache:
                cache[k] += p.get("cache", {}).get(k, 0)
        agg["seconds"] = round(agg["seconds"], 6)
        agg["dijkstra"] = dijkstra
        agg["cache"] = cache
        verify = {"checked": 0, "violations": 0, "repaired": 0,
                  "quarantined": 0}
        verified_passes = 0
        for p in passes:
            block = p.get("verify")
            if block:
                verified_passes += 1
                for k in verify:
                    verify[k] += block.get(k, 0)
        if verified_passes:
            agg["verify"] = verify
        agg["max_batch_size"] = max(
            (max(p.get("batch_sizes", []), default=0) for p in passes),
            default=0,
        )
        return agg

    def to_dict(self) -> Dict[str, object]:
        return {
            "schema": TRACE_SCHEMA,
            "circuit": self.circuit,
            "engine": self.engine,
            "engine_final": self.engine_final or self.engine,
            "architecture": self.architecture,
            "config": self.config,
            "outcome": self.outcome,
            "channel_width": self.channel_width,
            "passes_used": self.passes_used,
            "total_wirelength": self.total_wirelength,
            "resumed_from": self.resumed_from,
            "events": list(self.events),
            "passes": self.pass_dicts(),
            "totals": self.totals(),
        }

    def write(self, destination: Union[str, IO[str]]) -> None:
        """Serialize the trace as JSON to a path or open text file."""
        doc = self.to_dict()
        if hasattr(destination, "write"):
            json.dump(doc, destination, indent=2)
            destination.write("\n")
        else:
            with open(destination, "w", encoding="utf-8") as fh:
                json.dump(doc, fh, indent=2)
                fh.write("\n")


def load_trace(source: Union[str, IO[str]]) -> Dict[str, object]:
    """Load and sanity-check a trace document written by ``write``.

    Raises :class:`ValueError` unless the file holds a JSON object whose
    ``schema`` is :data:`TRACE_SCHEMA`.
    """
    if hasattr(source, "read"):
        doc = json.load(source)
    else:
        with open(source, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    schema = doc.get("schema") if isinstance(doc, dict) else None
    if schema != TRACE_SCHEMA:
        raise ValueError(
            f"not an engine trace (schema {schema!r}, "
            f"expected {TRACE_SCHEMA!r})"
        )
    return doc
