"""The routing engine: batched, instrumented, executor-driven routing.

This subsystem grows the paper's one-net-at-a-time router (§5) into a
session-oriented engine in the spirit of modern parallel FPGA routers
(ParaLarH, arXiv:2010.11893; the open-source parallel router of
arXiv:2407.00009):

* :class:`RoutingSession` — drives the move-to-front negotiation loop,
  partitioning each pass's net queue into *congestion-independent
  batches* (nets whose expanded bounding regions don't overlap) and
  routing batches through a pluggable executor,
* :mod:`repro.engine.batching` — the region-disjointness partitioner,
* :mod:`repro.engine.executors` — ``serial`` / ``thread`` / ``process``
  execution strategies with identical task semantics,
* :mod:`repro.engine.instrumentation` — per-pass timings, Dijkstra
  call/heap-pop/relaxation counters, cache accounting, congestion
  histograms, resilience events, and the JSON trace consumed by
  ``repro.analysis.report``,
* :mod:`repro.engine.retry` / :class:`ExecutorSupervisor` — crashed
  tasks retry with bounded deterministic backoff; a broken pool is
  rebuilt once and then degraded ``process → thread → serial``,
* :mod:`repro.engine.checkpoint` — versioned checkpoint/resume of the
  negotiation state after every committed pass,
* :mod:`repro.engine.faults` — the scripted fault-injection harness
  (``REPRO_FAULTS``) the resilience tests and CI smoke job drive.

``engine="serial"`` is the default and the reference loop; the
parallel engines route each batch speculatively against a snapshot and
fall back to serial re-routing on resource conflicts, so every result
is always a valid (electrically disjoint) routing.
"""

from .batching import (
    DEFAULT_BATCH_MARGIN,
    net_region,
    partition_batches,
    regions_overlap,
)
from .checkpoint import (
    CHECKPOINT_SCHEMA,
    load_checkpoint,
    save_checkpoint,
    sweep_stale_tmp,
)
from .executors import (
    DEGRADATION_LADDER,
    ENGINES,
    ExecutorSupervisor,
    create_executor,
)
from .faults import FaultInjected, FaultPlan, SimulatedCrash, service_crash
from .instrumentation import (
    TRACE_SCHEMA,
    congestion_histogram,
    load_trace,
    TraceRecorder,
)
from .retry import RetryPolicy, map_with_recovery
from .session import RoutingSession

__all__ = [
    "RoutingSession",
    "ENGINES",
    "DEGRADATION_LADDER",
    "create_executor",
    "ExecutorSupervisor",
    "DEFAULT_BATCH_MARGIN",
    "net_region",
    "partition_batches",
    "regions_overlap",
    "TraceRecorder",
    "TRACE_SCHEMA",
    "congestion_histogram",
    "load_trace",
    "CHECKPOINT_SCHEMA",
    "save_checkpoint",
    "load_checkpoint",
    "sweep_stale_tmp",
    "FaultPlan",
    "FaultInjected",
    "SimulatedCrash",
    "service_crash",
    "RetryPolicy",
    "map_with_recovery",
]
