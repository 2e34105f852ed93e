"""Minimum-channel-width search (the paper's headline metric).

"In our router, maximum channel width serves as an upper-bound input
parameter when routing a circuit. ... Thus, for each circuit we find
the smallest maximum channel width necessary to completely route the
circuit."  (§5)

The search scans upward from a congestion-based lower-bound estimate;
routability is effectively monotone in W, so the first success is the
minimum (an optional downward verification pass can confirm it).
"""

from __future__ import annotations

import math
from typing import Callable, Dict, Optional, Tuple

from ..errors import RoutingError, UnroutableError
from ..fpga.architecture import Architecture
from ..fpga.netlist import PlacedCircuit
from .config import RouterConfig
from .result import RoutingResult


def estimate_lower_bound(circuit: PlacedCircuit) -> int:
    """A cheap channel-width lower bound from net bounding boxes.

    Each net must cross every channel column/row interior to its
    bounding box at least once; dividing the per-channel crossing
    demand by the number of spans in that channel bounds the tracks
    needed.  This is the classic HPWL-density argument — optimistic,
    but it saves several futile routing attempts.
    """
    # demand[("V", x)] = nets whose bbox spans vertical channel x, etc.
    v_demand: Dict[int, int] = {}
    h_demand: Dict[int, int] = {}
    for net in circuit.nets:
        x0, y0, x1, y1 = net.bounding_box()
        for x in range(x0 + 1, x1 + 1):
            v_demand[x] = v_demand.get(x, 0) + 1
        for y in range(y0 + 1, y1 + 1):
            h_demand[y] = h_demand.get(y, 0) + 1
    best = 1
    for x, d in v_demand.items():
        best = max(best, math.ceil(d / max(1, circuit.rows)))
    for y, d in h_demand.items():
        best = max(best, math.ceil(d / max(1, circuit.cols)))
    return best


def minimum_channel_width(
    circuit: PlacedCircuit,
    family_builder: Callable[[int, int, int], Architecture],
    config: Optional[RouterConfig] = None,
    w_start: Optional[int] = None,
    w_max: int = 40,
    pins_per_block: Optional[int] = None,
    *,
    engine: str = "serial",
    max_workers: Optional[int] = None,
    trace=None,
    checkpoint: Optional[str] = None,
    resume: Optional[str] = None,
    on_trace_event=None,
) -> Tuple[int, RoutingResult]:
    """Find the smallest W at which ``circuit`` routes completely.

    Parameters
    ----------
    circuit:
        The placed design.
    family_builder:
        ``(rows, cols, W) → Architecture`` — e.g. ``xc3000`` or
        ``xc4000`` (Fc scaling with W is the builder's business).
    config:
        Router configuration (algorithm, pass budget, ...).
    w_start:
        First width to try; defaults to the HPWL lower bound.
    w_max:
        Give up (raise :class:`RoutingError`) beyond this width.
    pins_per_block:
        Override the architecture's pin-slot count (must cover the
        circuit's placement).
    engine:
        Routing-engine name (``serial``/``thread``/``process``); the
        default serial engine is the reference loop.
    max_workers:
        Worker-pool size for the parallel engines.
    trace:
        Path or open text file: write the JSON engine trace of the
        *successful* width attempt there.
    checkpoint:
        File to checkpoint the in-flight width attempt into after every
        committed pass.  The same path is reused as the sweep advances
        to wider channels (each attempt overwrites it), and the file is
        removed once a width succeeds.
    resume:
        Checkpoint file from an interrupted sweep.  A missing file is
        fine (the sweep simply starts fresh); an existing one restarts
        the sweep at the checkpointed width — resuming mid-attempt if
        that width was still in progress, or at the next width if the
        checkpoint already recorded it as unroutable.
    on_trace_event:
        Live trace-event sink handed to each width attempt's session
        (see :class:`~repro.engine.RoutingSession`); the job service
        streams these into per-job logs.

    Returns
    -------
    (width, result):
        The minimum width and the complete routing obtained there.
    """
    from ..engine import RoutingSession  # lazy: avoids an import cycle
    from ..engine.checkpoint import check_compatible, load_checkpoint
    from ..errors import CheckpointError

    start = w_start if w_start is not None else estimate_lower_bound(circuit)
    start = max(1, start)
    resume_width: Optional[int] = None
    if resume is not None:
        state = load_checkpoint(resume, missing_ok=True)
        if state is not None:
            # The architecture legitimately varies across the sweep, so
            # only the circuit and config must match.
            check_compatible(
                state, circuit=circuit, config=config or RouterConfig(),
                path=resume,
            )
            width_seen = state.get("channel_width")
            if not isinstance(width_seen, int):
                raise CheckpointError(
                    f"{resume}: checkpoint records no channel width"
                )
            if state.get("outcome") == "in_progress":
                # resume inside this width's negotiation
                resume_width = width_seen
                start = width_seen
            else:
                # that width is settled (unroutable); skip past it
                start = width_seen + 1
    last_error: Optional[UnroutableError] = None
    for width in range(start, w_max + 1):
        arch = family_builder(circuit.rows, circuit.cols, width)
        if pins_per_block is not None and pins_per_block != arch.pins_per_block:
            from dataclasses import replace

            arch = replace(arch, pins_per_block=pins_per_block)
        session = RoutingSession(
            arch, config, engine=engine, max_workers=max_workers,
            on_trace_event=on_trace_event,
        )
        try:
            result = session.route(
                circuit,
                checkpoint=checkpoint,
                resume=resume if width == resume_width else None,
            )
        except UnroutableError as exc:
            last_error = exc
            continue
        if trace is not None:
            session.write_trace(trace)
        return width, result
    if last_error is not None:
        # re-raise the widest attempt's failure so callers see *which*
        # nets were still failing, not just that the sweep gave up
        raise UnroutableError(
            last_error.channel_width,
            last_error.passes,
            last_error.failed_nets,
        ) from last_error
    raise RoutingError(f"{circuit.name}: unroutable up to W={w_max}")
