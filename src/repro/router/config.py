"""Router configuration knobs.

Defaults follow Section 5: up to 20 routing passes ("we arbitrarily set
this feasibility threshold to 20 passes"), IKMB as the default tree
algorithm (the one used for the paper's channel-width headline results),
and congestion-aware edge re-weighting after every routed net.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Optional

from ..errors import RoutingError
from ..graph.search import SEARCH_BACKENDS

#: algorithms the router can dispatch per net
ALGORITHMS = (
    "kmb", "zel", "ikmb", "izel",      # Steiner (wirelength)
    "djka", "dom", "pfa", "idom",      # arborescence (pathlength first)
    "two_pin",                         # decomposition baseline (≈ CGE/SEGA)
)

#: self-verification modes (see docs/validation.md): "off" — no
#: checking (bit-identical to historical behaviour); "final" — run the
#: independent checker once on the finished result; "pass" — verify
#: every committed pass and quarantine-and-repair violating nets
VERIFY_MODES = ("off", "final", "pass")

#: top-level routing strategies: "paper" — the paper's rip-up-and-retry
#: loop over disjoint committed nets (historical behaviour); "negotiate"
#: — PathFinder negotiated congestion (transient overuse, per-node
#: present × history costs, optional timing-driven slack-ratio blend —
#: see docs/pathfinder.md)
MODES = ("paper", "negotiate")


@dataclass(frozen=True, kw_only=True)
class RouterConfig:
    """Tunable behaviour of a route.

    A :class:`repro.engine.RoutingSession` is what a config drives.
    All fields are keyword-only: ``RouterConfig(algorithm="kmb",
    max_passes=5)``.  Positional construction was never part of the
    documented API and silently broke whenever a field was added.

    Parameters
    ----------
    algorithm:
        Per-net tree construction; one of :data:`ALGORITHMS`.
    max_passes:
        Feasibility threshold — the circuit is declared unroutable at
        the current channel width after this many move-to-front passes.
    congestion:
        Enable congestion re-weighting of channel segments after each
        net (§5: "the edge weights are updated to reflect the new
        congestion values").
    congestion_alpha:
        Strength of the congestion penalty: a span with utilization u
        has its remaining segment edges weighted
        ``base · (1 + alpha · u)``.
    steiner_candidate_depth:
        BFS depth around a net's seed tree from which the iterated
        algorithms (IKMB/IZEL/IDOM) draw Steiner candidates.  The
        paper-faithful "all of V − N" scan is exact but quadratic in
        the routing-graph size; the ablation bench quantifies the gap.
    max_steiner_nodes:
        Safety cap on accepted Steiner candidates per net.
    order:
        Initial net ordering: ``"pins_desc"`` (high-fanout first, the
        default), ``"hpwl_desc"``, or ``"input"``.
    critical_algorithm:
        Optional second algorithm for *critical* nets (§2: "nets may be
        classified as either critical or non-critical based on timing
        information from the higher-level design stages").  When set,
        critical nets route with this algorithm (typically ``"pfa"`` or
        ``"idom"``) and the rest with ``algorithm``.
    critical_nets:
        Explicit net names to treat as critical.
    critical_fraction:
        Alternatively, classify this fraction of nets (by descending
        half-perimeter — the long-path proxy the paper sketches) as
        critical.  Ignored when ``critical_nets`` is given.
    pass_timeout_s:
        Wall-clock budget for one move-to-front pass.  ``None`` (the
        default) is unbounded; exceeding the budget aborts the session
        with an :class:`~repro.errors.EngineTimeoutError` carrying the
        partial progress statistics.
    route_timeout_s:
        Wall-clock budget for routing a single net (the deadline is
        polled inside Dijkstra, so even a pathological search cannot
        stall a pass).  ``None`` is unbounded.
    max_relaxations:
        Edge-relaxation budget for any single Dijkstra run — a hard
        operation bound that is deterministic across machines, unlike
        the wall-clock deadlines.  ``None`` is unbounded.
    search:
        How negotiated searches run (negotiate mode only), one of
        :data:`~repro.graph.search.SEARCH_BACKENDS`.  ``"astar"`` (the
        default) searches goal-directed under the channel-lattice
        Manhattan lower bound; ``"dijkstra"`` runs the plain kernel.
        Neither dominates: A* routes faster, plain Dijkstra sometimes
        finds a narrower minimum width, and the two can route
        different trees (``docs/pathfinder.md``).  Paper mode ignores
        the field: its distances always come from cached single-source
        trees.
    mode:
        Top-level routing strategy, one of :data:`MODES`.  ``"paper"``
        (default) is the paper's rip-up-and-retry loop over disjoint
        committed nets; ``"negotiate"`` is PathFinder negotiated
        congestion — every net stays routed, junctions may be
        transiently shared, and per-node present × history costs
        negotiate the overuse away (``docs/pathfinder.md``).  In
        negotiate mode ``algorithm`` selects only the tag-compatible
        connection router; congestion re-weighting and the
        move-to-front pass loop do not apply.
    timing:
        Timing-driven negotiation (negotiate mode only): build a
        per-connection slack-ratio table from Elmore delays of the
        previous iteration's trees and blend base-cost vs negotiated
        cost by criticality, so critical-path connections take direct
        routes and slack connections absorb the detours.
    negotiate_iterations:
        Iteration budget for negotiation.  Exhausting it without
        reaching zero overuse raises
        :class:`~repro.errors.UnroutableError` naming the still-
        contended nets.
    negotiate_present_factor:
        Present-cost slope ``p``: an occupied junction costs
        ``1 + p · g^(iteration-1) · occupancy`` times base, so
        contention pressure sharpens every iteration.
    negotiate_growth:
        Present-cost schedule base ``g`` (≥ 1): the per-iteration
        geometric sharpening of the present cost.  ``1.0`` freezes the
        schedule (constant present cost, history does all the work);
        the default ``1.3`` makes sharing prohibitively expensive well
        inside the iteration budget, which is what forces convergence
        on tightly congested devices.
    negotiate_history_gain:
        History increment per unit of overuse per iteration — the
        long-term memory that breaks present-cost oscillation.
    negotiate_stall:
        Oscillation guard: abort (unroutable) when total overuse fails
        to improve for this many consecutive iterations.
    verify:
        Self-verification mode, one of :data:`VERIFY_MODES`.
        ``"off"`` (default) changes nothing; ``"final"`` certifies the
        finished result with the independent checker
        (:func:`repro.validate.verify_result`) and raises
        :class:`~repro.errors.VerificationError` on violations;
        ``"pass"`` additionally checks every committed pass and
        rip-up-reroutes violating nets (bounded retries) before
        quarantining them — see ``docs/validation.md``.
    """

    algorithm: str = "ikmb"
    max_passes: int = 20
    congestion: bool = True
    congestion_alpha: float = 2.0
    steiner_candidate_depth: int = 2
    max_steiner_nodes: int = 8
    order: str = "pins_desc"
    critical_algorithm: Optional[str] = None
    critical_nets: Optional[frozenset] = None
    critical_fraction: float = 0.0
    pass_timeout_s: Optional[float] = None
    route_timeout_s: Optional[float] = None
    max_relaxations: Optional[int] = None
    search: str = "astar"
    verify: str = "off"
    mode: str = "paper"
    timing: bool = False
    negotiate_iterations: int = 40
    negotiate_present_factor: float = 0.5
    negotiate_growth: float = 1.3
    negotiate_history_gain: float = 0.4
    negotiate_stall: int = 8

    def __post_init__(self) -> None:
        if self.mode not in MODES:
            raise RoutingError(
                f"unknown mode {self.mode!r}; expected one of {MODES}"
            )
        if self.timing and self.mode != "negotiate":
            raise RoutingError(
                "timing=True requires mode='negotiate' (slack ratios "
                "only steer the negotiated cost blend)"
            )
        if self.negotiate_iterations < 1:
            raise RoutingError("negotiate_iterations must be >= 1")
        if self.negotiate_present_factor <= 0:
            raise RoutingError("negotiate_present_factor must be positive")
        if self.negotiate_growth < 1.0:
            raise RoutingError("negotiate_growth must be >= 1.0")
        if self.negotiate_history_gain <= 0:
            raise RoutingError("negotiate_history_gain must be positive")
        if self.negotiate_stall < 1:
            raise RoutingError("negotiate_stall must be >= 1")
        if self.verify not in VERIFY_MODES:
            raise RoutingError(
                f"unknown verify mode {self.verify!r}; "
                f"expected one of {VERIFY_MODES}"
            )
        if self.search not in SEARCH_BACKENDS:
            raise RoutingError(
                f"unknown search backend {self.search!r}; "
                f"expected one of {SEARCH_BACKENDS}"
            )
        if self.algorithm not in ALGORITHMS:
            raise RoutingError(
                f"unknown algorithm {self.algorithm!r}; "
                f"expected one of {ALGORITHMS}"
            )
        if self.max_passes < 1:
            raise RoutingError("max_passes must be >= 1")
        if self.congestion_alpha < 0:
            raise RoutingError("congestion_alpha must be >= 0")
        if self.order not in ("pins_desc", "hpwl_desc", "input"):
            raise RoutingError(f"unknown net order {self.order!r}")
        if self.critical_algorithm is not None:
            if self.critical_algorithm not in ALGORITHMS:
                raise RoutingError(
                    f"unknown critical algorithm "
                    f"{self.critical_algorithm!r}"
                )
            if self.critical_algorithm == "two_pin":
                raise RoutingError(
                    "two_pin cannot serve as the critical-net algorithm"
                )
        if not 0.0 <= self.critical_fraction <= 1.0:
            raise RoutingError("critical_fraction must be in [0, 1]")
        if self.pass_timeout_s is not None and self.pass_timeout_s <= 0:
            raise RoutingError("pass_timeout_s must be positive")
        if self.route_timeout_s is not None and self.route_timeout_s <= 0:
            raise RoutingError("route_timeout_s must be positive")
        if self.max_relaxations is not None and self.max_relaxations < 1:
            raise RoutingError("max_relaxations must be >= 1")
        if self.critical_nets is not None and not isinstance(
            self.critical_nets, frozenset
        ):
            object.__setattr__(
                self, "critical_nets", frozenset(self.critical_nets)
            )

    def with_algorithm(self, algorithm: str) -> "RouterConfig":
        """Copy of this config running a different per-net algorithm."""
        return replace(self, algorithm=algorithm)
