"""Per-pin-pair slack ratios for timing-driven negotiation.

PathFinder's timing-driven mode (and the slack-ratio table in the
cgra_pnr-style global routers that popularized it for island FPGAs)
blends two objectives per *connection* — one (source, sink) pin pair —
according to how critical that connection is:

    cost(u, v) = crit · base(u, v) + (1 − crit) · negotiated(u, v)

where ``crit`` is the connection's **slack ratio**: its Elmore delay in
the previous iteration's routing, divided by the worst Elmore delay of
any connection in the circuit (``Dmax``).  A connection on the critical
path has ratio exactly 1.0 and routes by pure base cost (the delay
proxy), ignoring congestion steering; a connection with lots of slack
has a ratio near 0 and yields freely to congestion avoidance.

The table is rebuilt after every negotiation iteration from the actual
routed trees via :mod:`repro.analysis.delay` — the "technology
sensitive" evaluation layer the paper motivates — so criticalities
track the routing as it changes.  Ratios are always in ``[0, 1]``, are
``0.0`` for any connection not in the table (first iteration, or a net
that failed to route), and are exactly ``1.0`` for the critical-path
sink(s).
"""

from __future__ import annotations

from typing import Dict, Hashable, Mapping, Optional, Tuple

from ..analysis.delay import RCParameters, elmore_delays
from ..errors import GraphError
from ..graph.core import Graph
from ..net import Net

Node = Hashable

#: a connection is one (net name, sink node) pair
ConnectionKey = Tuple[str, Node]


class SlackTable:
    """Criticality ratios per connection, plus critical-path metadata.

    Build with :meth:`from_trees`; query with :meth:`criticality`.
    ``dmax`` is the circuit's critical-path Elmore delay (0.0 when the
    table is empty or every delay is zero, in which case every ratio
    is 0.0 and routing degrades gracefully to wirelength-only).
    """

    __slots__ = ("_ratios", "dmax", "critical")

    def __init__(
        self,
        ratios: Optional[Dict[ConnectionKey, float]] = None,
        dmax: float = 0.0,
        critical: Optional[ConnectionKey] = None,
    ) -> None:
        self._ratios = ratios or {}
        self.dmax = dmax
        self.critical = critical

    @classmethod
    def from_trees(
        cls,
        trees: Mapping[str, Graph],
        nets: Mapping[str, Net],
        rc: Optional[RCParameters] = None,
    ) -> "SlackTable":
        """Slack ratios from one iteration's routed trees.

        ``trees`` maps net name → routed tree (base weights); ``nets``
        maps net name → the :class:`~repro.net.Net` it realizes.  Nets
        present in ``nets`` but absent from ``trees`` (not yet routed)
        simply contribute no connections.  Iteration order is fixed by
        sorted net names so the resulting floats — and the critical
        connection chosen on ties — are machine-independent.
        """
        rc = rc or RCParameters()
        delays: Dict[ConnectionKey, float] = {}
        for name in sorted(trees):
            net = nets.get(name)
            if net is None:
                raise GraphError(f"tree for unknown net {name!r}")
            sink_delay = elmore_delays(trees[name], net, rc)
            for sink in net.sinks:
                if sink not in sink_delay:
                    raise GraphError(
                        f"net {name!r}: sink {sink!r} missing from its "
                        f"routed tree"
                    )
                delays[(name, sink)] = sink_delay[sink]
        if not delays:
            return cls()
        dmax = max(delays.values())
        if dmax <= 0.0:
            # an all-zero-delay circuit (e.g. zero RC parameters) has
            # no meaningful criticality ordering
            return cls(dict.fromkeys(delays, 0.0), 0.0, None)
        ratios = {key: d / dmax for key, d in delays.items()}
        critical = min(
            (key for key, r in ratios.items() if r == 1.0),
            key=repr,
        )
        return cls(ratios, dmax, critical)

    def criticality(self, net_name: str, sink: Node) -> float:
        """The connection's slack ratio in ``[0, 1]`` (0.0 if unknown)."""
        return self._ratios.get((net_name, sink), 0.0)

    def __len__(self) -> int:
        return len(self._ratios)

    def items(self):
        return self._ratios.items()


def critical_path_delay(
    trees: Mapping[str, Graph],
    nets: Mapping[str, Net],
    rc: Optional[RCParameters] = None,
) -> float:
    """Worst Elmore sink delay over every routed net (the Dmax metric)."""
    rc = rc or RCParameters()
    worst = 0.0
    for name in sorted(trees):
        net = nets.get(name)
        if net is None:
            continue
        delays = elmore_delays(trees[name], net, rc)
        for sink in net.sinks:
            d = delays.get(sink, 0.0)
            if d > worst:
                worst = d
    return worst
