"""The detailed FPGA router of Section 5.

One-net-at-a-time routing with pluggable tree construction, congestion
re-weighting, resource commitment, and minimum-channel-width search.
The move-to-front loop (≤ 20 passes) that drives the per-net router is
:class:`repro.engine.RoutingSession`'s.
"""

from .channel_width import estimate_lower_bound, minimum_channel_width
from .config import ALGORITHMS, MODES, RouterConfig
from .congestion import CongestionModel
from .negotiation import NEGOTIATE_ALGORITHM, NegotiationState
from .result import NetRoute, RoutingResult, measure_route
from .router import FPGARouter, steiner_candidates_near_tree
from .timing import SlackTable, critical_path_delay

__all__ = [
    "estimate_lower_bound",
    "minimum_channel_width",
    "ALGORITHMS",
    "MODES",
    "NEGOTIATE_ALGORITHM",
    "NegotiationState",
    "SlackTable",
    "critical_path_delay",
    "RouterConfig",
    "CongestionModel",
    "NetRoute",
    "RoutingResult",
    "measure_route",
    "FPGARouter",
    "steiner_candidates_near_tree",
]
