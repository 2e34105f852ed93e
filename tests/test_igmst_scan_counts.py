"""Deterministic search counts of the IKMB ΔH scan on a routing graph.

The scan's speed comes from doing fewer searches, not faster ones, so
it is gated on counts, which repeat exactly, rather than on timings:

* a two-terminal net evaluates no Steiner candidate at all;
* on a multi-pin net with at least ``WARM_CANDIDATES`` candidates the
  round roots one SSSP per member of N ∪ S up front, and the scan
  itself then runs no full SSSP: every candidate's distance to a member
  is a lookup in that member's tree.  The only searches left in it are
  the early-exit runs behind canonical paths rooted at a candidate.

The cache is the router's (``source_rooted=True``), as
:meth:`FPGARouter._route_one` builds it.
"""

from __future__ import annotations

from repro.fpga import RoutingResourceGraph, pin_node, xc4000
from repro.graph import (
    DijkstraCounters,
    ShortestPathCache,
    set_dijkstra_counters,
)
from repro.net import Net
from repro.router import RouterConfig
from repro.router.router import route_net_tree
from repro.steiner import KMB_HEURISTIC
from repro.steiner.iterated import WARM_CANDIDATES

TWO_PIN = Net(source=pin_node(0, 0, 0), sinks=(pin_node(4, 3, 1),))
MULTI_PIN = Net(
    source=pin_node(0, 0, 0),
    sinks=(
        pin_node(4, 4, 1),
        pin_node(0, 4, 2),
        pin_node(4, 0, 3),
        pin_node(2, 2, 0),
    ),
)


def scan_record(net, monkeypatch):
    """Route ``net`` with IKMB and record every search the ΔH scan
    makes, per evaluated candidate."""
    arch = xc4000(5, 5, 4)
    rrg = RoutingResourceGraph(arch)
    rrg.detach_all_pins()
    rrg.attach_pins(net.terminals)
    cache = ShortestPathCache(rrg.graph, source_rooted=True)

    runs = []  # (source, targets) of every canonical Dijkstra run
    plain_run = ShortestPathCache._plain_run

    def recording_run(self, source, targets=None):
        runs.append((source, None if targets is None else tuple(targets)))
        return plain_run(self, source, targets=targets)

    counters = DijkstraCounters()
    rounds = []  # one record per scan round
    round_fn = KMB_HEURISTIC.round_fn

    def mark():
        return len(runs), counters.calls

    def recording_round(graph, members, cache):
        scan = {"members": list(members), "evaluated": [], "start": mark()}
        rounds.append(scan)
        cost = round_fn(graph, members, cache)

        def evaluate(t):
            scan["evaluated"].append(t)
            value = cost(t)
            scan["end"] = mark()
            return value

        return evaluate

    monkeypatch.setattr(ShortestPathCache, "_plain_run", recording_run)
    monkeypatch.setattr(KMB_HEURISTIC, "round_fn", recording_round)
    previous = set_dijkstra_counters(counters)
    try:
        tree = route_net_tree(rrg.graph, net, cache, "ikmb", RouterConfig())
    finally:
        set_dijkstra_counters(previous)
        monkeypatch.undo()
    return tree, rounds, runs, counters


def test_two_terminal_net_evaluates_no_candidates(monkeypatch):
    tree, rounds, _, _ = scan_record(TWO_PIN, monkeypatch)
    assert rounds == []
    assert tree.algorithm == "IKMB"
    assert tree.steiner_nodes == ()


def test_multi_pin_scan_runs_only_candidate_rooted_paths(monkeypatch):
    tree, rounds, runs, counters = scan_record(MULTI_PIN, monkeypatch)
    big = [r for r in rounds if len(r["evaluated"]) >= WARM_CANDIDATES]
    assert big, "expected a round with enough candidates to warm"
    early_exits = 0
    for scan in big:
        (run0, calls0), (run1, calls1) = scan["start"], scan["end"]
        # the round rooted one full SSSP at every member before scanning
        warmed = {s for s, targets in runs[:run0] if targets is None}
        assert set(scan["members"]) <= warmed
        # ... so the scan ran no full SSSP: every search left is a
        # canonical path rooted at a candidate
        assert calls1 - calls0 == run1 - run0
        candidates = set(scan["evaluated"])
        for source, targets in runs[run0:run1]:
            assert targets is not None, f"full SSSP rooted at {source!r}"
            assert source in candidates and len(targets) == 1
        early_exits += run1 - run0
    assert early_exits > 0
    assert tree.algorithm == "IKMB"


def test_scan_counts_repeat_exactly(monkeypatch):
    def counts():
        tree, rounds, runs, counters = scan_record(MULTI_PIN, monkeypatch)
        return (
            [len(r["evaluated"]) for r in rounds],
            runs,
            counters.snapshot(),
            [list(tree.tree.neighbor_items(u)) for u in tree.tree.nodes],
        )

    assert counts() == counts()
