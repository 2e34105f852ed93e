"""Tests for the visualization module."""

from __future__ import annotations

import pytest

import repro
from repro.fpga import (
    PlacedCircuit,
    PlacedNet,
    xc4000,
)
from repro.router import RouterConfig
from repro.viz import (
    channel_occupancy,
    occupancy_histogram,
    render_occupancy,
    render_svg,
    save_svg,
)


@pytest.fixture(scope="module")
def routed():
    nets = [
        PlacedNet("a", (0, 0, 0), ((2, 2, 0),)),
        PlacedNet("b", (0, 2, 0), ((2, 0, 0),)),
        PlacedNet("c", (1, 1, 0), ((0, 1, 0), (2, 1, 0))),
    ]
    circuit = PlacedCircuit(name="tiny", rows=3, cols=3, nets=nets)
    arch = xc4000(3, 3, 4)
    result = repro.route(
        circuit, arch=arch, config=RouterConfig(algorithm="kmb")
    )
    return result, arch


class TestOccupancy:
    def test_counts_positive(self, routed):
        result, arch = routed
        counts = channel_occupancy(result, arch)
        assert counts
        assert all(v >= 1 for v in counts.values())

    def test_counts_bounded_by_width(self, routed):
        result, arch = routed
        counts = channel_occupancy(result, arch)
        assert max(counts.values()) <= arch.channel_width

    def test_histogram_sums_to_span_count(self, routed):
        result, arch = routed
        hist = occupancy_histogram(result, arch)
        total_spans = (arch.rows + 1) * arch.cols + (
            arch.cols + 1
        ) * arch.rows
        assert sum(hist.values()) == total_spans


class TestRendering:
    def test_ascii_structure(self, routed):
        result, arch = routed
        text = render_occupancy(result, arch)
        assert "tiny" in text
        assert "[]" in text
        assert "legend" in text
        # one channel row per horizontal channel (rows+1) plus block rows
        grid_lines = [ln for ln in text.splitlines() if "+" in ln]
        assert len(grid_lines) == arch.rows + 1

    def test_svg_well_formed(self, routed):
        result, arch = routed
        svg = render_svg(result, arch)
        assert svg.startswith("<svg")
        assert svg.rstrip().endswith("</svg>")
        assert svg.count("<rect") >= arch.rows * arch.cols
        assert "<polyline" in svg

    def test_save_svg(self, routed, tmp_path):
        result, arch = routed
        path = tmp_path / "out.svg"
        save_svg(str(path), result, arch)
        assert path.stat().st_size > 500
