"""Additional viz coverage: heat colors, ASCII variants, 3-D absence."""

from __future__ import annotations

import pytest

import repro
from repro.fpga import PlacedCircuit, PlacedNet, xc4000
from repro.router import RouterConfig
from repro.viz import render_occupancy, render_svg
from repro.viz.svg import _esc, _heat


@pytest.fixture(scope="module")
def routed():
    nets = [
        PlacedNet("a", (0, 0, 0), ((2, 2, 0),)),
        PlacedNet("b", (2, 0, 1), ((0, 2, 1),)),
    ]
    circuit = PlacedCircuit(name="viz<&>", rows=3, cols=3, nets=nets)
    arch = xc4000(3, 3, 3)
    return repro.route(
        circuit, arch=arch, config=RouterConfig(algorithm="kmb")
    ), arch


class TestHeat:
    def test_cold_is_near_white(self):
        assert _heat(0.0) == "rgb(255,235,235)"

    def test_hot_is_red(self):
        assert _heat(1.0) == "rgb(255,55,55)"

    def test_clamped(self):
        assert _heat(-1.0) == _heat(0.0)
        assert _heat(2.0) == _heat(1.0)

    def test_monotone_green_channel(self):
        greens = []
        for u in (0.0, 0.25, 0.5, 0.75, 1.0):
            greens.append(int(_heat(u).split(",")[1]))
        assert all(a > b for a, b in zip(greens, greens[1:]))


class TestEscaping:
    def test_xml_escape(self):
        assert _esc("a<b>&c") == "a&lt;b&gt;&amp;c"

    def test_svg_escapes_circuit_name(self, routed):
        result, arch = routed
        svg = render_svg(result, arch)
        assert "viz<&>" not in svg
        assert "viz&lt;&amp;&gt;" in svg


class TestAsciiVariants:
    def test_star_mode(self, routed):
        result, arch = routed
        text = render_occupancy(result, arch, show_numbers=False)
        assert " * " in text or " # " in text

    def test_full_span_marker(self):
        # one net per track of the same span forces a '#'
        nets = [
            PlacedNet("a", (0, 0, 0), ((1, 0, 2),)),
        ]
        circuit = PlacedCircuit(name="full", rows=1, cols=2, nets=nets)
        arch = xc4000(1, 2, 1)
        result = repro.route(
            circuit, arch=arch, config=RouterConfig(algorithm="kmb")
        )
        text = render_occupancy(result, arch)
        assert "#" in text
