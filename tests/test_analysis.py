"""Tests for the analysis layer: metrics, tables, experiment drivers."""

from __future__ import annotations

import pytest

from repro.analysis import (
    AlgorithmSample,
    RunningMean,
    congested_grid,
    geometric_mean,
    percent_vs,
    ratio_table,
    render_kv,
    render_table,
    run_cpu_times,
    run_fig3_detours,
    run_fig4,
    run_table1,
    run_table5,
    run_trace_demo,
)
from repro.errors import ReproError
from repro.fpga import circuit_spec, xc4000


class TestMetrics:
    def test_percent_vs(self):
        assert percent_vs(110, 100) == pytest.approx(10.0)
        assert percent_vs(90, 100) == pytest.approx(-10.0)
        assert percent_vs(0, 0) == 0.0

    def test_percent_vs_zero_reference(self):
        with pytest.raises(ReproError):
            percent_vs(1.0, 0.0)

    def test_running_mean(self):
        m = RunningMean()
        m.add(2.0)
        m.add(4.0)
        assert m.mean == 3.0

    def test_running_mean_empty(self):
        with pytest.raises(ReproError):
            RunningMean().mean

    def test_algorithm_sample(self):
        s = AlgorithmSample()
        s.add(1.0, 2.0)
        s.add(3.0, 4.0)
        assert s.wirelength_pct.mean == 2.0
        assert s.max_path_pct.mean == 3.0

    def test_geometric_mean(self):
        assert geometric_mean([1.0, 4.0]) == pytest.approx(2.0)
        with pytest.raises(ReproError):
            geometric_mean([])
        with pytest.raises(ReproError):
            geometric_mean([1.0, 0.0])

    def test_ratio_table(self):
        ratios = ratio_table({"a": 50, "b": 60}, baseline="a")
        assert ratios == {"a": 1.0, "b": 1.2}
        with pytest.raises(ReproError):
            ratio_table({"a": 1}, baseline="x")


class TestTables:
    def test_render_alignment(self):
        text = render_table(
            ["name", "value"], [["x", 1.5], ["yy", 20]], title="T"
        )
        lines = text.splitlines()
        assert lines[0] == "T"
        assert "name" in lines[2]
        assert any("1.50" in ln for ln in lines)

    def test_render_none_as_dash(self):
        text = render_table(["a"], [[None]])
        assert "-" in text

    def test_row_width_mismatch(self):
        with pytest.raises(ValueError):
            render_table(["a", "b"], [["only-one"]])

    def test_render_kv(self):
        text = render_kv("Title", [["k", 1]])
        assert "Title" in text and "k" in text


class TestCongestedGrid:
    def test_no_congestion_is_unit(self, rng):
        g, mean = congested_grid(10, 0, rng)
        assert mean == 1.0

    def test_congestion_raises_mean_weight(self, rng):
        g, mean = congested_grid(10, 10, rng)
        assert mean > 1.0
        # weights only ever increase in integer steps from 1.0
        assert all(w >= 1.0 for _, _, w in g.edges())


class TestDrivers:
    def test_table1_small(self):
        result = run_table1(
            trials=1,
            grid_size=8,
            net_sizes=(4,),
            levels={"none": 0},
            seed=3,
        )
        cells = result.cells
        assert cells[("none", 4, "KMB")][0] == pytest.approx(0.0)
        for algo in ("DJKA", "DOM", "PFA", "IDOM"):
            assert cells[("none", 4, algo)][1] == pytest.approx(0.0)
        text = result.render(published=False)
        assert "Table 1" in text

    def test_table5_small(self):
        # IKMB, PFA and IDOM each route term1@0.1 at the common width
        result = run_table5(
            [circuit_spec("term1")], family_builder=xc4000, fraction=0.1
        )
        rows = [
            line.split() for line in result.render().splitlines()
            if line.startswith("term1@")
        ]
        assert rows == [
            ["term1@0.1", "2", "-8.05", "-5.61", "-11.86", "-8.71"]
        ]

    def test_fig3(self):
        before, after = run_fig3_detours(
            grid_size=10, prerouted=10, pairs=15, seed=1
        )
        assert before.mean_stretch == pytest.approx(1.0)
        assert after.mean_stretch >= 1.0

    def test_fig4_instance_properties(self):
        result = run_fig4(grid_size=5, max_seeds=3000)
        rows = {name: (wl, mp) for name, wl, mp in result.rows}
        assert rows["KMB"][0] > result.opt_wirelength
        assert rows["IKMB (=IGMST)"][0] == pytest.approx(
            result.opt_wirelength
        )
        assert rows["IDOM"][1] == pytest.approx(result.opt_max_path)

    def test_trace_demo(self):
        traced_ikmb, traced_idom = run_trace_demo()
        assert len(traced_ikmb.trace.steps) == 2
        assert len(traced_idom.trace.steps) == 2
        assert traced_ikmb.trace.total_savings > 0
        assert traced_idom.trace.total_savings > 0

    def test_cpu_times(self):
        times = run_cpu_times(trials=1, seed=2)
        assert set(times) == {"IKMB", "PFA", "IDOM"}
        assert all(v > 0 for v in times.values())
