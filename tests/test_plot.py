from __future__ import annotations

import hashlib
import math
import random
import re

import pytest

from squashfitts import (AnalysisOptions, FigureSeries, ShotKind, UsageError,
                         emit_series_csv, emit_svg, figure_series, ols_simple,
                         parse_csv, run_analysis)
from squashfitts import plot
from squashfitts.cli import main
from squashfitts.plot import FIGURES
from squashfitts.stats import LinearFit, fit_columns, fit_overall

import oracles
from test_pipeline import _ragged, _shuffled_ragged_csv


def _series(points, with_fit=True, label="test"):
    fit = ols_simple(points) if with_fit and len(points) >= 2 else None
    return FigureSeries(label=label, points=tuple(points), fit=fit)


class TestSeriesCsv:
    def test_overall_series_line_count(self, report):
        text = emit_series_csv(figure_series(report, 4))
        lines = text.splitlines()
        comments = [l for l in lines if l.startswith("#")]
        data = [l for l in lines if l and not l.startswith("#")]
        assert len(comments) == 2  # series label + fit equation
        assert data[0] == "id_bits,mt_s"
        assert len(data) - 1 == 36

    def test_single_point_series_degenerate_comment(self):
        text = emit_series_csv(_series([(1.0, 2.0)], with_fit=False))
        assert "# fit: degenerate" in text
        assert text.splitlines()[-1] == "1.0,2.0"

    def test_two_point_fit_comment(self):
        text = emit_series_csv(_series([(0.0, 0.0), (1.0, 1.0)]))
        assert "mt_s = 1.0 * id_bits + 0.0" in text

    def test_rows_sorted_ascending_with_mt_tiebreak(self):
        text = emit_series_csv(_series([(2.0, 1.0), (1.0, 5.0), (1.0, 2.0)]))
        data = [l for l in text.splitlines() if not l.startswith("#")][1:]
        assert data == ["1.0,2.0", "1.0,5.0", "2.0,1.0"]

    def test_empty_series_rejected(self):
        with pytest.raises(UsageError):
            emit_series_csv(FigureSeries(label="x", points=(), fit=None))

    @pytest.mark.parametrize("label", ["x\nid_bits,mt_s\n9,9", "a\rb", "a<b&c"])
    def test_label_that_would_add_lines_or_markup_is_rejected(self, label):
        with pytest.raises(UsageError, match="figure label must be printable"):
            emit_series_csv(_series([(1.0, 2.0), (2.0, 3.0)], label=label))


_NON_FINITE = [math.nan, math.inf, -math.inf]


class TestNonFinite:
    """Both emitters refuse a coordinate that is not finite, and emit_svg a
    fitted line end or an axis range that is not, in the call, before a
    chunk is yielded: no file holds a nan or an inf."""

    SORTED = ((1.0, 2.0), (2.0, 3.0), (3.0, 5.0))
    LINE = LinearFit(1.0, 1.0, 1.0, 1.0, 3)

    @pytest.mark.parametrize("value", _NON_FINITE, ids=repr)
    @pytest.mark.parametrize("axis", [0, 1], ids=["x", "y"])
    @pytest.mark.parametrize("position", [0, 1, 2], ids=["first", "middle", "last"])
    @pytest.mark.parametrize("fit", [None, LINE], ids=["no_fit", "fit"])
    @pytest.mark.parametrize("chunks", [plot._svg_chunks, plot._series_csv_chunks],
                             ids=["svg", "csv"])
    def test_point_that_is_not_finite_is_refused(self, value, axis, position, fit, chunks):
        points = [list(p) for p in self.SORTED]
        points[position][axis] = value
        series = FigureSeries("t", tuple(map(tuple, points)), fit)
        with pytest.raises(UsageError, match=r"^figure points must be finite, got \("):
            chunks(series)

    @pytest.mark.parametrize("emit", [emit_svg, emit_series_csv])
    def test_the_reported_point_is_the_first_that_is_not_finite(self, emit):
        series = FigureSeries("t", ((1.0, 2.0), (math.nan, 3.0), (2.0, math.inf)), None)
        with pytest.raises(UsageError, match=r"got \(nan, 3\.0\)$"):
            emit(series)

    @pytest.mark.parametrize("fit", [LinearFit(math.nan, 0.0, 1.0, 1.0, 3),
                                     LinearFit(1.0, math.inf, 1.0, 1.0, 3),
                                     LinearFit(1e308, 0.0, 1.0, 1.0, 3)],
                             ids=["nan_slope", "inf_intercept", "predict_overflows"])
    def test_fitted_line_end_that_is_not_finite_is_refused(self, fit):
        series = FigureSeries("t", self.SORTED, fit)
        with pytest.raises(UsageError, match="fit ends and axis spans must be finite: "):
            plot._svg_chunks(series)
        assert emit_series_csv(series).count("\n") == 6  # the CSV draws no line

    def test_axis_range_that_overflows_is_refused(self):
        series = FigureSeries("t", ((-1e308, 1.0), (1e308, 2.0)), None)
        with pytest.raises(UsageError, match=r"axis spans must be finite: \(inf, 1\.09"):
            plot._svg_chunks(series)
        assert emit_series_csv(series).splitlines()[3:] == ["-1e+308,1.0", "1e+308,2.0"]

    def test_finite_points_whose_sum_overflows_are_drawn(self):
        series = FigureSeries("t", ((1e308, 1.0), (1e308, 2.0), (1.7e308, 3.0)), None)
        svg = emit_svg(series)
        assert svg.count("<circle") == 3
        assert re.search(r"\b(nan|inf)\b", svg) is None
        assert emit_series_csv(series).splitlines()[3] == "1e+308,1.0"


class TestPointOrder:
    def test_figure_files_do_not_depend_on_point_order(self, report):
        series = figure_series(report, 4)
        ordered, backwards = (
            FigureSeries(series.label, points, series.fit)
            for points in (tuple(sorted(series.points)),
                           tuple(sorted(series.points, reverse=True))))
        assert emit_svg(backwards) == emit_svg(ordered)
        assert emit_series_csv(backwards) == emit_series_csv(ordered)


class TestSvg:
    def test_structural_counts_for_overall_figure(self, report):
        svg = emit_svg(figure_series(report, 4))
        assert svg.count("<circle") == 36
        assert svg.count("<line") == 1
        assert svg.startswith('<?xml version="1.0"')
        assert "</svg>" in svg

    def test_byte_determinism(self, report):
        series = figure_series(report, 6)
        assert emit_svg(series) == emit_svg(series)

    def test_axis_labels_present(self, report):
        svg = emit_svg(figure_series(report, 4))
        assert "Index of Difficulty (bits)" in svg
        assert "Movement Time (s)" in svg

    def test_empty_series_rejected(self):
        with pytest.raises(UsageError, match="^cannot plot an empty series$"):
            emit_svg(FigureSeries(label="x", points=(), fit=None))

    @pytest.mark.parametrize("label", ["a<b&c", "a>b", "line\nbreak", "tab\t"])
    def test_label_that_is_not_plain_svg_text_is_rejected(self, label):
        with pytest.raises(UsageError, match="figure label must be printable"):
            emit_svg(_series([(1.0, 2.0), (2.0, 3.0)], label=label))

    def test_no_trend_line_without_fit(self):
        svg = emit_svg(_series([(1.0, 2.0)], with_fit=False))
        assert svg.count("<circle") == 1
        assert svg.count("<line") == 0


def _ticks(svg):
    """(x tick pixels, y tick pixels) of the axes path, in drawing order."""
    return ([float(x) for x in re.findall(r"M ([\d.]+) 540 L \1 546", svg)],
            [float(y) for y in re.findall(r"M 60 ([\d.]+) L 54 \1", svg)])


def _circles(svg):
    return [(float(cx), float(cy))
            for cx, cy in re.findall(r'<circle cx="([^"]+)" cy="([^"]+)"', svg)]


class TestAxisMapper:
    """The affine data-to-pixel map, as the SVG shows it: padded data
    bounds span the 680x480 plot area inside the 60 px margins."""

    def test_bounds_corner_maps_to_plot_corner(self):
        xs, ys = _ticks(emit_svg(_series([(0.0, 0.0), (10.0, 5.0)])))
        assert len(xs) == len(ys) == 5
        assert (xs[0], xs[-1]) == (60.0, 740.0)
        assert (ys[0], ys[-1]) == (540.0, 60.0)

    def test_every_data_point_inside_plot_area(self, report):
        for fig in (4, 5, 6, 7, 8):
            series = figure_series(report, fig)
            circles = _circles(emit_svg(series))
            assert len(circles) == len(series.points)
            for px, py in circles:
                assert 60.0 <= px <= 740.0
                assert 60.0 <= py <= 540.0

    def test_collapsed_span_falls_back_to_unit_window(self):
        svg = emit_svg(_series([(2.0, 3.0)], with_fit=False))
        # x bounds 1.5 and 2.5 label the first and last ticks
        assert 'text-anchor="middle">1.5</text>' in svg
        assert 'text-anchor="middle">2.5</text>' in svg
        # the single point lands on the centre of the 800x600 canvas
        assert _circles(svg) == [(400.0, 300.0)]
        assert '<circle cx="400.00" cy="300.00" r="3"' in svg


#: Hand-built series whose SVG FROZEN_FIGURE_SHA256 pins: one point with
#: no fit, all-equal x with no fit, and a fitted flat-y series.
_EDGE_SERIES = {
    "one_point": FigureSeries("one point", ((2.0, 3.0),), None),
    "equal_x": FigureSeries("equal x", ((1.5, 0.5), (1.5, 1.0), (1.5, 2.5)), None),
    "flat_y": _series([(1.0, 2.0), (2.0, 2.0), (3.0, 2.0)], label="flat y"),
}


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


class TestFrozenFigureBytes:
    """The figure files are byte-identical to the frozen ones."""

    @pytest.mark.parametrize("case,options", [
        ("default", {}), ("exclude_drive", {"exclude_shots": frozenset({"Drive"})})])
    @pytest.mark.parametrize("data", ["bundled", "ragged"])
    def test_figures_four_to_eight(self, bundled, data, case, options):
        dataset = bundled if data == "bundled" else _ragged(5)
        doc = run_analysis(dataset, AnalysisOptions(**options))
        for fig in range(4, 9):
            series = figure_series(doc, fig)
            assert ((_sha256(emit_svg(series)), _sha256(emit_series_csv(series)))
                    == oracles.FROZEN_FIGURE_SHA256[(data, case, fig)]), fig

    @pytest.mark.parametrize("case,flags", [
        ("default", []), ("exclude_drive", ["--exclude-shot", "drive"])])
    @pytest.mark.parametrize("data", ["bundled", "ragged"])
    def test_cli_figure_files_four_to_eight(self, tmp_path, capsys, data, case, flags):
        source = "bundled"
        if data == "ragged":
            source = _shuffled_ragged_csv(tmp_path / "ragged.csv")
        out = tmp_path / "figs"
        assert main(["figures", "--input", source, "--output", str(out)] + flags) == 0
        for fig, (label, _) in FIGURES.items():
            assert (tuple(hashlib.sha256((out / (label + ext)).read_bytes()).hexdigest()
                          for ext in (".svg", ".csv"))
                    == oracles.FROZEN_FIGURE_SHA256[(data, case, fig)]), fig

    @pytest.mark.parametrize("name", list(_EDGE_SERIES))
    def test_hand_built_series_svg(self, name):
        assert (_sha256(emit_svg(_EDGE_SERIES[name]))
                == oracles.FROZEN_FIGURE_SHA256[name])


def _circle_rows(series: FigureSeries) -> list:
    """The circles of emit_svg by the per-point formula: each sorted point's
    pixel, with the data bounds padded as _svg_chunks pads them."""
    points = sorted(series.points)
    x_min, x_max = points[0][0], points[-1][0]
    ys = [y for _, y in points]
    if series.fit is not None:
        ys += [series.fit.predict(x_min), series.fit.predict(x_max)]
    x_lo, x_hi = plot._padded(x_min, x_max)
    y_lo, y_hi = plot._padded(min(ys), max(ys))
    return [f'<circle cx="{60 + (x - x_lo) / (x_hi - x_lo) * 680:.2f}" '
            f'cy="{540 - (y - y_lo) / (y_hi - y_lo) * 480:.2f}" r="3" '
            f'fill="steelblue" fill-opacity="0.8"/>' for x, y in points]


def _random_points(rng: random.Random, n: int, x=None, y=None) -> list:
    return [(rng.uniform(-3.0, 12.0) if x is None else x,
             rng.uniform(0.1, 3.0) if y is None else y) for _ in range(n)]


class TestBlockRendering:
    """emit_svg draws a block of circles from the sorted points' columns and
    emit_series_csv writes each point's row once; both equal the per-point
    formulas, and the figures command's merged fig4 equals figure_series's."""

    @pytest.mark.parametrize("n", [1, 2, 255, 256, 257, 700])
    @pytest.mark.parametrize("span", ["both", "collapsed_x", "collapsed_y"])
    def test_circles_and_rows_equal_the_per_point_formulas(self, n, span):
        rng = random.Random(n)
        points = _random_points(rng, n, x=2.5 if span == "collapsed_x" else None,
                                y=1.25 if span == "collapsed_y" else None)
        points += points[:n // 3]  # repeated points
        rng.shuffle(points)
        fit = None if span == "collapsed_x" or n < 2 else ols_simple(points)
        series = FigureSeries("random", tuple(points), fit)
        svg, csv_text = emit_svg(series), emit_series_csv(series)
        assert [line for line in svg.splitlines() if line.startswith("<circle")] \
            == _circle_rows(series)
        assert csv_text.splitlines()[3:] == [f"{x!r},{y!r}" for x, y in sorted(points)]

    @pytest.mark.parametrize("excluded", [(), ("Drive",), ("Lob", "Boast")])
    def test_merged_overall_figure_equals_figure_series(self, excluded):
        """Points repeated within and across shots, -0.0 beside 0.0: fig4's
        merged rows are those of the kept shots' points joined in shot order,
        sorted by one stable sort, and every figure's files are the files of
        its hand-built series."""
        rng = random.Random(len(excluded))
        shared = _random_points(rng, 40) + [(0.0, 1.0), (-0.0, 1.0)]
        columns = {}
        for kind in ShotKind:
            points = _random_points(rng, rng.randint(300, 400)) + rng.sample(shared, 30)
            points += [(0.0, 1.0), (-0.0, 1.0)] if kind is ShotKind.DROP else [(-0.0, 1.0)]
            rng.shuffle(points)
            columns[kind] = tuple(map(list, zip(*points)))
        options = AnalysisOptions(frozenset(excluded))
        overall = fit_overall(columns, options)
        shot_fits = {kind: fit_columns(*columns[kind]) for kind in ShotKind}
        joined = [p for kind in ShotKind if kind not in options.exclude_shots
                  for p in zip(*columns[kind])]
        references = [FigureSeries(label, tuple(joined), overall) if shot is None else
                      FigureSeries(label, tuple(zip(*columns[shot])), shot_fits[shot])
                      for label, shot in FIGURES.values()]
        merged = plot._figure_set(columns, options, overall, shot_fits)
        assert [s.label for s in merged] == [label for label, _ in FIGURES.values()]
        for series, alone in zip(merged, references):
            assert series.rows == alone.rows
            assert emit_svg(series) == emit_svg(alone)
            assert emit_series_csv(series) == emit_series_csv(alone)
        assert "-0.0,1.0" in merged[0].rows and "0.0,1.0" in merged[0].rows

    @pytest.mark.parametrize("flags", [[], ["--exclude-shot", "drive"]])
    def test_cli_figures_of_600_rows_equal_the_library(self, tmp_path, capsys, flags):
        """Three blocks of records, one point repeated across two shots."""
        shots = ("Drive", "Drop", "Lob", "Boast")
        rows = ["%d,%s,%d,%s,%s,%s,%s" % (i // 12 + 1, shots[i % 4], i // 4 % 3 + 1,
                                          586 + i % 37, 0.197 + i % 11 / 100,
                                          374 + i % 23, 1.22 + i % 7 / 10)
                for i in range(600)]
        rows[301] = rows[300].replace("Drive", "Drop", 1)  # key (26, Drop, 1), row 300's point
        text = "person,shot,trial,db_cm,t_s,dp_cm,mt_s\n" + "\n".join(rows) + "\n"
        (tmp_path / "blocks.csv").write_text(text)
        out = tmp_path / "figs"
        assert main(["figures", "--input", str(tmp_path / "blocks.csv"),
                     "--output", str(out)] + flags) == 0
        dataset, report = parse_csv(text)
        assert report.ok and len(dataset) == 600
        doc = run_analysis(dataset, AnalysisOptions(frozenset(flags[1:])))
        for figure, (label, _) in FIGURES.items():
            series = figure_series(doc, figure)
            assert (out / (label + ".svg")).read_text() == emit_svg(series)
            assert (out / (label + ".csv")).read_text() == emit_series_csv(series)
