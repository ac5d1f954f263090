from __future__ import annotations


import pytest

from squashfitts import (DomainError, FigureSeries, PlotStyle, UsageError,
                         emit_series_csv, emit_svg, figure_series, ols_simple)
from squashfitts.plot import AxisMapper


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

    def test_degenerate_style_rejected(self):
        with pytest.raises(DomainError):
            PlotStyle(width_px=100, height_px=100, margin_px=50)
        with pytest.raises(DomainError):
            PlotStyle(point_radius_px=0)

    def test_no_trend_line_without_fit(self):
        svg = emit_svg(_series([(1.0, 2.0)], with_fit=False))
        assert svg.count("<circle") == 1
        assert svg.count("<line") == 0


class TestAxisMapper:
    def test_bounds_corner_maps_to_plot_corner(self):
        style = PlotStyle()
        mapper = AxisMapper.for_points([(0.0, 0.0), (10.0, 5.0)], style)
        px, py = mapper.data_to_pixel(mapper.x_lo, mapper.y_lo)
        assert px == pytest.approx(style.margin_px)
        assert py == pytest.approx(style.height_px - style.margin_px)
        px, py = mapper.data_to_pixel(mapper.x_hi, mapper.y_hi)
        assert px == pytest.approx(style.width_px - style.margin_px)
        assert py == pytest.approx(style.margin_px)

    def test_every_data_point_inside_plot_area(self, report):
        style = PlotStyle()
        for fig in (4, 5, 6, 7, 8):
            series = figure_series(report, fig)
            extra = []
            if series.fit is not None:
                xs = [p[0] for p in series.points]
                extra = [series.fit.predict(min(xs)), series.fit.predict(max(xs))]
            mapper = AxisMapper.for_points(series.points, style, extra_ys=extra)
            for x, y in series.points:
                px, py = mapper.data_to_pixel(x, y)
                assert style.margin_px <= px <= style.width_px - style.margin_px
                assert style.margin_px <= py <= style.height_px - style.margin_px

    def test_collapsed_span_falls_back_to_unit_window(self):
        mapper = AxisMapper.for_points([(2.0, 3.0)], PlotStyle())
        assert mapper.x_lo == 1.5 and mapper.x_hi == 2.5
        # the single point lands on the centre of the 800x600 plot
        assert mapper.data_to_pixel(2.0, 3.0) == pytest.approx((400.0, 300.0))
