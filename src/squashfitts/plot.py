"""The five figures: their series, plain data series CSV and standalone SVG scatter plots.

The SVG output is deliberately minimal and byte-deterministic: a fixed
800x600 canvas, axes and ticks drawn as <path> elements, data points as
<circle>, and the fitted trend as a single <line> spanning only the
observed x-range (no extrapolation). The data-to-pixel mapping is affine
with the y axis inverted; axis bounds are the data and fit-end bounds
padded by 5% per side (+-0.5 around a collapsed span), and a point, fit end
or axis span that is NaN or infinite is a UsageError. The circles are drawn
from a block of points' columns at a time, and _figure_set, the one builder of
the five series, formats each point's CSV row once, for its shot's figure and fig4.
"""
import math
from functools import cached_property
from itertools import chain, repeat
from operator import add, itemgetter, mul, sub, truediv
from typing import NamedTuple

from .core import ShotKind
from .dataset import _chunks
from .errors import UsageError
from .stats import AnalysisOptions, LinearFit

#: Figure number -> (series label, shot filter; None = overall).
FIGURES = {
    4: ("fig4_overall", None),
    5: ("fig5_drives", ShotKind.DRIVE),
    6: ("fig6_boasts", ShotKind.BOAST),
    7: ("fig7_lobs", ShotKind.LOB),
    8: ("fig8_drops", ShotKind.DROP),
}

PAD_FRACTION = 0.05
WIDTH_PX = 800
HEIGHT_PX = 600
MARGIN_PX = 60
POINT_RADIUS_PX = 3
X_LABEL = "Index of Difficulty (bits)"
Y_LABEL = "Movement Time (s)"


class FigureSeries(NamedTuple("FigureSeries", [
        ("label", str), ("points", tuple), ("fit", LinearFit | None)])):
    """Scatter points, (x, y) tuples, plus the fitted line of one figure.
    fit is None only for hand-built series too small to fit. No __slots__:
    the instance __dict__ holds the cached_property values."""

    @cached_property
    def sorted_points(self) -> tuple:
        """points ascending by id then mt, as both figure files list them; a
        coordinate that is not finite is a UsageError."""
        if not math.isfinite(sum(chain.from_iterable(self.points))):  # NaN, inf or overflow
            bad = [p for p in self.points if not all(map(math.isfinite, p))]
            if bad:
                raise UsageError(f"figure points must be finite, got {bad[0]!r}")
        return tuple(sorted(self.points))

    @cached_property
    def rows(self) -> tuple:
        """The CSV row of each of sorted_points."""
        return tuple(map("%r,%r".__mod__, self.sorted_points))


def _figure_set(columns: dict, options: AnalysisOptions, overall_fit: LinearFit,
                shot_fits: dict) -> list:
    """The five figures' series, in figure order, from shot -> (ids, mts) columns:
    a shot's points in table order with shot_fits[shot]; fig4's with overall_fit,
    the sorted runs of the shots options keeps, in shot order, merged by a stable sort."""
    shots = {shot: FigureSeries(label, tuple(zip(*columns[shot])), shot_fits[shot])
             for label, shot in FIGURES.values() if shot is not None}
    pairs = sorted(chain.from_iterable(zip(shots[k].sorted_points, shots[k].rows)
                                       for k in ShotKind if k not in options.exclude_shots),
                   key=itemgetter(0))
    overall = FigureSeries(FIGURES[4][0], tuple(map(itemgetter(0), pairs)), overall_fit)
    overall.__dict__.update(sorted_points=overall.points, rows=tuple(map(itemgetter(1), pairs)))
    return [overall, *shots.values()]


def _scaled(col, lo: float, span: float, size: int):
    """(x - lo) / span * size of each x of a column."""
    return map(mul, map(truediv, map(sub, col, repeat(lo)), repeat(span)), repeat(size))


def _padded(lo: float, hi: float) -> tuple[float, float]:
    span = hi - lo
    if span == 0.0:
        return lo - 0.5, hi + 0.5
    return lo - PAD_FRACTION * span, hi + PAD_FRACTION * span


def _fit_comment(series: FigureSeries) -> str:
    fit = series.fit
    if fit is None:
        return "# fit: degenerate"
    return (f"# fit: mt_s = {fit.slope!r} * id_bits + {fit.intercept!r} "
            f"(r={fit.pearson_r!r}, r^2={fit.r_squared!r}, n={fit.n})")


def _label(series: FigureSeries) -> str:
    """The label, which both emitters write as is: one printable line without <, > or &."""
    if not series.label.isprintable() or any(c in series.label for c in "<>&"):
        raise UsageError(f"figure label must be printable, without <, > or &: {series.label!r}")
    return series.label


def _series_csv_chunks(series: FigureSeries):
    """The text of :func:`emit_series_csv` as an iterator of strings; the
    series is checked in this call, the iterator only formats its points."""
    if not series.points:
        raise UsageError("cannot emit an empty series")
    head = f"# series: {_label(series)}\n{_fit_comment(series)}\nid_bits,mt_s\n"
    return chain((head,), _chunks(series.rows, iter, "\n"), ("\n",))  # rows: no render


def emit_series_csv(series: FigureSeries) -> str:
    """Two-column CSV of the series, sorted ascending by id then mt, with
    a '#'-comment header carrying the fitted equation."""
    return "".join(_series_csv_chunks(series))


def _svg_chunks(series: FigureSeries):
    """The text of :func:`emit_svg` as an iterator of strings; the series is
    checked and everything but the points is drawn in this call, the
    iterator only formats the points."""
    if not series.points:
        raise UsageError("cannot plot an empty series")
    x_min, x_max = series.sorted_points[0][0], series.sorted_points[-1][0]
    ys = [p[1] for p in series.points]
    fit_ys = () if series.fit is None else (series.fit.predict(x_min), series.fit.predict(x_max))
    ys += fit_ys
    x_lo, x_hi = _padded(x_min, x_max)
    y_lo, y_hi = _padded(min(ys), max(ys))
    x_span, y_span = x_hi - x_lo, y_hi - y_lo
    if not all(map(math.isfinite, (*fit_ys, x_span, y_span))):  # NaN, or an overflow
        raise UsageError(f"fit ends and axis spans must be finite: {(*fit_ys, x_span, y_span)!r}")
    left, right = MARGIN_PX, WIDTH_PX - MARGIN_PX
    top, bottom = MARGIN_PX, HEIGHT_PX - MARGIN_PX
    plot_w, plot_h = right - left, bottom - top

    def pixels(xs, ys) -> tuple:  # the affine map of data columns to pixels, y inverted
        return (map(add, repeat(left), _scaled(xs, x_lo, x_span, plot_w)),
                map(sub, repeat(bottom), _scaled(ys, y_lo, y_span, plot_h)))

    def pixel(x: float, y: float) -> tuple[str, str]:
        (px,), (py,) = pixels((x,), (y,))
        return f"{px:.2f}", f"{py:.2f}"

    out = []
    out.append('<?xml version="1.0" encoding="UTF-8"?>')
    out.append(f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
               f'width="{WIDTH_PX}" height="{HEIGHT_PX}" '
               f'viewBox="0 0 {WIDTH_PX} {HEIGHT_PX}">')
    out.append(f'<title>{_label(series)}</title>')
    out.append(f'<rect width="{WIDTH_PX}" height="{HEIGHT_PX}" fill="white"/>')

    # axes and ticks as a single path so point/line element counts stay meaningful
    path = [f"M {left} {bottom} L {right} {bottom}",
            f"M {left} {bottom} L {left} {top}"]
    n_ticks = 5
    tick_len = 6
    labels = []
    for i in range(n_ticks):
        frac = i / (n_ticks - 1)
        x_data = x_lo + frac * x_span
        y_data = y_lo + frac * y_span
        px, py = pixel(x_data, y_data)
        path.append(f"M {px} {bottom} L {px} {bottom + tick_len}")
        path.append(f"M {left} {py} L {left - tick_len} {py}")
        labels.append(f'<text x="{px}" y="{bottom + 20}" font-size="11" '
                      f'text-anchor="middle">{x_data:.3g}</text>')
        labels.append(f'<text x="{left - 10}" y="{py}" font-size="11" '
                      f'text-anchor="end" dominant-baseline="middle">'
                      f'{y_data:.3g}</text>')
    out.append(f'<path d="{" ".join(path)}" stroke="black" fill="none"/>')
    out.extend(labels)
    out.append(f'<text x="{(left + right) / 2:.2f}" y="{HEIGHT_PX - 12}" '
               f'font-size="13" text-anchor="middle">{X_LABEL}</text>')
    out.append(f'<text x="16" y="{(top + bottom) / 2:.2f}" font-size="13" '
               f'text-anchor="middle" transform="rotate(-90 16 '
               f'{(top + bottom) / 2:.2f})">{Y_LABEL}</text>')

    if series.fit is not None:
        x1, y1 = pixel(x_min, fit_ys[0])
        x2, y2 = pixel(x_max, fit_ys[1])
        out.append(f'<line x1="{x1}" y1="{y1}" x2="{x2}" '
                   f'y2="{y2}" stroke="crimson" stroke-width="1.5"/>')

    circle = (f'<circle cx="%.2f" cy="%.2f" r="{POINT_RADIUS_PX}" '
              'fill="steelblue" fill-opacity="0.8"/>')

    def circles(block: list):
        return map(circle.__mod__, zip(*pixels(*zip(*block))))

    return chain(("\n".join(out) + "\n",), _chunks(series.sorted_points, circles, "\n"),
                 ("\n</svg>\n",))


def emit_svg(series: FigureSeries) -> str:
    """Standalone SVG 1.1 scatter plot with axes, ticks, and trend line."""
    return "".join(_svg_chunks(series))
