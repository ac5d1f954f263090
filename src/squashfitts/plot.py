"""Figure emission: plain data series CSV and standalone SVG scatter plots.

The SVG output is deliberately minimal and byte-deterministic: axes and
ticks are drawn as <path> elements, data points as <circle>, and the
fitted trend as a single <line> spanning only the observed x-range (no
extrapolation). The data-to-pixel mapping is affine with the y axis
inverted; axis bounds are the data bounds padded by 5% per side.
"""
from dataclasses import dataclass

from .errors import DomainError, UsageError
from .pipeline import FigureSeries

PAD_FRACTION = 0.05


@dataclass(frozen=True)
class PlotStyle:
    width_px: int = 800
    height_px: int = 600
    margin_px: int = 60
    point_radius_px: float = 3.0
    x_label: str = "Index of Difficulty (bits)"
    y_label: str = "Movement Time (s)"

    def __post_init__(self):
        if self.width_px <= 0 or self.height_px <= 0:
            raise DomainError("plot dimensions must be positive")
        if self.margin_px < 0:
            raise DomainError("margin must be non-negative", field="margin_px")
        if self.point_radius_px <= 0:
            raise DomainError("point radius must be positive",
                              field="point_radius_px")
        if (self.width_px - 2 * self.margin_px <= 0
                or self.height_px - 2 * self.margin_px <= 0):
            raise DomainError("degenerate style: margins leave zero plot area")


@dataclass(frozen=True)
class AxisMapper:
    """Affine data-space to pixel-space mapping (y inverted).

    Bounds are padded data bounds; a collapsed span falls back to +-0.5
    around the single value so the mapping stays defined.
    """

    x_lo: float
    x_hi: float
    y_lo: float
    y_hi: float
    style: PlotStyle

    @classmethod
    def for_points(cls, points, style: PlotStyle,
                   extra_ys=()) -> "AxisMapper":
        xs = [p[0] for p in points]
        ys = [p[1] for p in points] + list(extra_ys)
        x_lo, x_hi = _padded(min(xs), max(xs))
        y_lo, y_hi = _padded(min(ys), max(ys))
        return cls(x_lo=x_lo, x_hi=x_hi, y_lo=y_lo, y_hi=y_hi, style=style)

    def data_to_pixel(self, x: float, y: float) -> tuple[float, float]:
        s = self.style
        plot_w = s.width_px - 2 * s.margin_px
        plot_h = s.height_px - 2 * s.margin_px
        px = s.margin_px + (x - self.x_lo) / (self.x_hi - self.x_lo) * plot_w
        py = s.height_px - s.margin_px - (y - self.y_lo) / (self.y_hi - self.y_lo) * plot_h
        return px, py


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


def emit_series_csv(series: FigureSeries) -> str:
    """Two-column CSV of the series, sorted ascending by id then mt, with
    a '#'-comment header carrying the fitted equation."""
    if not series.points:
        raise UsageError("cannot emit an empty series")
    lines = [f"# series: {series.label}", _fit_comment(series), "id_bits,mt_s"]
    for x, y in sorted(series.points):
        lines.append(f"{x!r},{y!r}")
    return "\n".join(lines) + "\n"


def _f(v: float) -> str:
    return f"{v:.2f}"


def emit_svg(series: FigureSeries, style: PlotStyle | None = None) -> str:
    """Standalone SVG 1.1 scatter plot with axes, ticks, and trend line."""
    style = style or PlotStyle()
    if not series.points:
        raise UsageError("cannot plot an empty series")
    extra_ys = []
    xs = [p[0] for p in series.points]
    if series.fit is not None:
        extra_ys = [series.fit.predict(min(xs)), series.fit.predict(max(xs))]
    mapper = AxisMapper.for_points(series.points, style, extra_ys=extra_ys)

    s = style
    left, right = s.margin_px, s.width_px - s.margin_px
    top, bottom = s.margin_px, s.height_px - s.margin_px
    out = []
    out.append('<?xml version="1.0" encoding="UTF-8"?>')
    out.append(f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
               f'width="{s.width_px}" height="{s.height_px}" '
               f'viewBox="0 0 {s.width_px} {s.height_px}">')
    out.append(f'<title>{series.label}</title>')
    out.append(f'<rect width="{s.width_px}" height="{s.height_px}" fill="white"/>')

    # axes and ticks as a single path so point/line element counts stay meaningful
    path = [f"M {left} {bottom} L {right} {bottom}",
            f"M {left} {bottom} L {left} {top}"]
    n_ticks = 5
    tick_len = 6
    labels = []
    for i in range(n_ticks):
        frac = i / (n_ticks - 1)
        x_data = mapper.x_lo + frac * (mapper.x_hi - mapper.x_lo)
        y_data = mapper.y_lo + frac * (mapper.y_hi - mapper.y_lo)
        px, _ = mapper.data_to_pixel(x_data, mapper.y_lo)
        _, py = mapper.data_to_pixel(mapper.x_lo, y_data)
        path.append(f"M {_f(px)} {bottom} L {_f(px)} {bottom + tick_len}")
        path.append(f"M {left} {_f(py)} L {left - tick_len} {_f(py)}")
        labels.append(f'<text x="{_f(px)}" y="{bottom + 20}" font-size="11" '
                      f'text-anchor="middle">{x_data:.3g}</text>')
        labels.append(f'<text x="{left - 10}" y="{_f(py)}" font-size="11" '
                      f'text-anchor="end" dominant-baseline="middle">'
                      f'{y_data:.3g}</text>')
    out.append(f'<path d="{" ".join(path)}" stroke="black" fill="none"/>')
    out.extend(labels)
    out.append(f'<text x="{(left + right) / 2:.2f}" y="{s.height_px - 12}" '
               f'font-size="13" text-anchor="middle">{s.x_label}</text>')
    out.append(f'<text x="16" y="{(top + bottom) / 2:.2f}" font-size="13" '
               f'text-anchor="middle" transform="rotate(-90 16 '
               f'{(top + bottom) / 2:.2f})">{s.y_label}</text>')

    if series.fit is not None:
        x1, y1 = mapper.data_to_pixel(min(xs), series.fit.predict(min(xs)))
        x2, y2 = mapper.data_to_pixel(max(xs), series.fit.predict(max(xs)))
        out.append(f'<line x1="{_f(x1)}" y1="{_f(y1)}" x2="{_f(x2)}" '
                   f'y2="{_f(y2)}" stroke="crimson" stroke-width="1.5"/>')

    for x, y in sorted(series.points):
        px, py = mapper.data_to_pixel(x, y)
        out.append(f'<circle cx="{_f(px)}" cy="{_f(py)}" '
                   f'r="{s.point_radius_px:g}" fill="steelblue" '
                   f'fill-opacity="0.8"/>')
    out.append("</svg>")
    return "\n".join(out) + "\n"
