"""Minimal deterministic SVG line charts.

The CSV files are the source of truth for sweep output; these charts are a
convenience view.  Everything is emitted with fixed number formatting and no
timestamps or generated ids, so identical data produces identical bytes.
"""

import math

__all__ = ["render_line_chart"]

_PALETTE = (
    "#1f77b4", "#d62728", "#2ca02c", "#ff7f0e", "#9467bd",
    "#8c564b", "#e377c2", "#7f7f7f", "#bcbd22", "#17becf",
)

_WIDTH, _HEIGHT = 720, 480
_MARGIN_L, _MARGIN_R, _MARGIN_T, _MARGIN_B = 64, 16, 28, 44


def _fmt(x: float) -> str:
    return f"{x:.6g}"


def _line(x1, y1, x2, y2, stroke="#000000", width=1, extra="") -> str:
    """A ``<line>`` element; each coordinate is written as given."""
    return (f'<line x1="{x1}" y1="{y1}" x2="{x2}" y2="{y2}" stroke="{stroke}" '
            f'stroke-width="{width}"{extra}/>')


def _text(x, y, size, body, anchor="middle", extra="") -> str:
    """A sans-serif ``<text>`` element, with no ``text-anchor`` when
    ``anchor`` is None; each coordinate is written as given."""
    anchor = "" if anchor is None else f' text-anchor="{anchor}"'
    return (f'<text x="{x}" y="{y}"{anchor} font-family="sans-serif" '
            f'font-size="{size}"{extra}>{body}</text>')


def _ticks(lo: float, hi: float, count: int = 5) -> list[float]:
    if hi <= lo:
        return [lo]
    step = (hi - lo) / (count - 1)
    return [lo + i * step for i in range(count)]


def render_line_chart(curves, title: str, x_label: str, y_label: str) -> str:
    """Render labelled (xs, ys) curves as an SVG document string.

    ``curves`` is a sequence of ``(label, xs, ys)``; non-finite points are
    dropped.  Curves left empty after filtering are skipped but still listed
    in the legend so series identity survives.
    """
    cleaned = []
    for label, xs, ys in curves:
        pts = [(float(x), float(y)) for x, y in zip(xs, ys)
               if math.isfinite(x) and math.isfinite(y)]
        cleaned.append((label, pts))

    all_pts = [pt for _, pts in cleaned for pt in pts]
    if all_pts:
        x_lo = min(p[0] for p in all_pts)
        x_hi = max(p[0] for p in all_pts)
        y_lo = min(p[1] for p in all_pts)
        y_hi = max(p[1] for p in all_pts)
    else:
        x_lo, x_hi, y_lo, y_hi = 0.0, 1.0, 0.0, 1.0
    if x_hi == x_lo:
        x_hi = x_lo + 1.0
    if y_hi == y_lo:
        y_hi = y_lo + 1.0
    # pad the y range slightly so extreme points stay off the frame
    pad = 0.05 * (y_hi - y_lo)
    y_lo -= pad
    y_hi += pad

    plot_w = _WIDTH - _MARGIN_L - _MARGIN_R
    plot_h = _HEIGHT - _MARGIN_T - _MARGIN_B

    def px(x: float) -> float:
        return _MARGIN_L + (x - x_lo) / (x_hi - x_lo) * plot_w

    def py(y: float) -> float:
        return _MARGIN_T + (y_hi - y) / (y_hi - y_lo) * plot_h

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_WIDTH}" '
        f'height="{_HEIGHT}" viewBox="0 0 {_WIDTH} {_HEIGHT}">',
        f'<rect x="0" y="0" width="{_WIDTH}" height="{_HEIGHT}" fill="#ffffff"/>',
        f'<rect x="{_MARGIN_L}" y="{_MARGIN_T}" width="{plot_w}" height="{plot_h}" '
        f'fill="none" stroke="#000000" stroke-width="1"/>',
        _text(_WIDTH // 2, 18, 14, title),
    ]

    x_axis = _MARGIN_T + plot_h
    for tx in _ticks(x_lo, x_hi):
        x = _fmt(px(tx))
        parts.append(_line(x, x_axis, x, x_axis + 5))
        parts.append(_text(x, x_axis + 18, 11, _fmt(tx)))
    for ty in _ticks(y_lo, y_hi):
        y = py(ty)
        parts.append(_line(_MARGIN_L - 5, _fmt(y), _MARGIN_L, _fmt(y)))
        parts.append(_text(_MARGIN_L - 8, _fmt(y + 4), 11, _fmt(ty), anchor="end"))
    # zero line when it lies inside the frame
    if y_lo < 0.0 < y_hi:
        y0 = _fmt(py(0.0))
        parts.append(_line(_MARGIN_L, y0, _MARGIN_L + plot_w, y0, stroke="#999999",
                           extra=' stroke-dasharray="4 3"'))

    parts.append(_text(_WIDTH // 2, _HEIGHT - 8, 12, x_label))
    y_mid = _MARGIN_T + plot_h // 2
    parts.append(_text(16, y_mid, 12, y_label, extra=f' transform="rotate(-90 16 {y_mid})"'))

    legend_x = _MARGIN_L + plot_w - 150
    for i, (label, pts) in enumerate(cleaned):
        color = _PALETTE[i % len(_PALETTE)]
        if pts:
            coords = " ".join(f"{_fmt(px(x))},{_fmt(py(y))}" for x, y in pts)
            parts.append(
                f'<polyline points="{coords}" fill="none" stroke="{color}" '
                f'stroke-width="1.5"/>'
            )
        ly = _MARGIN_T + 14 + 16 * i
        parts.append(_line(legend_x, ly - 4, legend_x + 22, ly - 4, stroke=color, width=2))
        parts.append(_text(legend_x + 26, ly, 11, label, anchor=None))

    parts.append("</svg>")
    return "\n".join(parts) + "\n"
