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
        f'<text x="{_WIDTH // 2}" y="18" text-anchor="middle" '
        f'font-family="sans-serif" font-size="14">{title}</text>',
    ]

    for tx in _ticks(x_lo, x_hi):
        x = px(tx)
        parts.append(
            f'<line x1="{_fmt(x)}" y1="{_MARGIN_T + plot_h}" x2="{_fmt(x)}" '
            f'y2="{_MARGIN_T + plot_h + 5}" stroke="#000000" stroke-width="1"/>'
        )
        parts.append(
            f'<text x="{_fmt(x)}" y="{_MARGIN_T + plot_h + 18}" text-anchor="middle" '
            f'font-family="sans-serif" font-size="11">{_fmt(tx)}</text>'
        )
    for ty in _ticks(y_lo, y_hi):
        y = py(ty)
        parts.append(
            f'<line x1="{_MARGIN_L - 5}" y1="{_fmt(y)}" x2="{_MARGIN_L}" '
            f'y2="{_fmt(y)}" stroke="#000000" stroke-width="1"/>'
        )
        parts.append(
            f'<text x="{_MARGIN_L - 8}" y="{_fmt(y + 4)}" text-anchor="end" '
            f'font-family="sans-serif" font-size="11">{_fmt(ty)}</text>'
        )
    # zero line when it lies inside the frame
    if y_lo < 0.0 < y_hi:
        y0 = py(0.0)
        parts.append(
            f'<line x1="{_MARGIN_L}" y1="{_fmt(y0)}" x2="{_MARGIN_L + plot_w}" '
            f'y2="{_fmt(y0)}" stroke="#999999" stroke-width="1" stroke-dasharray="4 3"/>'
        )

    parts.append(
        f'<text x="{_WIDTH // 2}" y="{_HEIGHT - 8}" text-anchor="middle" '
        f'font-family="sans-serif" font-size="12">{x_label}</text>'
    )
    parts.append(
        f'<text x="16" y="{_MARGIN_T + plot_h // 2}" text-anchor="middle" '
        f'font-family="sans-serif" font-size="12" '
        f'transform="rotate(-90 16 {_MARGIN_T + plot_h // 2})">{y_label}</text>'
    )

    for i, (label, pts) in enumerate(cleaned):
        color = _PALETTE[i % len(_PALETTE)]
        if pts:
            coords = " ".join(f"{_fmt(px(x))},{_fmt(py(y))}" for x, y in pts)
            parts.append(
                f'<polyline points="{coords}" fill="none" stroke="{color}" '
                f'stroke-width="1.5"/>'
            )
        ly = _MARGIN_T + 14 + 16 * i
        parts.append(
            f'<line x1="{_MARGIN_L + plot_w - 150}" y1="{ly - 4}" '
            f'x2="{_MARGIN_L + plot_w - 128}" y2="{ly - 4}" '
            f'stroke="{color}" stroke-width="2"/>'
        )
        parts.append(
            f'<text x="{_MARGIN_L + plot_w - 124}" y="{ly}" '
            f'font-family="sans-serif" font-size="11">{label}</text>'
        )

    parts.append("</svg>")
    return "\n".join(parts) + "\n"
