"""Minimal standalone SVG line charts (no rendering dependency, diffable)."""

from __future__ import annotations

import math

_COLORS = {
    "tensor": "#1f77b4",
    "serendipity": "#d62728",
}

WIDTH = 720
HEIGHT = 480
MARGIN_L = 70
MARGIN_R = 160
MARGIN_T = 40
MARGIN_B = 55

TITLE = "eigenvalue error vs degrees of freedom"
XLABEL = "free degrees of freedom"
YLABEL = "log10 |eigenvalue error|"
TICKS = 5  # target tick count per axis


def _ticks(lo: float, hi: float) -> list[float]:
    if hi <= lo:
        return [lo]
    raw = (hi - lo) / TICKS
    mag = 10 ** math.floor(math.log10(raw))
    step = min(s * mag for s in (1, 2, 5, 10) if s * mag >= raw)
    # integer multiples of the step, so that a step below the spacing of
    # the floats near lo still gives a bounded list
    first, last = math.ceil(lo / step), math.floor(hi / step + 1e-9)
    return [k * step for k in range(first, last + 1)]


def line_chart(series: dict[str, list[tuple[float, float]]], path) -> None:
    """Write the convergence chart: one polyline + round markers per series,
    under `TITLE`, with axes labelled `XLABEL` and `YLABEL`.

    Series names are element families, whose `_COLORS` entry draws them.
    Coordinates are used as given (apply any log transform beforehand).
    There must be at least one point.  Series with a single point get a
    marker but no polyline.
    """
    points = [pt for pts in series.values() for pt in pts]
    xs = [x for x, _ in points]
    ys = [y for _, y in points]
    x_lo, x_hi = min(xs), max(xs)
    y_lo, y_hi = min(ys), max(ys)
    if x_hi == x_lo:
        x_lo, x_hi = x_lo - 1, x_hi + 1
    if y_hi == y_lo:
        y_lo, y_hi = y_lo - 1, y_hi + 1
    x_pad = 0.04 * (x_hi - x_lo)
    y_pad = 0.08 * (y_hi - y_lo)
    x_lo, x_hi = x_lo - x_pad, x_hi + x_pad
    y_lo, y_hi = y_lo - y_pad, y_hi + y_pad

    plot_w = WIDTH - MARGIN_L - MARGIN_R
    plot_h = HEIGHT - MARGIN_T - MARGIN_B

    def px(x: float) -> float:
        return MARGIN_L + (x - x_lo) / (x_hi - x_lo) * plot_w

    def py(y: float) -> float:
        return MARGIN_T + (y_hi - y) / (y_hi - y_lo) * plot_h

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{WIDTH}" height="{HEIGHT}" '
        f'viewBox="0 0 {WIDTH} {HEIGHT}">',
        f'<rect width="{WIDTH}" height="{HEIGHT}" fill="white"/>',
        f'<text x="{WIDTH / 2:.2f}" y="22" text-anchor="middle" '
        f'font-family="sans-serif" font-size="15">{TITLE}</text>',
    ]
    # axes
    x0, y0 = MARGIN_L, MARGIN_T + plot_h
    parts.append(
        f'<g stroke="black" fill="none">'
        f'<line x1="{x0}" y1="{y0}" x2="{x0 + plot_w}" y2="{y0}"/>'
        f'<line x1="{x0}" y1="{MARGIN_T}" x2="{x0}" y2="{y0}"/></g>'
    )
    for t in _ticks(x_lo + x_pad, x_hi - x_pad):
        tx = px(t)
        parts.append(
            f'<line x1="{tx:.2f}" y1="{y0}" x2="{tx:.2f}" y2="{y0 + 5}" stroke="black"/>'
            f'<text x="{tx:.2f}" y="{y0 + 19}" text-anchor="middle" '
            f'font-family="sans-serif" font-size="11">{t:g}</text>'
        )
    for t in _ticks(y_lo + y_pad, y_hi - y_pad):
        ty = py(t)
        parts.append(
            f'<line x1="{x0 - 5}" y1="{ty:.2f}" x2="{x0}" y2="{ty:.2f}" stroke="black"/>'
            f'<text x="{x0 - 9}" y="{ty + 4:.2f}" text-anchor="end" '
            f'font-family="sans-serif" font-size="11">{t:g}</text>'
        )
    parts.append(
        f'<text x="{MARGIN_L + plot_w / 2:.2f}" y="{HEIGHT - 12}" text-anchor="middle" '
        f'font-family="sans-serif" font-size="13">{XLABEL}</text>'
    )
    parts.append(
        f'<text x="18" y="{MARGIN_T + plot_h / 2:.2f}" text-anchor="middle" '
        f'font-family="sans-serif" font-size="13" '
        f'transform="rotate(-90 18 {MARGIN_T + plot_h / 2:.2f})">{YLABEL}</text>'
    )

    for k, (name, pts) in enumerate(series.items()):
        color = _COLORS[name]
        coords = [(px(x), py(y)) for x, y in sorted(pts)]
        if len(coords) > 1:
            path_pts = " ".join(f"{cx:.2f},{cy:.2f}" for cx, cy in coords)
            parts.append(
                f'<polyline points="{path_pts}" fill="none" stroke="{color}" stroke-width="1.6"/>'
            )
        for cx, cy in coords:
            parts.append(f'<circle cx="{cx:.2f}" cy="{cy:.2f}" r="3.5" fill="{color}"/>')
        ly = MARGIN_T + 16 + 20 * k
        lx = MARGIN_L + plot_w + 14
        parts.append(
            f'<line x1="{lx}" y1="{ly - 4}" x2="{lx + 24}" y2="{ly - 4}" '
            f'stroke="{color}" stroke-width="1.6"/>'
            f'<text x="{lx + 30}" y="{ly}" font-family="sans-serif" font-size="12">{name}</text>'
        )

    parts.append("</svg>")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(parts) + "\n")
