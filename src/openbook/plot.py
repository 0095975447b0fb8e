"""Scatter-plot SVG of M-measure against JSD similarity.

Hand-rolled SVG: fixed 800x600 viewport, both axes spanning [0, 1],
points labeled by position id (escaped as XML text). Marked points
(outliers) are drawn in red with an arrow pointing at them.
"""

from __future__ import annotations

from typing import Iterable, Sequence, Tuple

WIDTH, HEIGHT = 800, 600
MARGIN = 60


class PlotError(ValueError):
    """Raised when there is nothing to plot."""


def _x(value: float) -> float:
    return MARGIN + value * (WIDTH - 2 * MARGIN)


def _y(value: float) -> float:
    return HEIGHT - MARGIN - value * (HEIGHT - 2 * MARGIN)


def scatter_svg(points: Sequence[Tuple[str, float, float]],
                marked: Iterable[str] = ()) -> str:
    """SVG scatter of (id, m, jsd) points; ids in ``marked`` get an arrow."""
    from html import escape  # imported here so other commands start without it

    points = [p for p in points if p[1] is not None and p[2] is not None]
    if not points:
        raise PlotError("no defined (m_measure, jsd) pairs to plot")
    marked = set(marked)
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{WIDTH}" '
        f'height="{HEIGHT}" viewBox="0 0 {WIDTH} {HEIGHT}">',
        f'<rect width="{WIDTH}" height="{HEIGHT}" fill="white"/>',
        f'<line x1="{MARGIN}" y1="{HEIGHT - MARGIN}" x2="{WIDTH - MARGIN}" '
        f'y2="{HEIGHT - MARGIN}" stroke="black"/>',
        f'<line x1="{MARGIN}" y1="{MARGIN}" x2="{MARGIN}" '
        f'y2="{HEIGHT - MARGIN}" stroke="black"/>',
    ]
    for tick in range(6):
        value = tick / 5.0
        x = _x(value)
        y = _y(value)
        parts.append(f'<line x1="{x:.1f}" y1="{HEIGHT - MARGIN}" x2="{x:.1f}" '
                     f'y2="{HEIGHT - MARGIN + 6}" stroke="black"/>')
        parts.append(f'<text x="{x:.1f}" y="{HEIGHT - MARGIN + 22}" '
                     f'font-size="12" text-anchor="middle">{value:.1f}</text>')
        parts.append(f'<line x1="{MARGIN - 6}" y1="{y:.1f}" x2="{MARGIN}" '
                     f'y2="{y:.1f}" stroke="black"/>')
        parts.append(f'<text x="{MARGIN - 10}" y="{y + 4:.1f}" font-size="12" '
                     f'text-anchor="end">{value:.1f}</text>')
    parts.append(f'<text x="{WIDTH / 2}" y="{HEIGHT - 15}" font-size="14" '
                 f'text-anchor="middle">M-measure</text>')
    parts.append(f'<text x="18" y="{HEIGHT / 2}" font-size="14" '
                 f'text-anchor="middle" transform="rotate(-90 18 {HEIGHT / 2})">'
                 f'JSD similarity</text>')
    for position_id, m_value, jsd_value in points:
        x = _x(m_value)
        y = _y(jsd_value)
        color = "red" if position_id in marked else "steelblue"
        parts.append(f'<circle cx="{x:.1f}" cy="{y:.1f}" r="4" fill="{color}"/>')
        parts.append(f'<text x="{x + 6:.1f}" y="{y - 6:.1f}" font-size="11">'
                     f'{escape(position_id, quote=False)}</text>')
        if position_id in marked:
            parts.append(f'<line x1="{x + 30:.1f}" y1="{y + 30:.1f}" '
                         f'x2="{x + 6:.1f}" y2="{y + 6:.1f}" stroke="red" '
                         f'marker-end="url(#arrow)"/>')
    parts.insert(1, '<defs><marker id="arrow" markerWidth="8" markerHeight="8" '
                    'refX="7" refY="4" orient="auto">'
                    '<path d="M0,0 L8,4 L0,8 z" fill="red"/></marker></defs>')
    parts.append("</svg>")
    return "\n".join(parts) + "\n"
