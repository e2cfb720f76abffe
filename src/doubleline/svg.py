"""SVG rendering of crease patterns.

Output is SVG 1.1 with one path element per crease; 1 pattern unit maps
to 1 user unit.  Byte output is deterministic for identical input.
"""
from __future__ import annotations

from .pattern import CreasePattern

COLORS = {"M": "#d62728", "V": "#1f77b4", "B": "#000000", "U": "#888888"}  # stroke per assignment
STROKE_WIDTH = 0.01  # fraction of the larger canvas side
MARGIN = 0.05  # fraction of the larger bounding-box side


def _fmt(x: float) -> str:
    s = f"{x:.6f}".rstrip("0").rstrip(".")
    return "0" if s == "-0" else s


def save_svg(pattern: CreasePattern) -> bytes:
    """Render a pattern; an empty pattern yields an empty unit canvas."""
    pts = pattern.vertices
    if pts:
        xs = [p[0] for p in pts]
        ys = [p[1] for p in pts]
        span = max(max(xs) - min(xs), max(ys) - min(ys), 1e-9)
        pad = MARGIN * span
        x0, y0 = min(xs) - pad, min(ys) - pad
        w, h = max(xs) - min(xs) + 2 * pad, max(ys) - min(ys) + 2 * pad
    else:
        x0 = y0 = 0.0
        w = h = 1.0
    sw = _fmt(STROKE_WIDTH * max(w, h))

    lines = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        f'viewBox="{_fmt(x0)} {_fmt(y0)} {_fmt(w)} {_fmt(h)}">',
        # Flip y so the pattern's counterclockwise orientation displays upright.
        f'<g transform="translate(0 {_fmt(2 * y0 + h)}) scale(1 -1)" fill="none" '
        f'stroke-linecap="round" stroke-width="{sw}">',
    ]
    for c in pattern.creases:
        ax, ay = pattern.vertices[c.v0]
        bx, by = pattern.vertices[c.v1]
        lines.append(
            f'<path class="{c.assignment}" stroke="{COLORS[c.assignment]}" '
            f'd="M {_fmt(ax)} {_fmt(ay)} L {_fmt(bx)} {_fmt(by)}"/>'
        )
    lines.append("</g>")
    lines.append("</svg>")
    return ("\n".join(lines) + "\n").encode("utf-8")
