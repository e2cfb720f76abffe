"""Small planar/spatial geometry helpers shared across modules.

Angles are radians internally everywhere; conversion to degrees happens
only at the CLI/file-format boundary.
"""
from __future__ import annotations

import math

import numpy as np

TAU = 2.0 * math.pi
SEGMENT_EPS = 1e-12  # relative tolerance of segments_intersect


def unit(azimuth: float) -> np.ndarray:
    return np.array([math.cos(azimuth), math.sin(azimuth)])


def angle_ccw(a_from: float, a_to: float) -> float:
    """Counterclockwise angle from azimuth a_from to a_to, in [0, 2*pi)."""
    d = math.fmod(a_to - a_from, TAU)
    if d < 0.0:
        d += TAU
    return d


def orient(p, q, r) -> float:
    """Twice the signed area of triangle p, q, r: positive when it turns counterclockwise."""
    return (q[0] - p[0]) * (r[1] - p[1]) - (q[1] - p[1]) * (r[0] - p[0])


def crossing(p0, d0, p1, d1) -> tuple[float, float] | None:
    """Parameters (s, u) of the point p0 + s*d0 = p1 + u*d1 where two lines cross.

    None when the lines are parallel: |det| below 1e-14 (|d0| |d1| + 1).
    """
    det = d0[0] * (-d1[1]) - (-d1[0]) * d0[1]
    if abs(det) < 1e-14 * (math.hypot(d0[0], d0[1]) * math.hypot(d1[0], d1[1]) + 1.0):
        return None
    rhs = p1[0] - p0[0], p1[1] - p0[1]
    return (rhs[0] * (-d1[1]) - (-d1[0]) * rhs[1]) / det, (d0[0] * rhs[1] - d0[1] * rhs[0]) / det


def intersect_lines(p0: np.ndarray, d0: np.ndarray, p1: np.ndarray, d1: np.ndarray) -> np.ndarray:
    """Intersection of two lines given as point + direction. Raises on parallel."""
    su = crossing(p0, d0, p1, d1)
    if su is None:
        raise ValueError("lines are parallel")
    return p0 + su[0] * d0


def segments_intersect(a0, a1, b0, b1) -> bool:
    """True if open segments a0-a1 and b0-b1 properly cross or overlap.

    Shared endpoints do not count as an intersection.  Orientations count
    as zero within SEGMENT_EPS of the squared scale of the four points.
    """
    a0 = np.asarray(a0, dtype=float)
    a1 = np.asarray(a1, dtype=float)
    b0 = np.asarray(b0, dtype=float)
    b1 = np.asarray(b1, dtype=float)

    scale = max(
        abs(a1 - a0).max(), abs(b1 - b0).max(), abs(b0 - a0).max(), 1.0
    )
    eps = SEGMENT_EPS
    tol = eps * scale * scale

    d1 = orient(a0, a1, b0)
    d2 = orient(a0, a1, b1)
    d3 = orient(b0, b1, a0)
    d4 = orient(b0, b1, a1)

    if ((d1 > tol and d2 < -tol) or (d1 < -tol and d2 > tol)) and (
        (d3 > tol and d4 < -tol) or (d3 < -tol and d4 > tol)
    ):
        return True

    def on_segment_interior(p, q, r):
        # r collinear with p-q: is it strictly inside?
        if abs(orient(p, q, r)) > tol:
            return False
        t_lo = min(p[0], q[0]) + eps * scale
        t_hi = max(p[0], q[0]) - eps * scale
        s_lo = min(p[1], q[1]) + eps * scale
        s_hi = max(p[1], q[1]) - eps * scale
        inside_x = t_lo < r[0] < t_hi if abs(p[0] - q[0]) > eps * scale else True
        inside_y = s_lo < r[1] < s_hi if abs(p[1] - q[1]) > eps * scale else True
        return inside_x and inside_y

    for p, q, r in ((a0, a1, b0), (a0, a1, b1), (b0, b1, a0), (b0, b1, a1)):
        if on_segment_interior(p, q, r):
            return True
    return False


def triangulate(poly) -> list[tuple[int, int, int]]:
    """Triangles of a simple counterclockwise polygon, as corner index triples, by ear clipping.

    Every simple polygon has an ear (Meisters 1975): a convex corner whose
    triangle holds no other corner.  Corners are scanned in order and the
    first ear is cut off until a triangle is left.  Raises ValueError when
    no corner is an ear.
    """
    idx = list(range(len(poly)))
    tris: list[tuple[int, int, int]] = []
    while len(idx) > 3:
        for k in range(len(idx)):
            i0, i1, i2 = idx[k - 1], idx[k], idx[(k + 1) % len(idx)]
            a, b, c = poly[i0], poly[i1], poly[i2]
            if orient(a, b, c) <= 1e-14:
                continue
            # no other corner strictly inside the candidate ear
            if not any(orient(a, b, p) >= -1e-14 and orient(b, c, p) >= -1e-14 and orient(c, a, p) >= -1e-14
                       for p in (poly[j] for j in idx if j not in (i0, i1, i2))):
                tris.append((i0, i1, i2))
                del idx[k]
                break
        else:
            raise ValueError("polygon has no ear to clip: it is not simple and counterclockwise")
    tris.append((idx[0], idx[1], idx[2]))
    return tris


def polygon_area(points: np.ndarray) -> float:
    """Signed area (positive for counterclockwise winding)."""
    pts = np.asarray(points, dtype=float)
    x, y = pts[:, 0], pts[:, 1]
    return 0.5 * float(np.dot(x, np.roll(y, -1)) - np.dot(y, np.roll(x, -1)))
