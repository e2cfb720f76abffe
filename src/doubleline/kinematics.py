"""Closed-form kinematics of flat-foldable degree-4 vertices.

A flat-foldable degree-4 vertex has sectors (α, β, π−α, π−β)
counterclockwise, with crease e_1 between α and β.  Along each of its two
folding modes the tangents of the half fold angles stay proportional:
tan(ρ_i/2) = m_i·t.  The parameter t is canonical everywhere in this
package; fold angles are derived from it, never integrated.
"""
from __future__ import annotations

import math
from enum import Enum
from typing import Mapping

from .pattern import CreasePattern, VertexStar, breadth_first_tree, is_flat_foldable_deg4

DEGENERACY_TOL = 1e-12
MOTION_TOL = 1e-9  # relative disagreement of two vertices' values on one crease


class KinematicsError(ValueError):
    """Raised for kinematically invalid inputs (poles, wrong vertex type)."""


class MotionMismatch(KinematicsError):
    """The two interior ends of one crease fold it at different values: a loop that does not close."""

    def __init__(self, crease: int, ends: tuple[tuple[int, float], tuple[int, float]]):
        (u, a), (v, b) = ends
        super().__init__(f"mode assignment admits no motion: crease {crease} folds at {a:.9g} from vertex {u} "
                         f"and at {b:.9g} from vertex {v}")
        self.crease, self.ends = crease, ends


class FoldMode(Enum):
    A = "a"
    B = "b"


def tan_half(angle: float) -> float:
    """tan(angle/2) with an explicit error at the pole angle = pi."""
    if not -1e-12 <= angle <= math.pi - 1e-12:
        raise KinematicsError(f"angle {angle!r} outside [0, pi) hits a tangent pole")
    return math.tan(0.5 * max(angle, 0.0))


def p_coeff(alpha: float, beta: float) -> float:
    """(1 − tan(α/2)tan(β/2)) / (1 + tan(α/2)tan(β/2)).

    Equals cos((α+β)/2)/cos((α−β)/2); the fold-speed ratio of the minor
    creases relative to the major ones at a vertex with sectors (α, β,
    π−α, π−β).
    """
    ta, tb = tan_half(alpha), tan_half(beta)
    return (1.0 - ta * tb) / (1.0 + ta * tb)


def q_coeff(alpha: float, beta: float) -> float:
    """(−tan(α/2) + tan(β/2)) / (tan(α/2) + tan(β/2))."""
    ta, tb = tan_half(alpha), tan_half(beta)
    if ta + tb < DEGENERACY_TOL:
        raise KinematicsError("q undefined for alpha = beta = 0")
    return (tb - ta) / (ta + tb)


def branch_multipliers(mode: FoldMode, alpha: float, beta: float) -> tuple[float, float, float, float]:
    """Multipliers of one folding branch of the vertex with sectors (α, β, π−α, π−β).

    Branch a: (1, −p(α,β), 1, p(α,β)) with e_0, e_2 major.
    Branch b: (−q(α,β), 1, q(α,β), 1) with e_1, e_3 major.
    """
    if mode is FoldMode.A:
        p = p_coeff(alpha, beta)
        return (1.0, -p, 1.0, p)
    q = q_coeff(alpha, beta)
    return (-q, 1.0, q, 1.0)


def mode_vector(star: VertexStar, mode: FoldMode) -> tuple[float, float, float, float]:
    """Multipliers m_0..m_3 of one folding mode in star crease order (see branch_multipliers)."""
    if not is_flat_foldable_deg4(star):
        raise KinematicsError(f"vertex {star.vertex} (degree {star.degree}) is not a flat-foldable degree-4 vertex")
    return branch_multipliers(mode, star.sectors[0], star.sectors[1])


def crease_motion(pattern: CreasePattern, branches: Mapping[int, FoldMode]) -> list[float]:
    """Each crease's tan-half multiplier in the one motion of the interior vertices folding along their branches.

    Vertex v folds along its branch's mode vector m_v times a scale s_v
    (Tachi 2009), a multiplier below DEGENERACY_TOL counting as 0.  Creases
    that both ends move join vertices into parts; down each part's
    breadth-first tree (pattern.breadth_first_tree) its lowest vertex takes
    s = 1 and s_w = s_u·m_u(c)/m_w(c).  A part that moves a crease whose
    other interior end holds it flat stays flat, s = 0, whatever the
    numbering; so does every part but the one left free (the lowest part if
    none is, so that the crease that holds it shows two values).  A second
    free part is refused as degenerate, naming its lowest vertex.  A crease
    takes its lower end's value (0 at no interior vertex); its other end must
    agree within MOTION_TOL of the larger, else MotionMismatch names the first
    crease that does not.  The pattern needs an interior vertex.
    """
    m = {star.vertex: {ci: x if abs(x) >= DEGENERACY_TOL else 0.0
                       for ci, x in zip(star.crease_ids, mode_vector(star, branches[star.vertex]))}
         for star in pattern.interior_stars}

    def moves(ci: int, v: int) -> bool:
        return v in m and m[v][ci] != 0.0

    parts, free = [], []
    for root in m:
        if all(root not in part for part in parts):
            part = {root: 1.0}
            tree = breadth_first_tree(pattern, root, lambda ci, w: moves(ci, w) and moves(ci, pattern.other_end(ci, w)))
            for w, u, ci in tree:
                part[w] = part[u] * m[u][ci] / m[w][ci]
            parts.append(part)
            far = ((ci, pattern.other_end(ci, v)) for v in part for ci in m[v] if moves(ci, v))
            if not any(w in m and not moves(ci, w) for ci, w in far):
                free.append(part)
    if len(free) > 1:
        raise KinematicsError(f"mode assignment is degenerate: no crease sets the scale of vertex {min(free[1])}")
    kept = (free or parts)[0]
    g, at = [0.0] * len(pattern.creases), {}
    for v, mv in m.items():
        for ci, x in mv.items():
            value = x * kept.get(v, 0.0) + 0.0  # + 0.0: no -0.0 on a flat crease
            u, a = at.setdefault(ci, (v, value))
            if abs(value - a) > MOTION_TOL * max(abs(value), abs(a)):
                raise MotionMismatch(ci, ((u, a), (v, value)))
            g[ci] = a
    return g
