"""Closed-form kinematics of flat-foldable degree-4 vertices.

A flat-foldable degree-4 vertex has sectors (α, β, π−α, π−β)
counterclockwise, with crease e_1 between α and β.  Along each of its two
folding modes the tangents of the half fold angles stay proportional:
tan(ρ_i/2) = m_i·t.  The parameter t is canonical everywhere in this
package; fold angles are derived from it, never integrated.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .pattern import VertexStar, is_flat_foldable_deg4

DEGENERACY_TOL = 1e-12


class KinematicsError(ValueError):
    """Raised for kinematically invalid inputs (poles, wrong vertex type)."""


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


@dataclass(frozen=True)
class ModeVector:
    """Multipliers m_0..m_3 with tan(ρ_i/2) = m_i·t, in star crease order.

    ``degenerate`` marks a vanishing minor coefficient (p or q equal to 0):
    the two frozen creases make the vector unusable for speed ratios and
    for driving doubled patterns, though the motion itself is still valid.
    """

    multipliers: tuple[float, float, float, float]
    mode: FoldMode
    degenerate: bool

    def __iter__(self):
        return iter(self.multipliers)

    def __getitem__(self, i: int) -> float:
        return self.multipliers[i]


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


def mode_vector(star: VertexStar, mode: FoldMode) -> ModeVector:
    """Fold-speed multipliers of one folding mode (see branch_multipliers)."""
    if not is_flat_foldable_deg4(star):
        raise KinematicsError("mode_vector requires a flat-foldable degree-4 vertex")
    m = branch_multipliers(mode, star.sectors[0], star.sectors[1])
    return ModeVector(m, mode, min(map(abs, m)) < DEGENERACY_TOL)


def fold_angles_at(star: VertexStar, mode: FoldMode, t: float) -> np.ndarray:
    """Fold angles ρ_i = 2·arctan(m_i·t), ordered like star.crease_ids.

    t = 0 is the unfolded state; t → ±∞ drives the major creases to ±π.
    """
    mv = mode_vector(star, mode)
    return 2.0 * np.arctan(np.array(mv.multipliers) * float(t))
