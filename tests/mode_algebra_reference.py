"""Reference copies of the doubled-vertex mode algebra as the kit wrote it
before the generic-mode table: one branch per mode, written out by hand.

The tests require the table-driven code to agree with these exactly
(``==`` on every float), and the projection below to agree with the corner
branches the doubling connector now reads from each corner's sign.
"""
import math
from typing import NamedTuple

import numpy as np

from doubleline.dl import MODE_A1, MODE_A2, MODE_B1, MODE_B2, DlError, _lin_mul
from doubleline.kinematics import DEGENERACY_TOL, FoldMode, mode_vector, p_coeff, q_coeff, tan_half
from doubleline.pattern import vertex_star


class DLMultipliers(NamedTuple):
    """Multipliers of a doubled vertex, indexed by axis: rays_plus[i] and rays_minus[i] are the doubled pair of
    crease e_i (rays from c_i and c_{i-1}); sides[i] is the polygon side joining c_{i-1} to c_i."""

    rays_plus: tuple
    rays_minus: tuple
    sides: tuple


def mode_pairs(mode, alpha, beta, theta):
    pa, pb = p_coeff(alpha, theta), p_coeff(beta, theta)
    qa, qb = q_coeff(alpha, theta), q_coeff(beta, theta)
    if mode == MODE_A1:
        return (1.0, pa * qb), (pa, qb)
    if mode == MODE_A2:
        return (1.0, qa * pb), (pb, qa)
    if mode == MODE_B1:
        return (1.0, -qa * qb), (-qa, qb)
    if mode == MODE_B2:
        return (1.0, -pa * pb), (pb, -pa)
    raise DlError(f"mode {mode.label} has no major/minor axis split")


def critical_thetas(mode, alpha, beta):
    table = {
        MODE_A1.label: (beta, math.pi - alpha),
        MODE_A2.label: (alpha, math.pi - beta),
        MODE_B1.label: (alpha, beta),
        MODE_B2.label: (math.pi - alpha, math.pi - beta),
    }
    if mode.label not in table:
        raise DlError(f"mode {mode.label} has no critical-theta table")
    return table[mode.label]


def ratio_polynomial(mode, axis, alpha, beta, f, s):
    ta, tb = tan_half(alpha), tan_half(beta)
    pa, pb = ((1.0, -ta), (1.0, ta)), ((1.0, -tb), (1.0, tb))
    qa, qb = ((-ta, 1.0), (ta, 1.0)), ((-tb, 1.0), (tb, 1.0))
    table = {
        MODE_A1.label: ((1.0, pa, qb), ((1.0, pa), (1.0, qb))),
        MODE_A2.label: ((1.0, qa, pb), ((1.0, pb), (1.0, qa))),
        MODE_B1.label: ((-1.0, qa, qb), ((-1.0, qa), (1.0, qb))),
        MODE_B2.label: ((-1.0, pa, pb), ((1.0, pb), (-1.0, pa))),
    }
    if mode.label not in table:
        raise DlError(f"mode {mode.label} has no major/minor axis split")
    major, minor = table[mode.label]
    if axis == "major":
        sign, x, y = major
        u, v, fu, sv = _lin_mul(x[0], y[0]), _lin_mul(x[1], y[1]), f * sign, s
    else:
        (s1, x), (s2, y) = minor
        u, v, fu, sv = _lin_mul(y[0], x[1]), _lin_mul(x[0], y[1]), f * s2, s * s1
    return tuple(fu * a - sv * b for a, b in zip(u, v))


def corner_coefficient(sign, sigma, theta):
    if sign != "-":
        return -q_coeff(sigma, theta)
    p = p_coeff(sigma, theta)
    if abs(p) < DEGENERACY_TOL:
        raise DlError(f"pole: p({sigma:.6f}, {theta:.6f}) = 0 cannot be inverted")
    return -1.0 / p


def corner_coefficients(mode, alpha, beta, theta):
    sigmas = (alpha, beta, math.pi - alpha, math.pi - beta)
    return tuple(corner_coefficient(s, sigma, theta) for s, sigma in zip(mode.signs, sigmas))


def dl_multipliers(sectors, signs, theta):
    """The multipliers, corner 0 at scale 1, and the relative mismatch of the propagation around P that was their
    closure_error: corner i's scale s_i and its sides' coefficients f_i, g_i give s_{i+1} = s_i·f_i / g_{i+1}."""
    n = len(sectors)
    if len(signs) != n:
        raise DlError("need one sign per corner")
    p = [p_coeff(s, theta) for s in sectors]
    q = [q_coeff(s, theta) for s in sectors]
    f = [1.0 if s == "-" else q[i] for i, s in enumerate(signs)]
    g = [p[i] if s == "-" else 1.0 for i, s in enumerate(signs)]

    scale = [1.0]
    for i in range(n - 1):
        if abs(g[i + 1]) < DEGENERACY_TOL:
            raise DlError(f"corner {i + 1} has a vanishing side coefficient at this theta")
        scale.append(scale[i] * f[i] / g[i + 1])
    left = f[n - 1] * scale[n - 1]
    right = g[0] * scale[0]
    closure = abs(left - right) / max(abs(left), abs(right), DEGENERACY_TOL)

    rays_plus = []
    rays_minus = [0.0] * n
    sides = [0.0] * n
    for i, s in enumerate(signs):
        if s == "-":
            rays_plus.append(scale[i])
            rays_minus[(i + 1) % n] = -p[i] * scale[i]
        else:
            rays_plus.append(-q[i] * scale[i])
            rays_minus[(i + 1) % n] = scale[i]
        sides[(i + 1) % n] = f[i] * scale[i]
    return DLMultipliers(tuple(rays_plus), tuple(rays_minus), tuple(sides)), closure


def projected_corner_branches(pattern, record):
    """Corner vertex -> the branch whose mode vector is nearest its recorded multipliers."""
    out = {}
    for corners in record.corners.values():
        for cv in corners:
            star = vertex_star(pattern, cv)
            want = np.array([record.multipliers[ci] for ci in star.crease_ids])
            best, best_d = None, math.inf
            for fm in (FoldMode.A, FoldMode.B):
                mv = np.array(mode_vector(star, fm))
                d = float(
                    np.linalg.norm(want - mv * (want @ mv) / (mv @ mv))
                ) / max(float(np.linalg.norm(want)), 1e-300)
                if d < best_d:
                    best, best_d = fm, d
            if best_d > 1e-8:
                raise DlError(f"corner {cv} multipliers match neither folding branch")
            out[cv] = best
    return out
