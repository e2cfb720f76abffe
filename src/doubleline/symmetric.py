"""Doubled fully-symmetric degree-2n vertices: modes, counting, fold law.

A degree-2n vertex with all sectors equal to π/n is never flat-foldable
for n > 2, but its doubled pattern (θ = π/2, equal radii) folds rigidly.
Folding modes are balanced ± sign sequences around the central 2n-gon,
counted up to rotation.
"""
from __future__ import annotations

import math
import sys
from itertools import combinations

from .dl import DlError, DoubleLineParams, _closes, construct_dl, sign_pattern_product
from .kinematics import p_coeff
from .pattern import CreasePattern, VertexStar

ENUMERATION_CAP = 10


def construct_symmetric_dl(n: int) -> CreasePattern:
    """Doubled pattern of the degree-2n all-equal-sector vertex (θ = 90°, unit radii)."""
    if n < 2:
        raise DlError("symmetric construction needs n >= 2")
    star = VertexStar.from_sectors([math.pi / n] * (2 * n))
    return construct_dl(star, DoubleLineParams(math.pi / 2, (1.0,) * (2 * n)))


def quarter_angle_coefficient(n: int) -> float:
    """p(π/n, π/2) = (1 − tan(π/2n)) / (1 + tan(π/2n))."""
    if n < 2:
        raise DlError("quarter-angle coefficient needs n >= 2")
    return p_coeff(math.pi / n, math.pi / 2)


def symmetric_fold_relation(n: int, rho_a: float) -> float:
    """Companion fold angle of the alternating motion of the doubled vertex.

    Along the fully-symmetric (+−+−…) mode the two alternating original
    fold angles obey tan(ρ_b/4) = −p(π/n, π/2)·tan(ρ_a/4).  ρ_a is a
    doubled-pair sum, so it ranges over (−2π, 2π); the flat-folded limits
    ±2π map to ∓2π.
    """
    if not -2.0 * math.pi <= rho_a <= 2.0 * math.pi:
        raise DlError("rho_a must lie in [-2*pi, 2*pi]")
    coeff = quarter_angle_coefficient(n)
    if abs(abs(rho_a) - 2.0 * math.pi) < 1e-12:
        return -2.0 * math.pi * math.copysign(1.0, rho_a) if coeff > 0 else 0.0
    return -4.0 * math.atan(coeff * math.tan(0.25 * rho_a))


def canonical_sequence(signs: str) -> str:
    """Lexicographically minimal rotation; '+' sorts before '-'."""
    return min(signs[k:] + signs[:k] for k in range(len(signs)))


def enumerate_mode_sequences(n: int) -> frozenset[str]:
    """All balanced ± sequences of length 2n, up to rotation.

    For n >= 3 every representative is checked to close the central
    polygon (dl._closes); smaller n are degenerate at
    θ = 90° and are accepted combinatorially.
    """
    if n < 1:
        raise DlError("need n >= 1")
    if n > ENUMERATION_CAP:
        raise DlError(f"enumeration capped at n = {ENUMERATION_CAP} (got {n})")
    seqs = set()
    for plus_at in combinations(range(2 * n), n):
        signs = "".join("+" if i in plus_at else "-" for i in range(2 * n))
        seqs.add(canonical_sequence(signs))
    if n >= 3:
        sectors = [math.pi / n] * (2 * n)
        for s in seqs:
            if not _closes(tuple(s), sectors, math.pi / 2):
                prod = sign_pattern_product(s, sectors, math.pi / 2)
                raise DlError(f"balanced sequence {s} fails loop closure: {prod}")
    # interned, so enumerations of one n held side by side share their
    # strings (75 of the 121 KB one n <= 8 sweep holds) instead of each
    # keeping a copy
    return frozenset(map(sys.intern, seqs))


def count_modes(n: int) -> int:
    """Number of folding modes of the doubled degree-2n symmetric vertex.

    Balanced binary necklaces of length 2n (integer sequence A003239):
    (1/2n)·Σ_{d|n} φ(n/d)·C(2d, d), evaluated exactly.
    """
    if n < 1:
        raise DlError("need n >= 1")
    total = 0
    for d in range(1, n + 1):
        if n % d == 0:
            total += _euler_phi(n // d) * math.comb(2 * d, d)
    assert total % (2 * n) == 0
    return total // (2 * n)


def _euler_phi(m: int) -> int:
    out, k = m, 2
    while k * k <= m:
        if m % k == 0:
            while m % k == 0:
                m //= k
            out -= out // k
        k += 1
    if m > 1:
        out -= out // m
    return out

