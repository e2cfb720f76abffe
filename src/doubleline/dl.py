"""Double-line patterns DL(V, θ): construction, modes, regimes, ratios.

Each crease e_i of a vertex V is replaced by two parallel creases meeting
a central polygon P whose side on axis i passes at distance r_i from V and
makes angle θ with the doubled creases.  Every corner of P becomes a
flat-foldable degree-4 vertex with sectors (σ_i, θ, π−σ_i, π−θ), so the
doubled pattern folds rigidly even when V itself does not.

Corner branch conventions: at corner c_i the four creases are, in
counterclockwise order, (ray_i^+, ray_{i+1}^-, side_{i+1}, side_i), where
ray_i^+ leaves c_i parallel to e_i and side_j joins c_{j-1} to c_j.  Modes
are per-corner sign sequences; sign "-" puts the corner on its local mode
a (multipliers 1, −p(σ_i,θ), 1, p(σ_i,θ)), sign "+" on mode b
(−q(σ_i,θ), 1, q(σ_i,θ), 1).
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .fold_io import get_extra, set_extra
from .geometry import intersect_lines, unit
from .kinematics import DEGENERACY_TOL, FoldMode, p_coeff, q_coeff, tan_half
from .pattern import Crease, CreasePattern, PatternError, VertexStar, vertex_star

CONSTRUCTION_KEY = "doubleline:construction"
MULTIPLIER_KEY = "doubleline:crease_multipliers"


class DlError(ValueError):
    """Raised for invalid double-line constructions or unreachable targets."""


# -- modes -------------------------------------------------------------------


@dataclass(frozen=True)
class DLMode:
    """A folding mode of a doubled degree-4 vertex: per-corner sign sequence."""

    label: str
    signs: tuple[str, ...]

    def __str__(self) -> str:
        return self.label


MODE_A1 = DLMode("a-I", ("-", "+", "+", "-"))
MODE_A2 = DLMode("a-II", ("+", "-", "-", "+"))
MODE_B1 = DLMode("b-I", ("+", "+", "-", "-"))
MODE_B2 = DLMode("b-II", ("-", "-", "+", "+"))
MODE_SYM_PLUS = DLMode("sym+", ("+", "-", "+", "-"))
MODE_SYM_MINUS = DLMode("sym-", ("-", "+", "-", "+"))

GENERIC_MODES = (MODE_A1, MODE_A2, MODE_B1, MODE_B2)
SYMMETRIC_MODES = (MODE_SYM_PLUS, MODE_SYM_MINUS)
ALL_MODES = GENERIC_MODES + SYMMETRIC_MODES


def mode_from_label(label: str) -> DLMode:
    for m in ALL_MODES:
        if m.label == label:
            return m
    raise DlError(f"unknown double-line mode {label!r}")


def corner_modes(mode: DLMode) -> tuple[FoldMode, ...]:
    """Local folding mode of each corner vertex: sign '-' is a, '+' is b."""
    return tuple(FoldMode.A if s == "-" else FoldMode.B for s in mode.signs)


def corner_coefficients(
    mode: DLMode, alpha: float, beta: float, theta: float
) -> tuple[float, ...]:
    """Per-corner speed coefficients: −1/p(σ_i,θ) at a '-' corner, −q(σ_i,θ) at '+'.

    Their product around the central polygon equals 1 exactly when the sign
    sequence admits the finite rigid folding.
    """
    sigmas = (alpha, beta, math.pi - alpha, math.pi - beta)
    out = []
    for s, sigma in zip(mode.signs, sigmas):
        if s == "-":
            p = p_coeff(sigma, theta)
            if abs(p) < DEGENERACY_TOL:
                raise DlError(f"pole: p({sigma:.6f}, {theta:.6f}) = 0 cannot be inverted")
            out.append(-1.0 / p)
        else:
            out.append(-q_coeff(sigma, theta))
    return tuple(out)


def sign_pattern_product(signs: Sequence[str], sectors: Sequence[float], theta: float) -> float:
    """Corner-coefficient product of an arbitrary sign sequence around P."""
    prod = 1.0
    for s, sigma in zip(signs, sectors):
        if s == "-":
            p = p_coeff(sigma, theta)
            if abs(p) < DEGENERACY_TOL:
                return math.inf
            prod *= -1.0 / p
        else:
            prod *= -q_coeff(sigma, theta)
    return prod


def mode_is_valid(mode: DLMode, alpha: float, beta: float, theta: float, tol: float = 1e-9) -> bool:
    """Whether a mode produces a rigid motion of DL(V,θ) for this vertex.

    The four generic modes always close up.  The alternating sym± modes
    need the symmetric sector condition (α = β or α = π−β) and, by
    convention, the perpendicular construction θ = π/2.
    """
    if mode in GENERIC_MODES:
        sigmas = (alpha, beta, math.pi - alpha, math.pi - beta)
        return abs(sign_pattern_product(mode.signs, sigmas, theta) - 1.0) <= tol
    symmetric = abs(alpha - beta) <= tol or abs(alpha - (math.pi - beta)) <= tol
    return symmetric and abs(theta - math.pi / 2) <= tol


def valid_modes(alpha: float, beta: float, theta: float, tol: float = 1e-9) -> tuple[DLMode, ...]:
    return tuple(m for m in ALL_MODES if mode_is_valid(m, alpha, beta, theta, tol))


# -- multiplier engine -------------------------------------------------------


@dataclass(frozen=True)
class DLMultipliers:
    """tan-half fold-angle multipliers of a doubled pattern, one scale overall.

    Indexed by axis: rays_plus[i] and rays_minus[i] are the doubled pair of
    original crease e_i (rays from c_i and c_{i-1}); sides[i] is the polygon
    side joining c_{i-1} to c_i.  closure_error is the relative mismatch of
    the propagation around P (0 for a valid sign sequence).
    """

    rays_plus: tuple[float, ...]
    rays_minus: tuple[float, ...]
    sides: tuple[float, ...]
    closure_error: float


def dl_multipliers(sectors: Sequence[float], signs: Sequence[str], theta: float) -> DLMultipliers:
    """Propagate corner speed coefficients around the central polygon.

    Corner i carries a scale s_i; matching the shared polygon sides gives
    s_{i+1} = s_i * f_i / g_{i+1} with f, g from the corner branches.  Works
    for any even or odd degree; the caller decides what closure error means.
    """
    n = len(sectors)
    if len(signs) != n:
        raise DlError("need one sign per corner")
    p = [p_coeff(s, theta) for s in sectors]
    q = [q_coeff(s, theta) for s in sectors]
    # f: multiplier of side_{i+1} at corner i; g: multiplier of side_i at corner i
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
    return DLMultipliers(tuple(rays_plus), tuple(rays_minus), tuple(sides), closure)


# -- construction ------------------------------------------------------------


@dataclass(frozen=True)
class DoubleLineParams:
    """Rotation angle θ and per-crease polygon distances r_i."""

    theta: float
    radii: tuple[float, ...]

    def __post_init__(self):
        if not 0.0 < self.theta < math.pi:
            raise DlError("theta must lie strictly between 0 and pi")
        if any(r <= 0 for r in self.radii):
            raise DlError("all radii must be positive")


@dataclass(frozen=True)
class DLConstruction:
    """Crease-id layout of a constructed DL pattern (stored in its extras)."""

    theta: float
    sectors: tuple[float, ...]
    radii: tuple[float, ...]
    corners: tuple[int, ...]  # vertex ids of polygon corners, axis order
    axes: tuple[tuple[int, int], ...]  # (ray_i^+, ray_i^-) crease ids per axis
    sides: tuple[int, ...]  # polygon side crease ids, side_i joins c_{i-1}, c_i

    @property
    def degree(self) -> int:
        return len(self.sectors)


def axis_offsets(
    sectors: Sequence[float], radii: Sequence[float], theta: float
) -> tuple[tuple[float, float], ...]:
    """Signed perpendicular distances of each doubled pair from its axis line.

    Entry i is (offset of ray_i^+, offset of ray_i^-) measured along the
    counterclockwise normal of e_i; they control how doubled patterns of
    neighboring vertices line up along a shared crease.
    """
    n = len(sectors)
    st = math.sin(theta)
    out = []
    for i in range(n):
        s_i = sectors[i]
        s_prev = sectors[(i - 1) % n]
        r_i = radii[i]
        r_next = radii[(i + 1) % n]
        r_prev = radii[(i - 1) % n]
        plus = st * (r_next * st - r_i * math.sin(theta + s_i)) / math.sin(s_i)
        minus = st * (r_i * math.sin(theta - s_prev) - r_prev * st) / math.sin(s_prev)
        out.append((plus, minus))
    return tuple(out)


def construct_dl(
    star: VertexStar, params: DoubleLineParams, outer_length: float | None = None
) -> CreasePattern:
    """Build the doubled crease pattern DL(V, θ) of one interior vertex.

    Axis e_0 is placed along +x.  Crease ids are laid out so that every
    corner's lowest incident id is its ray_i^+, which makes the corner's
    star sectors read (σ_i, θ, π−σ_i, π−θ) and keeps the corner-branch
    conventions of this module aligned with the constructed pattern.
    Construction data is attached under the extras key
    "doubleline:construction" and survives FOLD round-trips.
    """
    if not star.interior:
        raise DlError("double-line construction needs an interior vertex")
    n = star.degree
    if n < 3:
        raise DlError("double-line construction needs degree >= 3")
    if len(params.radii) != n:
        raise DlError(f"need {n} radii, got {len(params.radii)}")
    theta = params.theta
    sectors = star.sectors

    phis = [0.0]
    for s in sectors[:-1]:
        phis.append(phis[-1] + s)
    us = [unit(phi) for phi in phis]
    ds = [unit(phi + theta) for phi in phis]
    corners = []
    for i in range(n):
        j = (i + 1) % n
        try:
            corners.append(
                intersect_lines(params.radii[i] * us[i], ds[i], params.radii[j] * us[j], ds[j])
            )
        except ValueError as exc:
            raise DlError(f"sides {i} and {j} are parallel: degenerate polygon") from exc

    reach = max(float(np.linalg.norm(c)) for c in corners)
    length = outer_length if outer_length is not None else 3.0 * max(reach, max(params.radii), 1.0)

    verts: list[tuple[float, float]] = [(c[0], c[1]) for c in corners]
    plus_end = []
    minus_end = []
    for i in range(n):
        e = corners[i] + length * us[i]
        plus_end.append(len(verts))
        verts.append((e[0], e[1]))
    for i in range(n):
        e = corners[(i - 1) % n] + length * us[i]
        minus_end.append(len(verts))
        verts.append((e[0], e[1]))

    creases: list[Crease] = []
    for i in range(n):  # ids 0..n-1: rays from c_i
        creases.append(Crease(i, plus_end[i], "U"))
    for i in range(n):  # ids n..2n-1: rays from c_{i-1}
        creases.append(Crease((i - 1) % n, minus_end[i], "U"))
    for i in range(n):  # ids 2n..3n-1: polygon sides
        creases.append(Crease((i - 1) % n, i, "U"))
    for i in range(n):  # boundary: wedge chord after ray_i^+, then strip chords
        creases.append(Crease(plus_end[i], minus_end[(i + 1) % n], "B"))
    for i in range(n):
        creases.append(Crease(minus_end[i], plus_end[i], "B"))

    try:
        pattern = CreasePattern.build(verts, creases)
    except PatternError as exc:
        raise DlError(f"degenerate double-line geometry: {exc}") from exc

    for i in range(n):
        corner = vertex_star(pattern, i)
        want = (sectors[i], theta, math.pi - sectors[i], math.pi - theta)
        if corner.crease_ids[0] != i or any(
            abs(a - b) > 1e-9 for a, b in zip(corner.sectors, want)
        ):
            raise DlError(f"corner {i} inverted; radii too small for this theta")

    construction = {
        "theta": theta,
        "sectors": list(sectors),
        "radii": list(params.radii),
        "corners": list(range(n)),
        "axes": [[i, n + i] for i in range(n)],
        "sides": [2 * n + i for i in range(n)],
    }
    return set_extra(pattern, CONSTRUCTION_KEY, construction)


def dl_info(pattern: CreasePattern) -> DLConstruction:
    """Recover the construction layout stored by construct_dl."""
    raw = get_extra(pattern, CONSTRUCTION_KEY)
    if raw is None:
        raise DlError("pattern carries no double-line construction data")
    return DLConstruction(
        theta=float(raw["theta"]),
        sectors=tuple(float(s) for s in raw["sectors"]),
        radii=tuple(float(r) for r in raw["radii"]),
        corners=tuple(int(v) for v in raw["corners"]),
        axes=tuple((int(a), int(b)) for a, b in raw["axes"]),
        sides=tuple(int(s) for s in raw["sides"]),
    )


def pattern_multipliers(pattern: CreasePattern, mode: DLMode) -> np.ndarray:
    """Per-crease multiplier vector of a constructed DL pattern in one mode."""
    info = dl_info(pattern)
    if len(mode.signs) != info.degree:
        raise DlError(f"mode {mode.label} has {len(mode.signs)} signs, pattern degree {info.degree}")
    mult = dl_multipliers(info.sectors, mode.signs, info.theta)
    if mult.closure_error > 1e-9:
        raise DlError(f"mode {mode.label} does not close on this vertex")
    out = np.zeros(len(pattern.creases))
    for i, (plus, minus) in enumerate(info.axes):
        out[plus] = mult.rays_plus[i]
        out[minus] = mult.rays_minus[i]
    for i, side in enumerate(info.sides):
        out[side] = mult.sides[i]
    return out


def corner_mode_map(pattern: CreasePattern, mode: DLMode) -> dict[int, FoldMode]:
    """Vertex id -> local FoldMode assignment realizing a DL mode."""
    info = dl_info(pattern)
    branches = corner_modes(mode)
    return {v: branches[i] for i, v in enumerate(info.corners)}


def assign_mode_mv(pattern: CreasePattern, multipliers: np.ndarray) -> CreasePattern:
    """Label creases M/V from multiplier signs (valley positive at small t > 0)."""
    if len(multipliers) != len(pattern.creases):
        raise DlError("multiplier vector length must match crease count")
    new = []
    for c, m in zip(pattern.creases, multipliers):
        if c.assignment == "B":
            new.append(c)
        elif m > DEGENERACY_TOL:
            new.append(Crease(c.v0, c.v1, "V", c.fold_angle))
        elif m < -DEGENERACY_TOL:
            new.append(Crease(c.v0, c.v1, "M", c.fold_angle))
        else:
            new.append(Crease(c.v0, c.v1, "U", c.fold_angle))
    return CreasePattern.build(pattern.vertices, new, faces=pattern.faces, extras=dict(pattern.extras))


# -- axis sums, regimes, ratios ----------------------------------------------


def _mode_pairs(mode: DLMode, alpha: float, beta: float, theta: float):
    """(major pair, minor pair) of tan-half multipliers for the generic modes."""
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


def major_coefficient(mode: DLMode, alpha: float, beta: float, theta: float) -> float:
    """Second multiplier of the major pair (the first is 1)."""
    (_, k), _ = _mode_pairs(mode, alpha, beta, theta)
    return k


def axis_sums(
    alpha: float, beta: float, theta: float, mode: DLMode, t: float
) -> tuple[float, float]:
    """Fold-angle sums (S_major, S_minor) across the doubled pairs at motion t.

    Each sum is 2·arctan(m1·t) + 2·arctan(m2·t), continuous in t with
    S(0) = 0, so no branch unwrapping is ever needed.
    """
    (m1, m2), (w1, w2) = _mode_pairs(mode, alpha, beta, theta)
    s_major = 2.0 * math.atan(m1 * t) + 2.0 * math.atan(m2 * t)
    s_minor = 2.0 * math.atan(w1 * t) + 2.0 * math.atan(w2 * t)
    return s_major, s_minor


def corresponding_fold_angles(dl_angles: Sequence[float], pairing: Sequence[tuple[int, int]]) -> np.ndarray:
    """Fold angles of the original creases: sum over each doubled pair."""
    dl_angles = np.asarray(dl_angles, dtype=float)
    out = np.empty(len(pairing))
    for i, (a, b) in enumerate(pairing):
        if not (0 <= a < len(dl_angles) and 0 <= b < len(dl_angles)):
            raise DlError(f"pairing entry {i} references missing creases ({a}, {b})")
        out[i] = dl_angles[a] + dl_angles[b]
    return out


FULL_RANGE = "FullRange"
FINITE = "Finite"
CRITICAL = "Critical"


@dataclass(frozen=True)
class ThetaRegime:
    """Behavior of the axis sum S over the motion: full range, bounded, or critical."""

    tag: str
    extremum: float | None = None  # max |S_major|, present for Finite

    def __str__(self) -> str:
        if self.tag == FINITE:
            return f"Finite(M={math.degrees(self.extremum):.6f} deg)"
        return self.tag


def classify_theta(mode: DLMode, alpha: float, beta: float, theta: float) -> ThetaRegime:
    """Regime of θ for one mode.

    The major pair is (1, k): both multipliers sharing a sign (k > 0) lets
    S reach ±2π (full range); opposite signs bound |S| by
    M = π − 4·arctan(√−k) and S returns to 0 as t grows; k = 0 freezes one
    crease of every pair (critical θ).  In the canonical band
    0 < α < β < π/2 this reproduces the tabulated intervals, e.g. mode a-I
    is full-range exactly for β < θ < π−α.
    """
    for name, val in (("alpha", alpha), ("beta", beta), ("theta", theta)):
        if not 0.0 < val < math.pi:
            raise DlError(f"{name} must lie strictly between 0 and pi")
    k = major_coefficient(mode, alpha, beta, theta)
    if abs(k) < DEGENERACY_TOL:
        return ThetaRegime(CRITICAL)
    if k > 0:
        return ThetaRegime(FULL_RANGE)
    return ThetaRegime(FINITE, math.pi - 4.0 * math.atan(math.sqrt(-k)))


@dataclass(frozen=True)
class DoubleLineRatio:
    """Ratio of tan-half fold angles across one doubled pair, ordered pair."""

    first: float
    second: float

    def normalized(self) -> "DoubleLineRatio":
        if abs(self.first) > DEGENERACY_TOL:
            return DoubleLineRatio(1.0, self.second / self.first)
        if abs(self.second) < DEGENERACY_TOL:
            raise DlError("ratio 0:0 is undefined")
        return DoubleLineRatio(0.0, 1.0)

    def distance(self, other: "DoubleLineRatio") -> float:
        """Projective distance (sine of the angle between the ratio vectors)."""
        na = math.hypot(self.first, self.second)
        nb = math.hypot(other.first, other.second)
        if na == 0 or nb == 0:
            raise DlError("ratio 0:0 is undefined")
        return abs(self.first * other.second - self.second * other.first) / (na * nb)

    @classmethod
    def parse(cls, text: str) -> "DoubleLineRatio":
        parts = text.split(":")
        if len(parts) != 2:
            raise DlError(f"ratio {text!r} is not of the form a:b")
        return cls(float(parts[0]), float(parts[1]))

    def __str__(self) -> str:
        return f"{self.first:g}:{self.second:g}"


def double_line_ratio(
    mode: DLMode, axis: str, alpha: float, beta: float, theta: float
) -> DoubleLineRatio:
    """Representative doubled-pair ratio for the major or minor axis class."""
    major, minor = _mode_pairs(mode, alpha, beta, theta)
    if axis == "major":
        return DoubleLineRatio(*major).normalized()
    if axis == "minor":
        return DoubleLineRatio(*minor).normalized()
    raise DlError(f"axis must be 'major' or 'minor', not {axis!r}")


def critical_thetas(mode: DLMode, alpha: float, beta: float) -> tuple[float, float]:
    """The two θ values where one crease of every doubled pair freezes."""
    table = {
        MODE_A1.label: (beta, math.pi - alpha),
        MODE_A2.label: (alpha, math.pi - beta),
        MODE_B1.label: (alpha, beta),
        MODE_B2.label: (math.pi - alpha, math.pi - beta),
    }
    if mode.label not in table:
        raise DlError(f"mode {mode.label} has no critical-theta table")
    return table[mode.label]


def theta_for_even_minor(mode: DLMode, alpha: float, beta: float) -> float:
    """θ making the minor double-line ratio 1:1.

    tan(θ/2) is the geometric mean of the tan-halves of the mode's two
    critical θ values.
    """
    c1, c2 = critical_thetas(mode, alpha, beta)
    prod = tan_half(c1) * tan_half(c2)
    if prod <= 0:
        raise DlError("critical values with non-positive tan-half product")
    return 2.0 * math.atan(math.sqrt(prod))


def _lin_mul(u: tuple[float, float], v: tuple[float, float]) -> tuple[float, float, float]:
    """Product of two linear polynomials in h, coefficients in rising powers."""
    return (u[0] * v[0], u[0] * v[1] + u[1] * v[0], u[1] * v[1])


def _ratio_polynomial(
    mode: DLMode, axis: str, alpha: float, beta: float, f: float, s: float
) -> tuple[float, float, float]:
    """Coefficients (c0, c1, c2) of f·m2 − s·m1 with denominators cleared, in h = tan(θ/2).

    Every multiplier of _mode_pairs is a signed product of p/q factors, one
    on α and one on β, and each factor is a Möbius map of h:
    p(σ) = (1 − t·h)/(1 + t·h) and q(σ) = (h − t)/(t + h) with t = tan(σ/2).
    Both denominators are positive for h > 0, so multiplying by them keeps
    the roots on h > 0 and leaves a polynomial of degree at most 2.
    """
    ta, tb = tan_half(alpha), tan_half(beta)
    pa, pb = ((1.0, -ta), (1.0, ta)), ((1.0, -tb), (1.0, tb))
    qa, qb = ((-ta, 1.0), (ta, 1.0)), ((-tb, 1.0), (tb, 1.0))
    # per mode: major m2 = sign·x·y (m1 = 1); minor (m1, m2) = (sign·x, sign·y)
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


def theta_for_ratio(
    mode: DLMode,
    axis: str,
    alpha: float,
    beta: float,
    target: DoubleLineRatio,
    tol: float = 1e-9,
) -> float:
    """Solve for θ giving a prescribed doubled-pair ratio on one axis.

    With h = tan(θ/2) every p and q coefficient is a Möbius map of h, so
    f·m2(θ) − s·m1(θ) = 0 for target f:s is a quadratic in h once its
    positive denominators are cleared.  It is solved in closed form with a
    cancellation-free quadratic formula, which also finds double roots
    where the ratio touches its extremum; the smallest root with
    1e-8 ≤ h ≤ 1e8 gives θ = 2·atan(h).  Unreachable targets (1:±1 on a
    major axis, 1:−1 on a minor axis, or beyond the attainable range)
    raise DlError.
    """
    f, s = target.first, target.second
    scale = max(abs(f), abs(s))
    if scale == 0:
        raise DlError("ratio 0:0 is undefined")
    if axis == "major":
        if abs(abs(s) - abs(f)) <= tol * scale:
            raise DlError("a major axis cannot reach ratio 1:1 or 1:-1")
    elif axis == "minor":
        if abs(s + f) <= tol * scale:
            raise DlError("a minor axis cannot reach ratio 1:-1")
    else:
        raise DlError(f"axis must be 'major' or 'minor', not {axis!r}")

    # Every pair ratio tends to 1:-1 as h -> 0 and as h -> inf, so c0 and c2
    # are nonzero multiples of f + s, which the checks above keep from 0.
    c0, c1, c2 = _ratio_polynomial(mode, axis, alpha, beta, f, s)
    disc = c1 * c1 - 4.0 * c2 * c0
    if -1e-12 * (c1 * c1 + 4.0 * abs(c2 * c0)) <= disc < 0.0:
        disc = 0.0  # below zero by rounding alone: a double root
    roots = []
    if disc >= 0.0:
        half = -0.5 * (c1 + math.copysign(math.sqrt(disc), c1))
        roots = [h for h in (half / c2, c0 / half) if 1e-8 <= h <= 1e8]
    if not roots:
        raise DlError(f"target ratio {target} not reachable on the {axis} axis of {mode.label}")
    return 2.0 * math.atan(min(roots))
