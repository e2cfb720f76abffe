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
from dataclasses import dataclass, replace
from types import MappingProxyType
from typing import Any, Mapping, Sequence

import numpy as np

from .fold_io import get_extra, is_index, is_number, set_extra
from .geometry import intersect_lines, unit
from .kinematics import DEGENERACY_TOL, FoldMode, branch_multipliers, p_coeff, q_coeff, tan_half
from .pattern import Crease, CreasePattern, PatternError, VertexStar, per_pattern, vertex_star

NETWORK_KEY = "doubleline:network"
MATCH_TOL = 1e-9  # mode closure products, symmetric sectors and θ, unreachable ratios


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


def _branch(sign: str) -> FoldMode:
    return FoldMode.A if sign == "-" else FoldMode.B


def corner_modes(mode: DLMode) -> tuple[FoldMode, ...]:
    """Local folding mode of each corner vertex: sign '-' is a, '+' is b."""
    return tuple(map(_branch, mode.signs))


def _corner_coefficient(sign: str, sigma: float, theta: float) -> float:
    ray_plus, ray_minus, _, _ = branch_multipliers(_branch(sign), sigma, theta)
    if abs(ray_minus) < DEGENERACY_TOL:
        raise DlError(f"pole: p({sigma:.6f}, {theta:.6f}) = 0 cannot be inverted")
    return ray_plus / ray_minus


def corner_coefficients(
    mode: DLMode, alpha: float, beta: float, theta: float
) -> tuple[float, ...]:
    """Per-corner speed coefficients: −1/p(σ_i,θ) at a '-' corner, −q(σ_i,θ) at '+'.

    Their product around the central polygon equals 1 exactly when the sign
    sequence admits the finite rigid folding.
    """
    sigmas = (alpha, beta, math.pi - alpha, math.pi - beta)
    return tuple(_corner_coefficient(s, sigma, theta) for s, sigma in zip(mode.signs, sigmas))


def sign_pattern_product(signs: Sequence[str], sectors: Sequence[float], theta: float) -> float:
    """Corner-coefficient product of an arbitrary sign sequence around P; inf at a pole."""
    try:
        return math.prod(_corner_coefficient(s, sigma, theta) for s, sigma in zip(signs, sectors))
    except DlError:
        return math.inf


def mode_is_valid(mode: DLMode, alpha: float, beta: float, theta: float) -> bool:
    """Whether a mode produces a rigid motion of DL(V,θ) for this vertex.

    The four generic modes always close up.  The alternating sym± modes
    need the symmetric sector condition (α = β or α = π−β) and, by
    convention, the perpendicular construction θ = π/2.
    """
    if mode in GENERIC_MODES:
        sigmas = (alpha, beta, math.pi - alpha, math.pi - beta)
        return abs(sign_pattern_product(mode.signs, sigmas, theta) - 1.0) <= MATCH_TOL
    symmetric = abs(alpha - beta) <= MATCH_TOL or abs(alpha - (math.pi - beta)) <= MATCH_TOL
    return symmetric and abs(theta - math.pi / 2) <= MATCH_TOL


def valid_modes(alpha: float, beta: float, theta: float) -> tuple[DLMode, ...]:
    return tuple(m for m in ALL_MODES if mode_is_valid(m, alpha, beta, theta))


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

    Corner i carries a scale s_i and the branch multipliers m_i of its
    creases (ray_i^+, ray_{i+1}^-, side_{i+1}, side_i); matching the shared
    polygon sides gives s_{i+1} = s_i·m_i[2] / m_{i+1}[3].  Works for any
    even or odd degree; the caller decides what closure error means.
    """
    n = len(sectors)
    if len(signs) != n:
        raise DlError("need one sign per corner")
    m = [branch_multipliers(_branch(s), sigma, theta) for s, sigma in zip(signs, sectors)]
    scale = [1.0]
    for i in range(n - 1):
        if abs(m[i + 1][3]) < DEGENERACY_TOL:
            raise DlError(f"corner {i + 1} has a vanishing side coefficient at this theta")
        scale.append(scale[i] * m[i][2] / m[i + 1][3])
    left = m[n - 1][2] * scale[n - 1]
    right = m[0][3] * scale[0]
    closure = abs(left - right) / max(abs(left), abs(right), DEGENERACY_TOL)
    return DLMultipliers(
        tuple(m[i][0] * scale[i] for i in range(n)),
        tuple(m[i - 1][1] * scale[i - 1] for i in range(n)),
        tuple(m[i - 1][2] * scale[i - 1] for i in range(n)),
        closure,
    )


# -- the doubled-pattern record ----------------------------------------------

# Keys of the earlier layouts this record replaced; a file carrying one is
# refused rather than read with its doubled pairs silently missing.
_RETIRED_KEYS = ("doubleline:construction", "doubleline:crease_multipliers")
_MODE_FIELDS = ("signs", "scales", "corner_modes", "multipliers")


@dataclass(frozen=True)
class DLRecord:
    """Layout of a doubled pattern, stored in its extras under NETWORK_KEY.

    pairs holds (original crease id, ray^+ id, ray^- id) per doubled crease;
    the other maps are keyed by original vertex id (corner_modes by corner
    vertex id) and list, in axis order, the polygon's corner vertex ids and
    side crease ids (side_i joins c_{i-1} to c_i), its θ, sector angles and
    distances.  The mode fields are set together, when a mode is fixed.
    """

    pairs: tuple[tuple[int, int, int], ...]
    corners: Mapping[int, tuple[int, ...]]
    sides: Mapping[int, tuple[int, ...]]
    thetas: Mapping[int, float]
    sectors: Mapping[int, tuple[float, ...]]
    radii: Mapping[int, tuple[float, ...]]
    signs: Mapping[int, str] | None = None
    scales: Mapping[int, float] | None = None
    corner_modes: Mapping[int, FoldMode] | None = None
    multipliers: tuple[float, ...] | None = None

    @property
    def axes(self) -> tuple[tuple[int, int], ...]:
        """(ray^+, ray^-) crease ids of every doubled pair."""
        return tuple((plus, minus) for _, plus, minus in self.pairs)


def write_record(pattern: CreasePattern, record: DLRecord) -> CreasePattern:
    """Return a copy of the pattern carrying the record."""
    doc: dict[str, Any] = {"pairs": record.pairs, "multipliers": record.multipliers}
    for name in ("corners", "sides", "thetas", "sectors", "radii") + _MODE_FIELDS[:3]:
        entries = getattr(record, name)
        if entries is not None:
            doc[name] = [[v, x.value if isinstance(x, FoldMode) else x] for v, x in sorted(entries.items())]
    return set_extra(pattern, NETWORK_KEY, {k: x for k, x in doc.items() if x is not None})


def _ids(x: Any, limit: float) -> bool:
    return isinstance(x, list) and all(is_index(i) and 0 <= i < limit for i in x)


def _numbers(x: Any) -> bool:
    return isinstance(x, list) and all(is_number(a) for a in x)


@per_pattern
def read_record(pattern: CreasePattern) -> DLRecord | None:
    """The pattern's doubled-pattern record, checked against the pattern.

    None when the pattern carries none.  Raises DlError naming the fault
    when the record is malformed or the pattern carries a retired key.
    A record read once is kept on the pattern and returned again, with
    read-only maps; a malformed one raises on every call.
    """
    for key in _RETIRED_KEYS:
        if key in dict(pattern.extras):
            raise DlError(f"extras key {key!r} is no longer read; regenerate the file")
    raw = get_extra(pattern, NETWORK_KEY)
    if raw is None:
        return None
    mode = [name for name in _MODE_FIELDS if isinstance(raw, dict) and name in raw]
    if not isinstance(raw, dict) or 0 < len(mode) < len(_MODE_FIELDS):
        raise DlError(f"{NETWORK_KEY} must be an object with all or none of {', '.join(_MODE_FIELDS)}")
    nv, nc = len(pattern.vertices), len(pattern.creases)
    checks = {  # value check of each per-vertex field; corners must come first
        "corners": lambda x: _ids(x, nv), "sides": lambda x: _ids(x, nc),
        "thetas": is_number, "sectors": _numbers, "radii": _numbers, "scales": is_number,
        "signs": lambda x: isinstance(x, str) and set(x) <= {"+", "-"},
        "corner_modes": lambda x: x in ("a", "b"),  # keyed by corner vertex id
    }
    fields: dict[str, Any] = {}
    for name, ok in checks.items():
        if name in _MODE_FIELDS and not mode:
            continue
        entries, limit = raw.get(name), nv if name == "corner_modes" else math.inf
        if not isinstance(entries, list) or not all(
            isinstance(e, list) and len(e) == 2 and _ids(e[:1], limit) and ok(e[1]) for e in entries
        ):
            raise DlError(f"{NETWORK_KEY}: {name} must be a list of valid [vertex, value] entries")
        values = fields[name] = MappingProxyType({v: FoldMode(x) if name == "corner_modes" else
                                                  tuple(x) if isinstance(x, list) else x for v, x in entries})
        corners = fields["corners"]
        if name != "corner_modes" and (values.keys() != corners.keys() or any(
            len(x) != len(corners[v]) for v, x in values.items() if isinstance(x, (tuple, str))
        )):
            raise DlError(f"{NETWORK_KEY}: {name} and corners disagree on vertices or degrees")
    pairs = raw.get("pairs")
    if not isinstance(pairs, list) or not all(
        isinstance(p, list) and len(p) == 3 and _ids(p[:1], math.inf) and _ids(p[1:], nc) for p in pairs
    ):
        raise DlError(f"{NETWORK_KEY}: pairs must be [crease, plus, minus] id triples of this pattern")
    if mode:
        if not (_numbers(raw["multipliers"]) and len(raw["multipliers"]) == nc):
            raise DlError(f"{NETWORK_KEY}: multipliers must be {nc} finite numbers, one per crease")
        fields["multipliers"] = tuple(map(float, raw["multipliers"]))
    return DLRecord(pairs=tuple(map(tuple, pairs)), **fields)


# -- construction ------------------------------------------------------------


@dataclass(frozen=True)
class DoubleLineParams:
    """Rotation angle θ and per-crease polygon distances r_i."""

    theta: float
    radii: tuple[float, ...]

    def __post_init__(self):
        if not 0.0 < self.theta < math.pi:
            raise DlError("theta must lie strictly between 0 and pi")
        if not all(0.0 < r < math.inf for r in self.radii):
            raise DlError("all radii must be positive and finite")


def polygon_corners(
    azimuths: Sequence[float], radii: Sequence[float], theta: float
) -> list[np.ndarray]:
    """Corners c_i of the central polygon: side i runs through r_i·u(φ_i) along u(φ_i + θ)."""
    n = len(azimuths)
    pts = []
    for i in range(n):
        j = (i + 1) % n
        try:
            pts.append(intersect_lines(radii[i] * unit(azimuths[i]), unit(azimuths[i] + theta),
                                       radii[j] * unit(azimuths[j]), unit(azimuths[j] + theta)))
        except ValueError as exc:
            raise DlError(f"polygon sides {i} and {j} are parallel") from exc
    return pts


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
    The layout is attached as a one-vertex record (see DLRecord) and
    survives FOLD round-trips.
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
    corners = polygon_corners(phis, params.radii, theta)

    reach = max(float(np.linalg.norm(c)) for c in corners)
    length = outer_length if outer_length is not None else 3.0 * max(reach, max(params.radii), 1.0)

    # vertex ids: corners 0..n-1, far ends of ray_i^+ at n+i and of ray_i^- at 2n+i
    verts = [(c[0], c[1]) for c in corners]
    verts += [tuple(corners[i] + length * us[i]) for i in range(n)]
    verts += [tuple(corners[(i - 1) % n] + length * us[i]) for i in range(n)]
    creases = [Crease(i, n + i, "U") for i in range(n)]  # ids 0..n-1: rays from c_i
    creases += [Crease((i - 1) % n, 2 * n + i, "U") for i in range(n)]  # n..2n-1: from c_{i-1}
    creases += [Crease((i - 1) % n, i, "U") for i in range(n)]  # 2n..3n-1: polygon sides
    # boundary: wedge chord after ray_i^+, then strip chords
    creases += [Crease(n + i, 2 * n + (i + 1) % n, "B") for i in range(n)]
    creases += [Crease(2 * n + i, n + i, "B") for i in range(n)]

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

    v = star.vertex
    record = DLRecord(
        pairs=tuple((star.crease_ids[i], i, n + i) for i in range(n)),
        corners={v: tuple(range(n))},
        sides={v: tuple(range(2 * n, 3 * n))},
        thetas={v: theta},
        sectors={v: tuple(sectors)},
        radii={v: tuple(params.radii)},
    )
    return write_record(pattern, record)


def _single_vertex(pattern: CreasePattern) -> tuple[DLRecord, int]:
    rec = read_record(pattern)
    if rec is None or len(rec.corners) != 1 or len(rec.pairs) != len(*rec.corners.values()):
        raise DlError("pattern carries no single-vertex double-line record")
    (v,) = rec.corners
    return rec, v


def pattern_multipliers(pattern: CreasePattern, mode: DLMode) -> np.ndarray:
    """Per-crease multiplier vector of a constructed DL pattern in one mode."""
    rec, v = _single_vertex(pattern)
    sectors = rec.sectors[v]
    if len(mode.signs) != len(sectors):
        raise DlError(f"mode {mode.label} has {len(mode.signs)} signs, pattern degree {len(sectors)}")
    mult = dl_multipliers(sectors, mode.signs, rec.thetas[v])
    if mult.closure_error > 1e-9:
        raise DlError(f"mode {mode.label} does not close on this vertex")
    out = np.zeros(len(pattern.creases))
    for i, (plus, minus) in enumerate(rec.axes):
        out[plus] = mult.rays_plus[i]
        out[minus] = mult.rays_minus[i]
    for i, side in enumerate(rec.sides[v]):
        out[side] = mult.sides[i]
    return out


def corner_mode_map(pattern: CreasePattern, mode: DLMode) -> dict[int, FoldMode]:
    """Vertex id -> local FoldMode assignment realizing a DL mode."""
    rec, v = _single_vertex(pattern)
    return dict(zip(rec.corners[v], corner_modes(mode)))


def fix_mode(pattern: CreasePattern, mode: DLMode) -> CreasePattern:
    """A constructed DL pattern labeled M/V by one mode, the mode kept in its record."""
    mult = pattern_multipliers(pattern, mode)
    rec, v = _single_vertex(pattern)
    rec = replace(rec, signs={v: "".join(mode.signs)}, scales={v: 1.0},
                  corner_modes=corner_mode_map(pattern, mode), multipliers=tuple(mult.tolist()))
    return write_record(assign_mode_mv(pattern, mult), rec)


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
    # labels change no input of CreasePattern.validate: B stays B, others stay non-B
    return replace(pattern, creases=tuple(new))


# -- axis sums, regimes, ratios ----------------------------------------------


# The doubled pairs of each generic mode as signed products of p/q factors.
# A factor (kind, k) is the coefficient p or q of sector k (0: α, 1: β)
# against θ.  Each row holds the major pair (1, sign·x·y) as (sign, x, y),
# the minor pair (s1·x, s2·y) as ((s1, x), (s2, y)), and per star axis the
# class of its doubled pair and whether its (ray^+, ray^-) multipliers are
# that pair reversed.  a-I lists its β factor first, so critical_thetas
# reads (β, π−α) in that order.
_MODE_TABLE = {
    MODE_A1: ((1.0, ("q", 1), ("p", 0)), ((1.0, ("p", 0)), (1.0, ("q", 1))),
              (("major", False), ("minor", True), ("major", True), ("minor", False))),
    MODE_A2: ((1.0, ("q", 0), ("p", 1)), ((1.0, ("p", 1)), (1.0, ("q", 0))),
              (("major", True), ("minor", True), ("major", False), ("minor", False))),
    MODE_B1: ((-1.0, ("q", 0), ("q", 1)), ((-1.0, ("q", 0)), (1.0, ("q", 1))),
              (("minor", False), ("major", True), ("minor", True), ("major", False))),
    MODE_B2: ((-1.0, ("p", 0), ("p", 1)), ((1.0, ("p", 1)), (-1.0, ("p", 0))),
              (("minor", False), ("major", False), ("minor", True), ("major", True))),
}


def _mode_row(mode: DLMode) -> tuple:
    """(major, minor, axes) of a generic mode in _MODE_TABLE."""
    row = _MODE_TABLE.get(mode)
    if row is None:
        raise DlError(f"mode {mode.label} has no major/minor axis split")
    return row


def _factor(factor: tuple[str, int], alpha: float, beta: float, theta: float) -> float:
    kind, k = factor
    return (p_coeff if kind == "p" else q_coeff)((alpha, beta)[k], theta)


def axis_class(mode: DLMode, axis: int) -> tuple[str, bool]:
    """(class, reversed) of a generic mode's doubled pair on one star axis.

    The class is "major" or "minor"; reversed tells whether the pair's
    (ray^+, ray^-) multipliers are that class's pair in reverse order.
    """
    return _mode_row(mode)[2][axis]


def _mode_pairs(mode: DLMode, alpha: float, beta: float, theta: float):
    """(major pair, minor pair) of tan-half multipliers for the generic modes."""
    (s1, x), (s2, y) = _mode_row(mode)[1]
    minor = (s1 * _factor(x, alpha, beta, theta), s2 * _factor(y, alpha, beta, theta))
    return (1.0, major_coefficient(mode, alpha, beta, theta)), minor


def major_coefficient(mode: DLMode, alpha: float, beta: float, theta: float) -> float:
    """Second multiplier of the major pair (the first is 1)."""
    sign, x, y = _mode_row(mode)[0]
    return sign * _factor(x, alpha, beta, theta) * _factor(y, alpha, beta, theta)


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
    """The two θ values where one crease of every doubled pair freezes.

    They are the zeros of the major pair's factors: q(σ, θ) vanishes at
    θ = σ and p(σ, θ) at θ = π − σ.
    """
    _, *factors = _mode_row(mode)[0]
    return tuple((alpha, beta)[k] if kind == "q" else math.pi - (alpha, beta)[k] for kind, k in factors)


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
    major, minor, _ = _mode_row(mode)
    ts = (tan_half(alpha), tan_half(beta))

    def moebius(factor: tuple[str, int]) -> tuple[tuple[float, float], tuple[float, float]]:
        kind, k = factor  # (numerator, denominator), each in rising powers of h
        t = ts[k]
        return ((1.0, -t), (1.0, t)) if kind == "p" else ((-t, 1.0), (t, 1.0))

    if axis == "major":
        sign, x, y = major
        x, y = moebius(x), moebius(y)
        u, v, fu, sv = _lin_mul(x[0], y[0]), _lin_mul(x[1], y[1]), f * sign, s
    else:
        (s1, x), (s2, y) = minor
        x, y = moebius(x), moebius(y)
        u, v, fu, sv = _lin_mul(y[0], x[1]), _lin_mul(x[0], y[1]), f * s2, s * s1
    return tuple(fu * a - sv * b for a, b in zip(u, v))


def theta_for_ratio(
    mode: DLMode,
    axis: str,
    alpha: float,
    beta: float,
    target: DoubleLineRatio,
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
        if abs(abs(s) - abs(f)) <= MATCH_TOL * scale:
            raise DlError("a major axis cannot reach ratio 1:1 or 1:-1")
    elif axis == "minor":
        if abs(s + f) <= MATCH_TOL * scale:
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
