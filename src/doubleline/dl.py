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
from itertools import accumulate
from types import MappingProxyType
from typing import Any, Mapping, Sequence

import numpy as np

from .fold_io import get_extra, is_index, is_number, set_extra
from .geometry import crossing, intersect_lines, unit
from .kinematics import (DEGENERACY_TOL, FoldMode, KinematicsError, MotionMismatch, branch_multipliers, crease_motion,
                         p_coeff, q_coeff, tan_half)
from .pattern import Crease, CreasePattern, PatternError, VertexStar, per_pattern

NETWORK_KEY = "doubleline:network"
MATCH_TOL = 1e-9  # mode closure products, symmetric sectors and θ, unreachable ratios


class DlError(ValueError):
    """Raised for invalid double-line constructions or unreachable targets."""


# -- modes -------------------------------------------------------------------


@dataclass(frozen=True)
class DLMode:
    """A folding mode of a doubled vertex: one sign per corner (per doubled crease), any degree."""

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


def _closes(signs: Sequence[str], sectors: Sequence[float], theta: float) -> bool:
    """Whether a sign sequence folds DL(V, θ): (−1)^n times its corner-coefficient product is 1 within MATCH_TOL.

    Corner speeds spread around the central polygon return to their start
    exactly then, at any degree n; no sequence meets it at a pole.
    """
    return abs((-1) ** len(signs) * sign_pattern_product(signs, sectors, theta) - 1.0) <= MATCH_TOL


def mode_is_valid(mode: DLMode, alpha: float, beta: float, theta: float) -> bool:
    """Whether a mode produces a rigid motion of DL(V,θ) for this vertex.

    It must close (_closes).  The alternating sym± modes also need the
    symmetric sector condition (α = β or α = π−β) and, by convention, the
    perpendicular θ = π/2.
    """
    closes = _closes(mode.signs, (alpha, beta, math.pi - alpha, math.pi - beta), theta)
    symmetric = abs(alpha - beta) <= MATCH_TOL or abs(alpha - (math.pi - beta)) <= MATCH_TOL
    return closes and (mode in GENERIC_MODES or symmetric and abs(theta - math.pi / 2) <= MATCH_TOL)


def valid_modes(alpha: float, beta: float, theta: float) -> tuple[DLMode, ...]:
    return tuple(m for m in ALL_MODES if mode_is_valid(m, alpha, beta, theta))


# -- the doubled-pattern record ----------------------------------------------

# Keys of the earlier layouts this record replaced; a file carrying one is
# refused rather than read with its doubled pairs silently missing.
_RETIRED_KEYS = ("doubleline:construction", "doubleline:crease_multipliers")
_MODE_FIELDS = ("signs", "corner_modes", "multipliers")


@dataclass(frozen=True)
class DLRecord:
    """Layout of a doubled pattern, stored in its extras under NETWORK_KEY.

    pairs holds (original crease id, ray^+ id, ray^- id) per doubled crease,
    in the order the layout numbers them (see _layout);
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
    corner_modes: Mapping[int, FoldMode] | None = None
    multipliers: tuple[float, ...] | None = None

    @property
    def axes(self) -> tuple[tuple[int, int], ...]:
        """(ray^+, ray^-) crease ids of every doubled pair."""
        return tuple((plus, minus) for _, plus, minus in self.pairs)


def write_record(pattern: CreasePattern, record: DLRecord) -> CreasePattern:
    """Return a copy of the pattern carrying the record."""
    doc: dict[str, Any] = {"pairs": record.pairs, "multipliers": record.multipliers}
    for name in ("corners", "sides", "thetas", "sectors", "radii") + _MODE_FIELDS[:2]:
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
        "thetas": is_number, "sectors": _numbers, "radii": _numbers,
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


def flat_fold_parameter(pattern: CreasePattern, multipliers: np.ndarray) -> float | None:
    """Motion parameter t at which the earliest doubled pair's angle sum reaches pi.

    The sum 2 atan(g+ t) + 2 atan(g- t) hits pi at t = 1/sqrt(g+ g-), a
    finite value when the multipliers share a sign.  Pairs differ on a
    doubled degree-2n vertex; the first in record order within MATCH_TOL
    (relative) of the least t gives the value, so rounding does not choose
    it.  None when no doubled pair folds toward flat.
    """
    rec = read_record(pattern)
    axes = rec.axes if rec is not None else ()
    products = (float(multipliers[plus]) * float(multipliers[minus]) for plus, minus in axes)
    ts = [1.0 / math.sqrt(k) for k in products if k > 0.0]
    if not ts:
        return None
    least = min(ts)
    return next(t for t in ts if t - least <= MATCH_TOL * least)


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


def _layout(vertices: Sequence[tuple[VertexStar, Sequence[float], Sequence[float], float, Sequence[float]]],
           boundary: Sequence[Sequence[float]]) -> tuple[CreasePattern, DLRecord]:
    """The doubled pattern of some vertices inside a boundary polygon, and its record (no mode yet).

    Each entry is (star, origin, crease azimuths, θ, radii), in ascending
    vertex order, at any degree.  A crease in two stars is shared: its
    doubled pair joins the two polygons.  Every other ray runs from its
    corner to the first boundary edge it meets, and the boundary is closed
    through the hits.  Pairs are laid out vertex by vertex in axis order,
    each once, by its owner: the lower vertex, whose corner c_i its ray^+
    leaves.  Vertices are numbered corners first, then ray^+ ends, ray^-
    ends and the rest of the boundary; creases every ray^+, then every
    ray^-, the polygon sides and the boundary, so of P pairs the k-th is
    creases (k, P + k).
    """
    verts: list[tuple[float, float]] = []

    def add_vertex(p) -> int:
        for k, q in enumerate(verts):
            if abs(q[0] - p[0]) < 1e-7 and abs(q[1] - p[1]) < 1e-7:
                return k
        verts.append((float(p[0]), float(p[1])))
        return len(verts) - 1

    corners = [[add_vertex(np.add(origin, c)) for c in polygon_corners(az, radii, theta)]
               for _, origin, az, theta, radii in vertices]
    axes: dict[int, list[tuple[int, int]]] = {}  # crease id -> (entry, axis) in each star holding it
    for k, (star, *_) in enumerate(vertices):
        for i, ci in enumerate(star.crease_ids):
            axes.setdefault(ci, []).append((k, i))
    boundary = np.asarray(boundary, dtype=float).tolist()  # python floats: the clip loop is scalar
    edges = list(zip(boundary, boundary[1:] + boundary[:1]))
    splits: list[list[tuple[float, int]]] = [[] for _ in edges]

    def clip(start: int, azimuth: float) -> int:
        (x, y), (dx, dy) = verts[start], (math.cos(azimuth), math.sin(azimuth))
        best = None
        for e, (a, b) in enumerate(edges):
            su = crossing((x, y), (dx, dy), a, (b[0] - a[0], b[1] - a[1]))
            if su is None:
                continue
            s, tau = su
            if s > 1e-9 and -1e-12 <= tau <= 1.0 + 1e-12 and (best is None or s < best[0]):
                best = (s, e, min(max(tau, 0.0), 1.0))
        if best is None:
            raise DlError("doubled crease does not reach the pattern boundary")
        s, e, tau = best
        hit = add_vertex((x + s * dx, y + s * dy))
        splits[e].append((tau, hit))
        return hit

    creases: list[Crease] = []
    for plus in (True, False):
        for ci, ((k, i), *far) in axes.items():
            start = corners[k][i if plus else i - 1]
            if far:
                ((w, j),) = far
                end = corners[w][j - 1 if plus else j]
            else:  # out along the crease's azimuth
                end = clip(start, vertices[k][2][i])
            creases.append(Crease(start, end, "U"))
    sides = []
    for cu in corners:
        sides.append(tuple(range(len(creases), len(creases) + len(cu))))
        creases += [Crease(cu[i - 1], cu[i], "U") for i in range(len(cu))]
    for (a, b), hits in zip(edges, splits):
        chain = [add_vertex(a), *(h for _, h in sorted(hits)), add_vertex(b)]
        creases += [Crease(p, q, "B") for p, q in zip(chain, chain[1:]) if p != q]

    try:
        pattern = CreasePattern.build(verts, creases)
    except PatternError as exc:
        raise DlError(f"degenerate double-line geometry: {exc}") from exc
    ids = [star.vertex for star, *_ in vertices]
    return pattern, DLRecord(
        pairs=tuple((ci, k, len(axes) + k) for k, ci in enumerate(axes)),
        corners=dict(zip(ids, map(tuple, corners))),
        sides=dict(zip(ids, sides)),
        thetas={star.vertex: theta for star, _, _, theta, _ in vertices},
        sectors={star.vertex: tuple(star.sectors) for star, *_ in vertices},
        radii={star.vertex: tuple(radii) for star, *_, radii in vertices},
    )


def construct_dl(star: VertexStar, params: DoubleLineParams) -> CreasePattern:
    """Build the doubled crease pattern DL(V, θ) of one interior vertex.

    Axis e_0 is placed along +x, and the boundary is the 2n-gon through the
    ray ends at three times the polygon's reach (at least 3): the end of
    ray_i^+, then of ray_{i+1}^-, both from c_i.  The layout numbers ray_i^+
    crease i, so it is every corner's lowest incident id and the corner's
    star reads (σ_i, θ, π−σ_i, π−θ), as this module's corner-branch
    conventions have it, exactly when every doubled pair's separation
    (axis_offsets) is positive; a pair whose separation is not is refused
    first.  The layout is attached as a one-vertex record (see DLRecord)
    and survives FOLD round-trips.
    """
    n = star.degree
    if n < 3:
        raise DlError("double-line construction needs degree >= 3")
    if len(params.radii) != n:
        raise DlError(f"need {n} radii, got {len(params.radii)}")
    theta, sectors = params.theta, star.sectors
    if 0.0 in sectors:  # axis_offsets divides by the sine of each sector
        i = sectors.index(0.0)
        raise DlError(f"polygon sides {i} and {(i + 1) % n} are parallel")
    for ci, (plus, minus) in zip(star.crease_ids, axis_offsets(sectors, params.radii, theta)):
        if not plus - minus > 0.0:
            raise DlError(f"the doubled pair of crease {ci} has separation {plus - minus:.6g} at theta "
                          f"{math.degrees(theta):.6g} deg: its radii are too small")
    phis = list(accumulate(sectors[:-1], initial=0.0))
    corners = polygon_corners(phis, params.radii, theta)
    length = 3.0 * max(max(float(np.linalg.norm(c)) for c in corners), max(params.radii), 1.0)
    boundary = [c + length * unit(phi) for i, c in enumerate(corners) for phi in (phis[i], phis[(i + 1) % n])]
    return write_record(*_layout([(star, (0.0, 0.0), phis, theta, params.radii)], boundary))


def _lone_mode(pattern: CreasePattern, mode: DLMode) -> tuple[DLRecord, dict[int, str]]:
    """Record and {vertex: signs} of one doubled vertex in a mode of its degree that closes (_closes).

    A pole, a '-' corner whose p(σ_i, θ) is 0, is refused first, naming the corner and its sector.
    """
    rec = read_record(pattern)
    if rec is None or len(rec.corners) != 1 or len(rec.pairs) != len(*rec.corners.values()):
        raise DlError("pattern carries no single-vertex double-line record")
    (v,) = rec.corners
    sectors, theta = rec.sectors[v], rec.thetas[v]
    if len(mode.signs) != len(sectors):
        raise DlError(f"mode {mode.label} has {len(mode.signs)} signs, pattern degree {len(sectors)}")
    for i, (sign, sigma) in enumerate(zip(mode.signs, sectors)):
        if sign == "-" and abs(p_coeff(sigma, theta)) < DEGENERACY_TOL:
            raise DlError(f"mode {mode.label} has a pole at corner {i}: theta {math.degrees(theta):.6g} deg is "
                          f"critical for its sector {math.degrees(sigma):.6g} deg")
    if not _closes(mode.signs, sectors, theta):
        raise DlError(f"mode {mode.label} does not close on this vertex")
    return rec, {v: "".join(mode.signs)}


def pattern_multipliers(pattern: CreasePattern, mode: DLMode) -> np.ndarray:
    """Per-crease multiplier vector of a constructed DL pattern in one mode: the motion fix_mode records."""
    return _motion(pattern, *_lone_mode(pattern, mode))[1]


def fix_mode(pattern: CreasePattern, mode: DLMode) -> CreasePattern:
    """A constructed DL pattern in one mode: labeled M/V and recorded by write_mode."""
    return write_mode(pattern, *_lone_mode(pattern, mode))


def write_mode(pattern: CreasePattern, record: DLRecord, signs: Mapping[int, str]) -> CreasePattern:
    """A laid-out doubled pattern in a mode: its corners' motion recorded as its multipliers, labeled M/V."""
    branches, g = _motion(pattern, record, signs)
    record = replace(record, signs=dict(signs), corner_modes=branches, multipliers=tuple(g.tolist()))
    return write_record(assign_mode_mv(pattern, g), record)


def _motion(pattern: CreasePattern, record: DLRecord,
            signs: Mapping[int, str]) -> tuple[dict[int, FoldMode], np.ndarray]:
    """The branch of every corner, and the corners' one motion (kinematics.crease_motion).

    Sign '-' puts corner i of a vertex on branch a of its construction star,
    whose crease e_2 is side_{i+1}.  The pattern's star of the corner may start
    elsewhere; where side_{i+1} sits at an odd position the letters swap.
    Every corner is a flat-foldable degree-4 vertex, so the pattern folds
    exactly when the corners agree on every crease (Tachi 2009).  A loop that
    does not close is refused with both corners' values on the first crease
    they disagree on: a doubled pair by its original crease, a side by its id.
    """
    corner_of = {cv: (v, i) for v, corners in record.corners.items() for i, cv in enumerate(corners)}
    branches: dict[int, FoldMode] = {}
    for star in pattern.interior_stars:
        v, i = corner_of[star.vertex]
        even = star.crease_ids.index(record.sides[v][(i + 1) % len(record.sides[v])]) % 2 == 0
        branches[star.vertex] = FoldMode.A if (signs[v][i] == "-") == even else FoldMode.B
    try:
        return branches, np.array(crease_motion(pattern, branches))
    except MotionMismatch as exc:
        c, ((u, a), (w, b)) = exc.crease, exc.ends
        pair = next((ci for ci, *rays in record.pairs if c in rays), None)
        where = f"doubled pairs disagree at crease {pair}: corner {u} folds ray {c}" if pair is not None else \
            f"polygon side {c} disagrees: corner {u} folds it"
        raise DlError(f"{where} at {a:.9g} and corner {w} at {b:.9g}") from None
    except KinematicsError as exc:
        raise DlError(str(exc)) from None


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
