"""Thick-panel geometry for doubled patterns.

Panels are attached to one side of the zero-thickness pattern and beveled
at every crease whose fold pushes material toward that side; the bevel is
the dihedral bisector plane at the crease's largest fold angle over the
intended motion, so adjacent panels arrive face to face exactly at full
fold.  The panel thickness is bounded by the doubled-pair half-width; the
bound can be lifted to study what goes wrong beyond it.

Each panel is also kept as a union of convex pieces: its face cut at every
reflex corner along the corner's straight-skeleton ray.  Collision checking
places the pieces by each sample's face rotations and translations and
measures signed clearance between every pair of pieces with a
separating-axis test: the exact distance between pieces apart, the exact
penetration depth (negative) between pieces that overlap.
"""
from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass, field
from types import MappingProxyType
from typing import Iterable, Mapping, NamedTuple, Sequence

import numpy as np

from .dl import read_record
from .fold3d import Fold3dError, MotionSample, crease_rotations, require_closing
from .pattern import CreasePattern, per_pattern

GAP_TOL = 1e-6
NARROW_CHUNK = 8  # piece pairs per batched narrow-phase call: bounds its temporaries at no cost in speed


class ThickenError(ValueError):
    """Raised when panels cannot be built as requested."""


@dataclass(frozen=True)
class ThickPanelParams:
    """How to grow panels from the flat pattern.

    tau: panel thickness in pattern units.
    side: "above" or "below" the zero-thickness surface.
    rho_max: optional per-crease signed trim angles; by default each crease
        is trimmed for the largest fold angle it reaches over the motion.
    enforce_bound: reject thicknesses above the per-crease bound.  Lifting
        it builds the (self-colliding) panels anyway so the failure can be
        observed in clearance checks.
    """

    tau: float
    side: str = "above"
    rho_max: Mapping[int, float] | None = None
    enforce_bound: bool = True

    def __post_init__(self) -> None:
        if not self.tau > 0.0:
            raise ThickenError("panel thickness must be positive")
        if self.side not in ("above", "below"):
            raise ThickenError("side must be 'above' or 'below'")
        if self.rho_max is not None:
            for ci, rho in self.rho_max.items():
                if not 0.0 < abs(rho) < math.pi:
                    raise ThickenError(f"trim angle for crease {ci} outside (0, pi)")


def max_thickness(half_width: float, rho_max: float) -> float:
    """Largest panel thickness foldable to rho_max at a crease of this offset half-width."""
    if not half_width > 0.0:
        raise ThickenError("offset half-width must be positive")
    if not 0.0 < rho_max < math.pi:
        raise ThickenError("rho_max must lie strictly between 0 and pi")
    return half_width * math.tan((math.pi - rho_max) / 2.0)


@dataclass(frozen=True, eq=False)
class ConvexPiece:
    """A convex prismatoid: m corners of a convex face piece, then their tops.

    Side k spans corners k and k + 1.  ``normals`` are the outward face
    normals (sides, bottom, top); ``directions`` the unit directions of the
    base and lateral edges (top edges parallel their base edges); ``edges``
    index the base, top and lateral edges; ``loops`` index each face's
    corners, padded by repeating the last one.
    """

    vertices: np.ndarray
    normals: np.ndarray
    directions: np.ndarray
    edges: np.ndarray
    loops: np.ndarray

    def placed(self, rot: np.ndarray, trans: np.ndarray) -> ConvexPiece:
        """The piece moved by x -> rot @ x + trans; stacked pieces take stacked (..., 3, 3) and (..., 3) motions."""
        rt = np.swapaxes(rot, -1, -2)
        return ConvexPiece(
            self.vertices @ rt + trans[..., None, :], self.normals @ rt, self.directions @ rt, self.edges, self.loops
        )


@dataclass(frozen=True, eq=False)
class PanelSolid:
    """One face's panel: a prismatoid between the face and its inset top.

    Mesh vertices and convex pieces live in the flat pattern's frame (face
    in z = 0); the top may sit lower than the full thickness when bevel
    planes from opposite edges meet below it (the panel then ends in a
    ridge).
    """

    pattern: CreasePattern
    face: int
    base: np.ndarray
    top: np.ndarray
    height: float
    top_height: float
    bevel_angles: tuple[float, ...]
    vertices: np.ndarray = field(repr=False)
    triangles: np.ndarray = field(repr=False)
    pieces: tuple[ConvexPiece, ...] = field(repr=False)


def _ear_clip(poly: np.ndarray) -> list[tuple[int, int, int]]:
    """Triangulates a simple CCW polygon by ear clipping."""
    n = len(poly)
    idx = list(range(n))
    tris: list[tuple[int, int, int]] = []
    guard = 0
    while len(idx) > 3:
        guard += 1
        if guard > 4 * n * n:
            raise ThickenError("polygon triangulation failed")
        found = False
        for k in range(len(idx)):
            i0, i1, i2 = idx[k - 1], idx[k], idx[(k + 1) % len(idx)]
            a, b, c = poly[i0], poly[i1], poly[i2]
            cross = (b[0] - a[0]) * (c[1] - a[1]) - (b[1] - a[1]) * (c[0] - a[0])
            if cross <= 1e-14:
                continue
            ok = True
            for j in idx:
                if j in (i0, i1, i2):
                    continue
                p = poly[j]
                # strict interior test against the candidate ear
                s1 = (b[0] - a[0]) * (p[1] - a[1]) - (b[1] - a[1]) * (p[0] - a[0])
                s2 = (c[0] - b[0]) * (p[1] - b[1]) - (c[1] - b[1]) * (p[0] - b[0])
                s3 = (a[0] - c[0]) * (p[1] - c[1]) - (a[1] - c[1]) * (p[0] - c[0])
                if s1 >= -1e-14 and s2 >= -1e-14 and s3 >= -1e-14:
                    ok = False
                    break
            if ok:
                tris.append((i0, i1, i2))
                del idx[k]
                found = True
                break
        if not found:
            raise ThickenError("polygon triangulation failed")
    tris.append((idx[0], idx[1], idx[2]))
    return tris


class _Outline(NamedTuple):
    """The rate-free corner geometry of a CCW polygon.

    Corner i joins the edge ending there (edge ``prev[i]``, direction
    ``d_in[i]``) to edge i (base[i] -> base[i+1], unit direction ``d[i]``);
    its turn is the cross product of their directions (negative at a reflex
    corner).  A corner between collinear edges rides.  Arrays are read-only:
    a pattern's outlines are shared by every call on it.
    """

    base: np.ndarray
    d: np.ndarray
    d_in: np.ndarray
    turn: np.ndarray
    riding: np.ndarray
    prev: np.ndarray


def _outline(base: np.ndarray) -> _Outline:
    n = len(base)
    prev = np.arange(-1, n - 1) % n
    d = base[np.arange(1, n + 1) % n] - base
    d /= np.linalg.norm(d, axis=1)[:, None]
    d_in = d[prev]
    turn = d_in[:, 0] * d[:, 1] - d_in[:, 1] * d[:, 0]
    out = _Outline(base, d, d_in, turn, np.abs(turn) < 1e-12, prev)
    for a in out:
        a.setflags(write=False)
    return out


@per_pattern
def _face_outlines(pattern: CreasePattern) -> tuple[_Outline, ...]:
    """The outline of every face, in face order."""
    pts = pattern.vertices_array
    return tuple(_outline(pts[list(cycle)]) for cycle in pattern.faces)


def _velocities(o: _Outline, rates: np.ndarray) -> np.ndarray:
    """Corner velocities when edge i moves inward at rates[i]; a riding corner's is left zero here."""
    safe = np.where(o.riding, 1.0, o.turn)[:, None]
    return np.where(o.riding[:, None], 0.0, (rates[o.prev][:, None] * o.d - rates[:, None] * o.d_in) / safe)


def _inset_reach(o: _Outline, rates: np.ndarray) -> tuple[np.ndarray, float]:
    """Corner velocities and reach of a CCW face outline whose edges move inward.

    Edge i (base[i] -> base[i+1]) moves inward by h * rates[i], so corner i
    sits at base[i] + h * V[i].  The reach is the first h > 0 at which the
    inset stops being the same polygon: an edge shrinks to nothing, or a
    reflex corner runs into another edge (the edge and split events of the
    straight skeleton).  A corner between collinear edges moving at one rate
    is no real corner: it bounds nothing, so events are taken over the edges
    between real corners, and it keeps to the moved line between its real
    neighbours at the fraction of the base edge where it sits.
    """
    base, d, turn, riding = o.base, o.d, o.turn, o.riding
    n = len(base)
    V = _velocities(o, rates)
    if np.any(riding & (rates[o.prev] != rates)):
        return np.zeros((n, 2)), 0.0  # a split corner would open a step
    inward = np.column_stack([-d[:, 1], d[:, 0]])
    real = [i for i in range(n) if not riding[i]]
    edges = list(zip(real, real[1:] + real[:1]))
    for a, b in edges:
        span = float((base[b] - base[a]) @ d[a])
        for k in range(a + 1, a + (b - a) % n):
            s = float((base[k % n] - base[a]) @ d[a]) / span
            V[k % n] = (1.0 - s) * V[a] + s * V[b]
    scale = float(np.max(np.ptp(base, axis=0)))
    reach = math.inf
    for a, b in edges:
        shrink = float((V[a] - V[b]) @ d[a])
        if shrink > 0.0:
            reach = min(reach, float((base[b] - base[a]) @ d[a]) / shrink)
    for i in real:
        if turn[i] >= 0.0:
            continue  # convex corners cannot reach an edge first
        for a, b in edges:
            if i in (a, b):
                continue
            approach = rates[a] - float(inward[a] @ V[i])
            gap = float(inward[a] @ (base[i] - base[a]))
            if approach <= 0.0 or gap < 0.0 or gap / approach >= reach:
                continue
            h = gap / approach
            along = float((base[i] + h * V[i] - base[a] - h * V[a]) @ d[a])
            length = float((base[b] + h * V[b] - base[a] - h * V[a]) @ d[a])
            if -1e-12 * scale <= along <= length + 1e-12 * scale:
                reach = h
    return V, reach


def _convex_pieces(o: _Outline, rates: np.ndarray) -> list[tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """Convex pieces of a CCW face outline as (corners, edge rates, corner velocities).

    Riding corners are dropped first.  Then the face is cut at a reflex
    corner along its velocity, the corner's straight-skeleton ray, so the
    inset corner stays on the cut at every height; a corner that does not
    move (both edges square) is cut along its interior bisector.  The cut is
    a square wall (rate 0) to the first point of the boundary the ray meets,
    a vertex when it lands on one.  Both sides are cut again until no
    reflex corner is left.
    """
    V = _velocities(o, rates)
    keep = ~(o.riding & (rates[o.prev] == rates))
    base, rates, d, turn, V = o.base[keep], rates[keep], o.d[keep], o.turn[keep], V[keep]
    reflex = np.flatnonzero(turn < 0.0)
    if not len(reflex):
        return [(base, rates, V)]
    r = int(reflex[0])
    ray = V[r] if np.any(V[r]) else d[r - 1] - d[r]
    B, R = np.roll(base, -r, axis=0), np.roll(rates, -r)  # the cut corner first
    n = len(B)
    hit = (math.inf, 0, 0.0)
    for j in range(1, n - 1):
        e, off = B[j + 1] - B[j], B[j] - B[0]
        det = ray[0] * e[1] - ray[1] * e[0]
        if det == 0.0:
            continue
        s = (off[0] * e[1] - off[1] * e[0]) / det
        u = (off[0] * ray[1] - off[1] * ray[0]) / det
        if 0.0 < s < hit[0] and -1e-12 <= u <= 1.0 + 1e-12:
            hit = (s, j, u)
    _, j, u = hit
    if u <= 1e-12 or u >= 1.0 - 1e-12:
        k = j if u <= 1e-12 else j + 1
        sides = (B[: k + 1], np.append(R[:k], 0.0)), (np.vstack([B[k:], B[:1]]), np.append(R[k:], 0.0))
    else:
        P = B[j] + u * (B[j + 1] - B[j])
        sides = (
            (np.vstack([B[: j + 1], P]), np.append(R[: j + 1], 0.0)),
            (np.vstack([P, B[j + 1 :], B[:1]]), np.append(R[j:], 0.0)),
        )
    return [piece for b, r in sides for piece in _convex_pieces(_outline(b), r)]


def flat_fold_parameter(pattern: CreasePattern, multipliers: np.ndarray) -> float | None:
    """Motion parameter t at which doubled-pair angle sums reach pi.

    The sum 2 atan(g+ t) + 2 atan(g- t) hits pi at t = 1/sqrt(g+ g-), a
    finite value when the multipliers share a sign; the flat state of the
    underlying vertex network.  Motions designed for thick panels must
    stop short of it.  None when the pattern carries no doubled pairs or
    no pair folds toward flat.
    """
    rec = read_record(pattern)
    for plus, minus in rec.axes if rec is not None else ():
        k = float(multipliers[plus]) * float(multipliers[minus])
        if k > 0.0:
            return 1.0 / math.sqrt(k)
    return None


def crease_half_widths(pattern: CreasePattern) -> dict[int, float]:
    """Offset half-width of every interior crease.

    Doubled pairs get half their line separation; other creases get half
    the depth their offset line can move into the shallower adjacent face.
    These are the lengths scaling each crease's thickness bound.  They are
    computed once per pattern; each call returns a fresh copy.
    """
    return dict(_half_widths(pattern))


@per_pattern
def _half_widths(pattern: CreasePattern) -> Mapping[int, float]:
    out: dict[int, float] = {}
    pts = pattern.vertices_array
    rec = read_record(pattern)
    for plus, minus in rec.axes if rec is not None else ():
        cp, cm = pattern.creases[plus], pattern.creases[minus]
        a = pts[cp.v0]
        d = (pts[cp.v1] - a) / np.linalg.norm(pts[cp.v1] - a)
        off = pts[cm.v0] - a
        out[plus] = out[minus] = abs(float(off[0] * d[1] - off[1] * d[0])) / 2.0
    interior = set(pattern.interior_creases)
    depths: dict[int, float] = {}
    for outline, sides in zip(_face_outlines(pattern), pattern.face_creases):
        for k, ci in enumerate(sides):
            if ci not in interior or ci in out:
                continue
            rates = np.zeros(len(sides))
            rates[k] = 1.0
            depths[ci] = min(depths.get(ci, math.inf), _inset_reach(outline, rates)[1] / 2.0)
    out.update(depths)
    return MappingProxyType(out)


def _design_angles(
    pattern: CreasePattern, motion: Sequence[MotionSample], params: ThickPanelParams
) -> dict[int, float]:
    """Signed trim angle per interior crease: the extreme fold over the motion, the earliest on ties."""
    ci = list(pattern.interior_creases)
    # a leading flat row: a crease that never folds keeps +0.0
    angles = np.vstack([np.zeros(len(pattern.creases))] + [s.fold_angles for s in motion])[:, ci]
    extreme = angles[np.argmax(np.abs(angles), axis=0), np.arange(len(ci))]
    rho = dict(zip(ci, extreme.tolist()))
    if params.rho_max:
        for c in params.rho_max:
            if c not in rho:
                raise ThickenError(f"trim angle given for crease {c}, which is not an interior crease")
        rho.update(params.rho_max)
    for ci, v in rho.items():
        if abs(v) >= math.pi:
            raise ThickenError(f"crease {ci} folds to {abs(v):.6f} rad, beyond pi")
    return rho


def thicken(
    pattern: CreasePattern,
    motion: Sequence[MotionSample],
    params: ThickPanelParams,
) -> tuple[PanelSolid, ...]:
    """Panels for every face, beveled for the given motion.

    Creases folding toward the panel side get dihedral-bisector bevels at
    their extreme motion angle; the rest keep square edges.  Raises when
    the thickness exceeds a beveled crease's bound (unless lifted) or a
    panel's top face vanishes entirely.
    """
    try:
        require_closing(motion)
    except Fold3dError as err:
        raise ThickenError(str(err)) from None
    rho = _design_angles(pattern, motion, params)
    sign_up = 1.0 if params.side == "above" else -1.0
    widths = crease_half_widths(pattern)
    beveled = {ci: v for ci, v in rho.items() if sign_up * v > 0.0}
    if params.enforce_bound:
        for ci in sorted(beveled):
            bound = max_thickness(widths[ci], abs(beveled[ci]))
            if params.tau > bound + 1e-12:
                raise ThickenError(
                    f"thickness {params.tau} exceeds bound {bound:.9g} at crease {ci}"
                )

    solids = []
    for fi, (outline, sides) in enumerate(zip(_face_outlines(pattern), pattern.face_creases)):
        base = outline.base
        slopes = np.zeros(len(sides))
        angles = []
        for k, ci in enumerate(sides):
            if ci in beveled:
                slopes[k] = math.tan(abs(beveled[ci]) / 2.0)
                angles.append((math.pi - abs(beveled[ci])) / 2.0)
            else:
                angles.append(math.pi / 2.0)
        V, reach = _inset_reach(outline, slopes)
        # stop short of the reach: a top within rounding of it is degenerate
        h = min(params.tau, reach * (1.0 - 1e-9))
        if h < params.tau and params.enforce_bound:
            raise ThickenError(f"panel for face {fi} vanishes at this thickness")
        if h <= 0.0:
            raise ThickenError(f"panel for face {fi} admits no valid top")
        top = base + h * V
        pieces = tuple(_convex_piece(b, b + h * v, r, sign_up * h) for b, r, v in _convex_pieces(outline, slopes))
        solids.append(_build_solid(pattern, fi, base, top, params.tau, h, tuple(angles), sign_up, pieces))
    return tuple(solids)


def _convex_piece(base: np.ndarray, top: np.ndarray, rates: np.ndarray, z_top: float) -> ConvexPiece:
    """The prismatoid between a convex CCW piece at z = 0 and its top at z_top."""
    m = len(base)
    verts = np.vstack([np.column_stack([base, np.zeros(m)]), np.column_stack([top, np.full(m, z_top)])])
    d = np.roll(base, -1, axis=0) - base
    d /= np.linalg.norm(d, axis=1)[:, None]
    up = math.copysign(1.0, z_top)
    # a side leans inward by its rate per unit of height
    sides = np.column_stack([d[:, 1], -d[:, 0], up * rates])
    normals = np.vstack([sides / np.linalg.norm(sides, axis=1)[:, None], [[0.0, 0.0, -up], [0.0, 0.0, up]]])
    lateral = verts[m:] - verts[:m]
    directions = np.vstack([np.column_stack([d, np.zeros(m)]), lateral / np.linalg.norm(lateral, axis=1)[:, None]])
    k = np.arange(m)
    k1 = (k + 1) % m
    edges = np.vstack([np.column_stack([k, k1]), np.column_stack([k, k1]) + m, np.column_stack([k, k + m])])
    width = max(m, 4)
    loops = np.empty((m + 2, width), dtype=int)
    loops[:m] = np.column_stack([k, k1, k1 + m] + [k + m] * (width - 3))
    loops[m] = np.append(k, [m - 1] * (width - m))
    loops[m + 1] = loops[m] + m
    return ConvexPiece(verts, normals, directions, edges, loops)


def _build_solid(pattern, fi, base, top, tau, h, angles, sign_up, pieces) -> PanelSolid:
    n = len(base)
    z_top = sign_up * h
    verts = np.vstack(
        [
            np.column_stack([base, np.zeros(n)]),
            np.column_stack([top, np.full(n, z_top)]),
        ]
    )
    tris: list[tuple[int, int, int]] = []
    for i0, i1, i2 in _ear_clip(base):
        tris.append((i0, i2, i1))  # bottom, outward = -z for side above
    for i0, i1, i2 in _ear_clip(top):
        tris.append((n + i0, n + i1, n + i2))
    for i in range(n):
        j = (i + 1) % n
        tris.append((i, j, n + j))
        tris.append((i, n + j, n + i))
    tri = np.array(tris, dtype=int)
    if sign_up < 0:
        tri = tri[:, ::-1]  # mirrored solid: restore outward orientation
    return PanelSolid(
        pattern=pattern,
        face=fi,
        base=base.copy(),
        top=top.copy(),
        height=tau,
        top_height=h,
        bevel_angles=angles,
        vertices=verts,
        triangles=tri,
        pieces=pieces,
    )


# -- clearance -------------------------------------------------------------


def _seg_seg_dist(p1, q1, p2, q2) -> np.ndarray:
    """Segment-segment distances over broadcast stacks of (..., 3) endpoints."""
    d1 = q1 - p1
    d2 = q2 - p2
    r = p1 - p2
    a = np.einsum("...j,...j->...", d1, d1)
    e = np.einsum("...j,...j->...", d2, d2)
    f = np.einsum("...j,...j->...", d2, r)
    c = np.einsum("...j,...j->...", d1, r)
    b = np.einsum("...j,...j->...", d1, d2)
    denom = a * e - b * b
    with np.errstate(divide="ignore", invalid="ignore"):
        s = np.where(denom > 1e-30, np.clip((b * f - c * e) / denom, 0.0, 1.0), 0.0)
        t = np.where(e > 1e-30, (b * s + f) / e, 0.0)
        s = np.where(t < 0.0, np.where(a > 1e-30, np.clip(-c / a, 0.0, 1.0), 0.0), s)
        s = np.where(t > 1.0, np.where(a > 1e-30, np.clip((b - c) / a, 0.0, 1.0), 0.0), s)
    t = np.clip(t, 0.0, 1.0)
    diff = (p1 + s[..., None] * d1) - (p2 + t[..., None] * d2)
    return np.linalg.norm(diff, axis=-1)


def _cross(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Cross products of broadcast stacks of 3-vectors: np.cross's arithmetic without its overhead."""
    a0, a1, a2 = a[..., 0], a[..., 1], a[..., 2]
    b0, b1, b2 = b[..., 0], b[..., 1], b[..., 2]
    return np.stack([a1 * b2 - a2 * b1, a2 * b0 - a0 * b2, a0 * b1 - a1 * b0], axis=-1)


def _stack(pieces: Sequence[ConvexPiece]) -> ConvexPiece:
    """Convex pieces stacked along a new first axis, padded to the most corners among them.

    Padding repeats each array's last entry (a loop's last corner), so it
    adds no extreme point, no new axis and no face.
    """
    m = max(len(p.vertices) for p in pieces) // 2

    def pad(a: np.ndarray, rows: int, cols: int | None = None) -> np.ndarray:
        a = np.concatenate([a, np.repeat(a[-1:], rows - len(a), axis=0)])
        return a if cols is None else np.concatenate([a, np.repeat(a[:, -1:], cols - a.shape[1], axis=1)], axis=1)

    return ConvexPiece(
        np.stack([pad(p.vertices, 2 * m) for p in pieces]),
        np.stack([pad(p.normals, m + 2) for p in pieces]),
        np.stack([pad(p.directions, 2 * m) for p in pieces]),
        np.stack([pad(p.edges, 3 * m) for p in pieces]),
        np.stack([pad(p.loops, m + 2, max(m, 4)) for p in pieces]),
    )


def _clearance(a: ConvexPiece, b: ConvexPiece) -> np.ndarray:
    """Signed clearance between row k of two stacks of placed convex pieces.

    The axes are both pieces' face normals and the cross products of their
    edge directions.  When the largest separation over them is negative it
    is the penetration depth, exact for convex pieces; otherwise the exact
    distance is the least over edge pairs and over vertices facing a face.
    """
    n = len(a.vertices)
    cross = _cross(a.directions[:, :, None], b.directions[:, None]).reshape(n, -1, 3)
    size = np.linalg.norm(cross, axis=2)
    keep = size > 1e-12
    axes = np.concatenate([a.normals, b.normals, cross / np.where(keep, size, 1.0)[..., None]], axis=1)
    used = np.concatenate([np.ones((n, a.normals.shape[1] + b.normals.shape[1]), dtype=bool), keep], axis=1)
    pa, pb = axes @ a.vertices.swapaxes(1, 2), axes @ b.vertices.swapaxes(1, 2)
    apart = np.maximum(pb.min(axis=2) - pa.max(axis=2), pa.min(axis=2) - pb.max(axis=2))
    del pa, pb  # the largest arrays here; the exact distances below need the room
    out = np.max(apart, axis=1, where=used, initial=-math.inf)
    far = np.flatnonzero(~(out < 0.0))
    if len(far):
        a, b = (ConvexPiece(*(x[far] for x in (p.vertices, p.normals, p.directions, p.edges, p.loops))) for p in (a, b))
        rows = np.arange(len(far))[:, None, None]
        ea, eb = a.vertices[rows, a.edges], b.vertices[rows, b.edges]
        edge = _seg_seg_dist(ea[:, :, None, 0], ea[:, :, None, 1], eb[:, None, :, 0], eb[:, None, :, 1]).min(axis=(1, 2))
        out[far] = np.minimum(edge, np.minimum(_vertex_face_dist(a.vertices, b), _vertex_face_dist(b.vertices, a)))
    return out


def _vertex_face_dist(points: np.ndarray, piece: ConvexPiece) -> np.ndarray:
    """Per row, the least plane distance from a point to a face of the piece it projects into."""
    corners = piece.vertices[np.arange(len(points))[:, None, None], piece.loops]
    rims = _cross(piece.normals[:, :, None], np.roll(corners, -1, axis=2) - corners)
    side = np.einsum("nfwk,npk->npfw", rims, points) - np.einsum("nfwk,nfwk->nfw", rims, corners)[:, None]
    # one sign on every rim means inside, whichever way the loop turns
    inside = (side.min(axis=3) >= 0.0) | (side.max(axis=3) <= 0.0)
    plane = np.abs(points @ piece.normals.swapaxes(1, 2) - np.einsum("nfk,nfk->nf", piece.normals, corners[:, :, 0])[:, None])
    return np.min(plane, axis=(1, 2), where=inside, initial=math.inf)


def _adjacent_faces(pattern: CreasePattern) -> set[tuple[int, int]]:
    """Face pairs sharing any pattern vertex; those touch by construction."""
    at_vertex: dict[int, list[int]] = {}
    for fi, cycle in enumerate(pattern.faces):
        for v in cycle:
            at_vertex.setdefault(v, []).append(fi)
    out: set[tuple[int, int]] = set()
    for members in at_vertex.values():
        for i in range(len(members)):
            for j in range(i + 1, len(members)):
                out.add((members[i], members[j]))
    return out


@per_pattern
def _apart_faces(pattern: CreasePattern) -> np.ndarray:
    """Face pairs (f, g), f < g, that share no pattern vertex, in ascending order; read-only."""
    skip = _adjacent_faces(pattern)
    n = len(pattern.faces)
    out = np.array([(f, g) for f in range(n) for g in range(f + 1, n) if (f, g) not in skip], dtype=int).reshape(-1, 2)
    out.setflags(write=False)
    return out


def clearance_records(
    solids: Sequence[PanelSolid], motion: Sequence[MotionSample]
) -> list[tuple[float, float, tuple[int, int] | None]]:
    """Per-sample minimum clearance: (t, clearance, worst face pair).

    The corners of every piece are placed for every sample at once, for the
    bounding boxes.  Face pairs are tried in ascending order of their
    bounding-box gaps, which bound their clearance from below, until a gap
    reaches the least clearance found; the earliest pair wins a tie.  The
    narrow phase takes candidates from all samples in turn, at most
    NARROW_CHUNK piece pairs per batched call (a face pair with more goes
    alone), and places only the pieces of its batch.  When every pair of
    panels shares a pattern vertex no pair is checked: the clearance is inf
    and the pair None.

    A panel cut into convex pieces reports the deepest piece-pair depth,
    which can be less than the depth of the whole panel.
    """
    if not solids:
        raise ThickenError("no panels to check")
    if not len(motion):
        return []
    pattern = solids[0].pattern
    order = sorted(range(len(solids)), key=lambda k: solids[k].face)
    faces = [solids[k].face for k in order]
    if len(set(faces)) < len(faces):
        raise ThickenError("two panels share a face")
    # non-adjacent pairs (i, j), i < j, in positions of `order`
    position = np.full(len(pattern.faces), -1)
    position[faces] = np.arange(len(faces))
    pairs = position[_apart_faces(pattern)]
    pairs = pairs[(pairs >= 0).all(axis=1)]
    first, second = pairs[:, 0], pairs[:, 1]
    counts = [len(solids[k].pieces) for k in order]
    start = np.cumsum([0] + counts)
    # piece pairs of each face pair, as rows of (piece of i, piece of j)
    piece_pairs = [np.array([(p, q) for p in range(start[i], start[i + 1]) for q in range(start[j], start[j + 1])])
                   for i, j in pairs]
    face_of = np.repeat(faces, counts)
    stack = _stack([p for k in order for p in solids[k].pieces])
    rot = np.stack([s.rotations for s in motion])[:, face_of]
    trans = np.stack([s.translations for s in motion])[:, face_of]
    # the broad phase places only the corners (as ConvexPiece.placed does);
    # the narrow phase places the pieces of each batch
    corners = stack.vertices @ rot.swapaxes(-1, -2) + trans[..., None, :]
    lo = np.minimum.reduceat(corners.min(axis=2), start[:-1], axis=1)
    hi = np.maximum.reduceat(corners.max(axis=2), start[:-1], axis=1)
    del corners
    gap = np.maximum(0.0, np.maximum(lo[:, second] - hi[:, first], lo[:, first] - hi[:, second]))
    # AABB gaps are lower bounds, tried in ascending order, ties in pair
    # order; matmul takes the same dot product as np.linalg.norm
    lbs = np.sqrt((gap[..., None, :] @ gap[..., :, None])[..., 0, 0])
    ranked = np.argsort(lbs, axis=1, kind="stable")

    best = [math.inf] * len(motion)
    worst: list[tuple[int, int] | None] = [None] * len(motion)
    tried = [0] * len(motion)
    queue = deque(range(len(motion)))  # samples take turns, one candidate each
    while queue:
        batch, rows = [], 0
        while queue:
            s = queue[0]
            if tried[s] == len(pairs) or lbs[s, ranked[s, tried[s]]] >= best[s]:
                queue.popleft()  # this sample's search is over
                continue
            c = ranked[s, tried[s]]
            if batch and rows + len(piece_pairs[c]) > NARROW_CHUNK:
                break
            queue.rotate(-1)
            tried[s] += 1
            batch.append((s, c))
            rows += len(piece_pairs[c])
        if not batch:
            break
        sample = np.repeat([s for s, _ in batch], [len(piece_pairs[c]) for _, c in batch])
        pa, pb = np.vstack([piece_pairs[c] for _, c in batch]).T
        a, b = (ConvexPiece(*(x[p] for x in (stack.vertices, stack.normals, stack.directions, stack.edges, stack.loops)))
                .placed(rot[sample, p], trans[sample, p]) for p in (pa, pb))
        ends = np.cumsum([0] + [len(piece_pairs[c]) for _, c in batch])
        # a sample's candidates come in ascending gap order, so once a gap
        # reaches the best clearance no later candidate of it counts
        for (s, c), d in zip(batch, np.minimum.reduceat(_clearance(a, b), ends[:-1]).tolist()):
            if lbs[s, c] < best[s] and d < best[s]:
                best[s], worst[s] = d, (faces[first[c]], faces[second[c]])
    return [(float(m.t), best[s], worst[s]) for s, m in enumerate(motion)]


def clearance_check(solids: Sequence[PanelSolid], motion: Sequence[MotionSample]) -> float:
    """Minimum signed clearance over the whole motion (negative = penetration)."""
    return min(r[1] for r in clearance_records(solids, motion))


def watertight_gap(solids: Sequence[PanelSolid]) -> float:
    """Largest gap between adjacent bevel faces at their design fold angles.

    For every crease beveled on both sides, the two panels are placed at the
    crease's trim angle and the bevel quads compared point to plane.
    """
    if not solids:
        raise ThickenError("no panels to check")
    pattern = solids[0].pattern
    by_face = {s.face: s for s in solids}
    creases, angles, quads = [], [], []
    for ci in pattern.interior_creases:
        left, right = pattern.crease_faces[ci]
        if left not in by_face or right not in by_face:
            continue
        sl, sr = by_face[left], by_face[right]
        kl, kr = pattern.face_creases[left].index(ci), pattern.face_creases[right].index(ci)
        if sl.bevel_angles[kl] >= math.pi / 2 or sr.bevel_angles[kr] >= math.pi / 2:
            continue  # square edges stay joined along the base surface
        creases.append(ci)
        # panels below the pattern bevel for creases folding toward -z
        angles.append(math.copysign(math.pi - 2.0 * sl.bevel_angles[kl], sl.vertices[-1, 2]))
        quads.append((_side_quad(sr, kr), _side_quad(sl, kl)))
    # fold the left face of v0 -> v1 by the signed trim angle, keep the right one
    rot, trans = crease_rotations(pattern, np.array(creases, dtype=int), np.array(angles))
    return max([0.0] + [_quad_plane_gap(qr, ql @ r.T + t) for (qr, ql), r, t in zip(quads, rot, trans)])


def _side_quad(s: PanelSolid, k: int) -> np.ndarray:
    n = len(s.base)
    z = s.vertices[n, 2] if n < len(s.vertices) else 0.0
    j = (k + 1) % n
    return np.array(
        [
            [s.base[k][0], s.base[k][1], 0.0],
            [s.base[j][0], s.base[j][1], 0.0],
            [s.top[j][0], s.top[j][1], z],
            [s.top[k][0], s.top[k][1], z],
        ]
    )


def _quad_plane_gap(qa: np.ndarray, qb: np.ndarray) -> float:
    def gap(plane_pts, probe_pts) -> float:
        n = np.cross(plane_pts[1] - plane_pts[0], plane_pts[3] - plane_pts[0])
        nn = np.linalg.norm(n)
        if nn < 1e-30:
            return math.inf
        n = n / nn
        return float(np.max(np.abs((probe_pts - plane_pts[0]) @ n)))

    return max(gap(qa, qb), gap(qb, qa))


# -- export ----------------------------------------------------------------


def export_solids_obj(solids: Sequence[PanelSolid]) -> str:
    """Wavefront OBJ text with one group per panel, flat-pattern placement."""
    lines = ["# doubleline thick panels"]
    offset = 1
    for s in sorted(solids, key=lambda x: x.face):
        lines.append(f"g face{s.face}")
        for v in s.vertices:
            lines.append("v %.9f %.9f %.9f" % (v[0], v[1], v[2]))
        for t in s.triangles:
            lines.append(f"f {offset + t[0]} {offset + t[1]} {offset + t[2]}")
        offset += len(s.vertices)
    return "\n".join(lines) + "\n"


def export_clearance_csv(records: Iterable[tuple[float, float, tuple[int, int] | None]]) -> str:
    """CSV log of clearance_records rows; the pair field is empty where no pair was checked."""
    lines = ["t,min_clearance,pair"]
    for t, d, pair in records:
        lines.append("%.12g,%.12g,%s" % (t, d, "%d-%d" % pair if pair else ""))
    return "\n".join(lines) + "\n"
