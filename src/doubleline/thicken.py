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
measures signed clearance between pairs of pieces with a separating-axis
test: the exact penetration depth (negative) between pieces that overlap,
the exact distance between pieces apart wherever it can beat the sample's
least clearance so far.  Each batch of piece pairs runs at its widest
piece's corner count, skips pairs whose separation exceeds that least, and
measures the others only inside the slab between separation and least.
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
from .geometry import crossing, triangulate
from .pattern import CreasePattern, per_pattern

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
        su = crossing(B[0], ray, B[j], B[j + 1] - B[j])
        if su is not None and 0.0 < su[0] < hit[0] and -1e-12 <= su[1] <= 1.0 + 1e-12:
            hit = (su[0], j, su[1])
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
                raise ThickenError(f"thickness {params.tau} exceeds bound {bound:.9g} at crease {ci}")

    faces, parts = [], []
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
        if (h < params.tau and params.enforce_bound) or h <= 0.0:
            fault = "vanishes" if params.enforce_bound else "admits no valid top"
            raise ThickenError(f"panel for face {fi} {fault} at thickness {params.tau:.12g}: its reach is {reach:.12g}")
        cut = _convex_pieces(outline, slopes)
        faces.append((fi, base, base + h * V, h, tuple(angles), len(cut)))
        parts += [(b, r, v, h) for b, r, v in cut]
    pieces = iter(_prismatoids(parts, sign_up))
    return tuple(
        _build_solid(pattern, fi, base, top, params.tau, h, angles, sign_up, tuple(next(pieces) for _ in range(k)))
        for fi, base, top, h, angles, k in faces
    )


def _prismatoids(parts: Sequence[tuple[np.ndarray, np.ndarray, np.ndarray, float]], up: float) -> list[ConvexPiece]:
    """Convex pieces from (corners, edge rates, corner velocities, height) parts, in their order.

    Each is the prismatoid between a convex CCW piece at z = 0 and its top,
    corners + height * velocities, at z = up * height.  Pieces with m
    corners are built together and share one edge and one loop table.
    """
    out: list[ConvexPiece] = [None] * len(parts)  # type: ignore[list-item]
    for m in {len(b) for b, *_ in parts}:
        at = [i for i, (b, *_) in enumerate(parts) if len(b) == m]
        base, rates, vel, h = (np.array([parts[i][j] for i in at]) for j in range(4))
        verts = np.zeros((len(at), 2 * m, 3))
        verts[:, :m, :2], verts[:, m:, :2], verts[:, m:, 2] = base, base + h[:, None, None] * vel, up * h[:, None]
        k = np.arange(m)
        k1 = (k + 1) % m
        d = base[:, k1] - base
        d /= np.linalg.norm(d, axis=2)[..., None]
        # a side leans inward by its rate per unit of height
        sides = np.stack([d[..., 1], -d[..., 0], up * rates], axis=2)
        normals = np.empty((len(at), m + 2, 3))
        normals[:, :m], normals[:, m:] = sides / np.linalg.norm(sides, axis=2)[..., None], [[0, 0, -up], [0, 0, up]]
        lateral = verts[:, m:] - verts[:, :m]
        directions = np.zeros((len(at), 2 * m, 3))
        directions[:, :m, :2], directions[:, m:] = d, lateral / np.linalg.norm(lateral, axis=2)[..., None]
        edges = np.vstack([np.column_stack([k, k1]), np.column_stack([k, k1]) + m, np.column_stack([k, k + m])])
        width = max(m, 4)
        loops = np.empty((m + 2, width), dtype=int)
        loops[:m] = np.column_stack([k, k1, k1 + m] + [k + m] * (width - 3))
        loops[m] = np.append(k, [m - 1] * (width - m))
        loops[m + 1] = loops[m] + m
        edges.setflags(write=False)
        loops.setflags(write=False)
        for i, *arrays in zip(at, verts, normals, directions):
            out[i] = ConvexPiece(*arrays, edges, loops)
    return out


def _build_solid(pattern, fi, base, top, tau, h, angles, sign_up, pieces) -> PanelSolid:
    n = len(base)
    verts = np.vstack([np.column_stack([base, np.zeros(n)]), np.column_stack([top, np.full(n, sign_up * h)])])
    try:
        bottom, cap = triangulate(base), triangulate(top)
    except ValueError as err:
        raise ThickenError(f"panel for face {fi}: {err}") from None
    tris = [(i0, i2, i1) for i0, i1, i2 in bottom]  # bottom, outward = -z for side above
    tris += [(n + i0, n + i1, n + i2) for i0, i1, i2 in cap]
    for i in range(n):
        j = (i + 1) % n
        tris.append((i, j, n + j))
        tris.append((i, n + j, n + i))
    tri = np.array(tris, dtype=int)
    if sign_up < 0:
        tri = tri[:, ::-1]  # mirrored solid: restore outward orientation
    return PanelSolid(pattern=pattern, face=fi, base=base.copy(), top=top.copy(), height=tau, top_height=h,
                      bevel_angles=angles, vertices=verts, triangles=tri, pieces=pieces)


# -- clearance -------------------------------------------------------------


def _seg_seg_dist(p1, d1, p2, d2) -> np.ndarray:
    """Distances between segments p1 + s d1 and p2 + t d2, s and t in [0, 1], over coordinate-major (3, k) stacks."""
    r = p1 - p2
    a, e, f, c, b = (_dot(x, y) for x, y in ((d1, d1), (d2, d2), (d2, r), (d1, r), (d1, d2)))
    denom = a * e - b * b
    # minimum(maximum(x, 0), 1) is np.clip(x, 0, 1) but for the sign of a zero, without its Python overhead
    with np.errstate(divide="ignore", invalid="ignore"):
        s = np.where(denom > 1e-30, np.minimum(np.maximum((b * f - c * e) / denom, 0.0), 1.0), 0.0)
        t = np.where(e > 1e-30, (b * s + f) / e, 0.0)
        # past an end of segment 2: the point of segment 1 nearest that end
        past = np.minimum(np.maximum(np.where(t < 0.0, -c, b - c) / a, 0.0), 1.0)
        s = np.where((t < 0.0) | (t > 1.0), np.where(a > 1e-30, past, 0.0), s)
    # (p1 + s d1) - (p2 + t d2), squared, in place: these arrays bound the narrow phase's memory
    np.multiply(s, d1, out=r)
    r += p1
    r -= np.minimum(np.maximum(t, 0.0), 1.0) * d2 + p2
    r *= r
    return np.sqrt((r[0] + r[1]) + r[2])  # np.linalg.norm's sum


def _dot(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Dot products of coordinate-major stacks, summed as einsum sums three terms."""
    xy = x * y
    return (xy[0] + xy[2]) + xy[1]


def _cross(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Cross products of broadcast coordinate-major stacks of 3-vectors: np.cross's arithmetic without its overhead."""
    return a.take([1, 2, 0], axis=0) * b.take([2, 0, 1], axis=0) - a.take([2, 0, 1], axis=0) * b.take([1, 2, 0], axis=0)


def _stack(pieces: Sequence[ConvexPiece]) -> ConvexPiece:
    """Convex pieces stacked along a new first axis, padded to the most corners among them.

    Padding repeats each array's last entry (a loop's last corner), so it
    adds no extreme point, no new axis and no face.  Each array is padded
    by one gather from the pieces' rows laid end to end.
    """
    m = np.array([len(p.normals) - 2 for p in pieces])
    most = int(m.max())

    def pad(arrays: list[np.ndarray], rows: np.ndarray, width: int) -> np.ndarray:
        start = np.cumsum(rows) - rows
        return np.concatenate(arrays)[start[:, None] + np.minimum(np.arange(width), rows[:, None] - 1)]

    # a loop table depends only on the corner count: each distinct one is padded once
    sizes, first, which = np.unique(m, return_index=True, return_inverse=True)
    rows, cols = np.arange(most + 2), np.arange(max(most, 4))
    loops = np.stack([pieces[i].loops[np.minimum(rows, k + 1)][:, np.minimum(cols, max(k, 4) - 1)] for i, k in zip(first, sizes)])
    return ConvexPiece(pad([p.vertices for p in pieces], 2 * m, 2 * most), pad([p.normals for p in pieces], m + 2, most + 2),
                       pad([p.directions for p in pieces], 2 * m, 2 * most), pad([p.edges for p in pieces], 3 * m, 3 * most),
                       loops[which])


def _clearance(both: ConvexPiece, best: np.ndarray) -> np.ndarray:
    """Signed clearance between rows k and n + k of a stack of 2n placed convex pieces, exact below best[k].

    When the largest separation over the axes is negative it is the
    penetration depth, exact for convex pieces.  A row apart by more than
    its cut (best[k] plus 1e-9 of it and of the largest coordinate) returns
    that separation.  Otherwise it is the distance: the least over edge
    pairs and corners facing a face whose depths below the sides facing
    each other on the best axis sum to at most cut - separation.
    """
    n = len(both.vertices) // 2
    out, depth = _separation(both, n)
    cut = best + 1e-9 * (np.abs(best) + np.abs(both.vertices).max())
    open_ = (out >= 0.0) & (out <= cut)
    if not open_.any():  # on later batches many rows lie beyond their cut
        return out
    slab = np.where(open_, cut - out, -1.0)[np.arange(2 * n) % n]  # each row's slab width, for both its pieces
    # coordinate-major corners, row r's corner v in column r * nv + v; take keeps gathers coordinate-major
    nv, pts, flat = depth.shape[1], np.ascontiguousarray(both.vertices.reshape(-1, 3).T), depth.ravel()
    at = nv * np.arange(2 * n)[:, None, None]
    first, second = (both.edges + at).transpose(2, 0, 1)
    start = pts.take(first.ravel(), axis=1)
    span = pts.take(second.ravel(), axis=1) - start  # each edge from its first corner
    deep = np.minimum(flat[first], flat[second])  # a feature's depth is its least corner's
    near = deep[:n, :, None] + deep[n:, None, :] <= slab[:n, None, None]
    k, i, j = near.nonzero()
    i, j = k * deep.shape[1] + i, (n + k) * deep.shape[1] + j
    edge = np.where(near, 0.0, math.inf)
    edge[near] = _seg_seg_dist(*(x.take(e, axis=1) for e in (i, j) for x in (start, span)))
    # row r's faces against the corners of the other piece, row swap[r]; rims lead, so sides reduce over them
    swap, rings = np.arange(-n, n), both.loops.transpose(2, 0, 1) + at[..., 0]
    corners, normals = pts.take(rings, axis=1), np.ascontiguousarray(both.normals.transpose(2, 0, 1))
    rims = _cross(normals[:, None], corners.take(np.arange(1, len(rings) + 1) % len(rings), axis=1) - corners)
    near = np.minimum.reduce(flat[rings])[:, :, None] + depth[swap][:, None, :] <= slab[:, None, None]
    r, f, v = near.nonzero()
    face = r * rings.shape[2] + f
    side = _dot(rims.reshape(3, len(rings), -1).take(face, axis=2), pts.take(swap[r] * nv + v, axis=1)[:, None])
    side -= _dot(rims, corners).reshape(len(rings), -1).take(face, axis=1)
    # one sign on every rim means inside, whichever way the loop turns
    inside = (np.minimum.reduce(side) >= 0.0) | (np.maximum.reduce(side) <= 0.0)
    plane = both.vertices.reshape(2, n, nv, 3)[::-1] @ both.normals.reshape(2, n, -1, 3).swapaxes(2, 3)
    facing = np.where(near, 0.0, math.inf)
    facing[near] = np.where(inside, np.abs(plane.reshape(2 * n, nv, -1)[r, v, f] - _dot(normals, corners[:, 0]).ravel()[face]), math.inf)
    edge, facing = np.minimum.reduce(edge.reshape(n, -1), axis=1), np.minimum.reduce(facing.reshape(2, n, -1), axis=(0, 2))
    return np.where(open_, np.minimum(edge, facing), out)


def _separation(both: ConvexPiece, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Largest separation of rows k and n + k over both pieces' face normals and edge-direction cross products,
    and each corner's depth on that axis below its piece's side facing the other, in rows like the stack's."""
    d = np.ascontiguousarray(both.directions.transpose(2, 0, 1))
    cross = _cross(d[:, :n, :, None], d[:, n:, None]).reshape(3, n, -1)
    sq = cross * cross
    size = np.sqrt((sq[0] + sq[1]) + sq[2])  # np.linalg.norm's sum
    keep, normals = size > 1e-12, both.normals.transpose(0, 2, 1)
    # an axis of parallel edges repeats the first normal: no new separation
    cross = np.where(keep, cross / np.where(keep, size, 1.0), normals[:n, :, 0].T[:, :, None])
    axes = np.concatenate([normals[:n], normals[n:], cross.transpose(1, 0, 2)], axis=2)
    # both sides' corners on every axis by one product, (2, n, corners, axes)
    proj = both.vertices.reshape(2, n, -1, 3) @ axes
    lo, hi = np.minimum.reduce(proj, axis=2), np.maximum.reduce(proj, axis=2)
    gaps = np.concatenate([lo[1] - hi[0], lo[0] - hi[1]], axis=1)  # row n + k above row k, then below
    pick, ax = gaps.argmax(axis=1), axes.shape[2]
    # corners on that axis, turned so that each piece's side facing the other is its least
    on = proj[:, np.arange(n), :, pick % ax] * (np.where(pick < ax, 1.0, -1.0)[:, None] * [-1.0, 1.0])[..., None]
    depth = on - np.minimum.reduce(on, axis=2)[..., None]
    return gaps[np.arange(n), pick], depth.transpose(1, 0, 2).reshape(2 * n, -1)


def _adjacent_faces(pattern: CreasePattern) -> set[tuple[int, int]]:
    """Face pairs sharing any pattern vertex; those touch by construction."""
    at_vertex: dict[int, list[int]] = {}
    for fi, cycle in enumerate(pattern.faces):
        for v in cycle:
            at_vertex.setdefault(v, []).append(fi)
    return {(f, g) for members in at_vertex.values() for k, f in enumerate(members) for g in members[k + 1 :]}


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
    alone), places only the pieces of its batch, at their most corners, and
    is exact below each sample's least clearance so far.  When every pair
    of panels shares a pattern vertex no pair is checked: the clearance is
    inf and the pair None.

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
    counts = np.array([len(solids[k].pieces) for k in order])
    start = np.cumsum(counts) - counts
    # the piece pairs of every face pair, pair after pair, as the columns of one (2, P) array
    size = counts[first] * counts[second]
    offset = np.cumsum(size) - size
    local = np.divmod(np.arange(size.sum()) - np.repeat(offset, size), np.repeat(counts[second], size))
    piece_pairs, offset, size = np.repeat([start[first], start[second]], size, axis=1) + local, offset.tolist(), size.tolist()
    # a batch is sliced to the most corners among its pieces
    widest = np.array([max(len(p.normals) for p in solids[k].pieces) - 2 for k in order])
    width = np.maximum(widest[first], widest[second]).tolist()
    face_of = np.repeat(faces, counts)
    stack = _stack([p for k in order for p in solids[k].pieces])
    rot = np.stack([s.rotations for s in motion])[:, face_of]
    trans = np.stack([s.translations for s in motion])[:, face_of]
    # the broad phase places only the corners, x -> rot @ x + trans; the
    # narrow phase places the pieces of each batch
    corners = stack.vertices @ rot.swapaxes(-1, -2) + trans[..., None, :]
    lo = np.minimum.reduceat(corners.min(axis=2), start, axis=1)
    hi = np.maximum.reduceat(corners.max(axis=2), start, axis=1)
    del corners
    gap = np.maximum(0.0, np.maximum(lo[:, second] - hi[:, first], lo[:, first] - hi[:, second]))
    # AABB gaps are lower bounds, tried in ascending order, ties in pair
    # order; matmul takes the same dot product as np.linalg.norm
    lbs = np.sqrt((gap[..., None, :] @ gap[..., :, None])[..., 0, 0])
    ranked = np.argsort(lbs, axis=1, kind="stable")
    bounds, ranked = np.take_along_axis(lbs, ranked, axis=1), ranked.tolist()
    # every piece's corners, normals and directions as rows of one array, placed by one product
    nv, nn = stack.vertices.shape[1], stack.normals.shape[1]
    body = np.concatenate([stack.vertices, stack.normals, stack.directions], axis=1)
    columns = {w: np.r_[: 2 * w, nv : nv + w + 2, nv + nn : nv + nn + 2 * w] for w in set(width)}

    best = [math.inf] * len(motion)
    worst: list[tuple[int, int] | None] = [None] * len(motion)
    tried = [0] * len(motion)
    queue = deque(range(len(motion)))  # samples take turns, one candidate each
    while queue:
        batch, take, sample = [], [], []
        while queue:
            s = queue[0]
            if tried[s] == len(pairs) or bounds[s, tried[s]] >= best[s]:
                queue.popleft()  # this sample's search is over
                continue
            c = ranked[s][tried[s]]
            if batch and len(take) + size[c] > NARROW_CHUNK:
                break
            queue.rotate(-1)
            batch.append((s, c, bounds[s, tried[s]], len(take)))
            tried[s] += 1
            take += range(offset[c], offset[c] + size[c])
            sample += [s] * size[c]
        if not batch:
            break
        w = max(width[c] for _, c, *_ in batch)
        p = piece_pairs[:, take].ravel()  # side a's rows, then side b's
        cutoff, sample = np.array(best)[sample], sample * 2
        moved = body[p[:, None], columns[w]] @ rot[sample, p].swapaxes(-1, -2)
        both = ConvexPiece(moved[:, : 2 * w] + trans[sample, p][:, None, :], moved[:, 2 * w : 3 * w + 2],
                           moved[:, 3 * w + 2 :], stack.edges[p, : 3 * w], stack.loops[p, : w + 2, : max(w, 4)])
        # a sample's candidates come in ascending gap order, so once a gap
        # reaches the best clearance no later candidate of it counts
        for (s, c, lb, _), d in zip(batch, np.minimum.reduceat(_clearance(both, cutoff), [h for *_, h in batch]).tolist()):
            if lb < best[s] and d < best[s]:
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
    start = dict(zip(by_face, np.cumsum([0] + [len(s.vertices) for s in by_face.values()]).tolist()))
    creases, angles, corners = [], [], []
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
        for s, k in ((sr, kr), (sl, kl)):  # the bevel quad on side k, as rows of the panel's mesh
            n, at = len(s.base), start[s.face]
            corners += [at + k, at + (k + 1) % n, at + n + (k + 1) % n, at + n + k]
    quads = np.concatenate([s.vertices for s in by_face.values()])[corners].reshape(-1, 2, 4, 3)
    # fold the left face of v0 -> v1 by the signed trim angle, keep the right one
    rot, trans = crease_rotations(pattern, np.array(creases, dtype=int), np.array(angles))
    right, left = quads[:, 0], quads[:, 1] @ rot.swapaxes(-1, -2) + trans[:, None]
    # each quad's plane against the other's corners; matmul takes np.linalg.norm's dot product
    plane, probe = np.stack([right, left]), np.stack([left, right])
    normal = _cross((plane[..., 1, :] - plane[..., 0, :]).T, (plane[..., 3, :] - plane[..., 0, :]).T).T
    size = np.sqrt(normal[..., None, :] @ normal[..., :, None])[..., 0]
    off = np.abs((probe - plane[..., :1, :]) @ (normal / np.where(size < 1e-30, 1.0, size))[..., None])
    return float(np.where(size < 1e-30, math.inf, off.max(axis=2)).max(initial=0.0))


# -- export ----------------------------------------------------------------


def export_solids_obj(solids: Sequence[PanelSolid]) -> str:
    """Wavefront OBJ text with one group per panel, flat-pattern placement."""
    lines = ["# doubleline thick panels"]
    offset = 1
    for s in sorted(solids, key=lambda x: x.face):
        lines.append(f"g face{s.face}")
        lines += ["v %.9f %.9f %.9f" % tuple(v) for v in s.vertices.tolist()]
        lines += ["f %d %d %d" % tuple(t) for t in (s.triangles + offset).tolist()]
        offset += len(s.vertices)
    return "\n".join(lines) + "\n"


def export_clearance_csv(records: Iterable[tuple[float, float, tuple[int, int] | None]]) -> str:
    """CSV log of clearance_records rows; the pair field is empty where no pair was checked."""
    lines = ["t,min_clearance,pair"]
    for t, d, pair in records:
        lines.append("%.12g,%.12g,%s" % (t, d, "%d-%d" % pair if pair else ""))
    return "\n".join(lines) + "\n"
