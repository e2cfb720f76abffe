"""Thick-panel geometry for doubled patterns.

Panels are attached to one side of the zero-thickness pattern and beveled
at every crease whose fold pushes material toward that side; the bevel is
the dihedral bisector plane at the crease's largest fold angle over the
intended motion, so adjacent panels arrive face to face exactly at full
fold.  The panel thickness is bounded by the doubled-pair half-width; the
bound can be lifted to study what goes wrong beyond it.

Collision checking samples the given motion, transforms each panel by its
face's rigid placement, and measures signed pairwise clearance between the
triangulated solids (negative means penetration).
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Iterable, Mapping, Sequence

import numpy as np

from .dl import read_record
from .fold3d import MotionSample, propagate_fold
from .geometry import Isometry
from .pattern import CreasePattern

GAP_TOL = 1e-6


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
class PanelSolid:
    """One face's panel: a prismatoid between the face and its inset top.

    Mesh vertices live in the flat pattern's frame (face in z = 0); the top
    may sit lower than the full thickness when bevel planes from opposite
    edges meet below it (the panel then ends in a ridge).
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


def _inset_reach(base: np.ndarray, rates: np.ndarray) -> tuple[np.ndarray, float]:
    """Corner velocities and reach of a CCW face whose edges move inward.

    Edge i (base[i] -> base[i+1]) moves inward by h * rates[i], so corner i
    sits at base[i] + h * V[i].  The reach is the first h > 0 at which the
    inset stops being the same polygon: an edge shrinks to nothing, or a
    reflex corner runs into another edge (the edge and split events of the
    straight skeleton).  A corner between collinear edges moving at one rate
    is no real corner: it rides along its line and bounds nothing, so events
    are taken over the edges between real corners.
    """
    n = len(base)
    d = np.roll(base, -1, axis=0) - base
    d /= np.linalg.norm(d, axis=1)[:, None]
    inward = np.column_stack([-d[:, 1], d[:, 0]])
    d_in, r_in = np.roll(d, 1, axis=0), np.roll(rates, 1)  # edge ending at each corner
    cross = d_in[:, 0] * d[:, 1] - d_in[:, 1] * d[:, 0]
    riding = np.abs(cross) < 1e-12
    if np.any(riding & (r_in != rates)):
        return np.zeros((n, 2)), 0.0  # a split corner would open a step
    safe = np.where(riding, 1.0, cross)[:, None]
    V = np.where(
        riding[:, None],
        rates[:, None] * inward,
        (r_in[:, None] * d - rates[:, None] * d_in) / safe,
    )
    real = [i for i in range(n) if not riding[i]]
    edges = list(zip(real, real[1:] + real[:1]))
    scale = float(np.max(np.ptp(base, axis=0)))
    reach = math.inf
    for a, b in edges:
        shrink = float((V[a] - V[b]) @ d[a])
        if shrink > 0.0:
            reach = min(reach, float((base[b] - base[a]) @ d[a]) / shrink)
    for i in real:
        if cross[i] >= 0.0:
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
    These are the lengths scaling each crease's thickness bound.
    """
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
    for cycle, sides in zip(pattern.faces, pattern.face_creases):
        base = pts[list(cycle)]
        for k, ci in enumerate(sides):
            if ci not in interior or ci in out:
                continue
            rates = np.zeros(len(cycle))
            rates[k] = 1.0
            depths[ci] = min(depths.get(ci, math.inf), _inset_reach(base, rates)[1] / 2.0)
    out.update(depths)
    return out


def _design_angles(
    pattern: CreasePattern, motion: Sequence[MotionSample], params: ThickPanelParams
) -> dict[int, float]:
    """Signed trim angle per interior crease: the extreme fold over the motion."""
    rho: dict[int, float] = {}
    for ci in pattern.interior_creases:
        best = 0.0
        for s in motion:
            v = float(s.fold_angles[ci])
            if abs(v) > abs(best):
                best = v
        rho[ci] = best
    if params.rho_max:
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
    for s in motion:
        if not s.valid:
            raise ThickenError(f"motion sample t={s.t} fails closure")
    rho = _design_angles(pattern, motion, params)
    sign_up = 1.0 if params.side == "above" else -1.0
    widths = crease_half_widths(pattern)
    beveled = {ci: v for ci, v in rho.items() if sign_up * v > 0.0}
    if params.enforce_bound:
        for ci in sorted(beveled):
            bound = max_thickness(widths.get(ci, 1.0), abs(beveled[ci]))
            if params.tau > bound + 1e-12:
                raise ThickenError(
                    f"thickness {params.tau} exceeds bound {bound:.9g} at crease {ci}"
                )

    pts = pattern.vertices_array
    solids = []
    for fi, (cycle, sides) in enumerate(zip(pattern.faces, pattern.face_creases)):
        base = pts[list(cycle)]
        n = len(cycle)
        slopes = np.zeros(n)
        angles = []
        for k, ci in enumerate(sides):
            if ci in beveled:
                slopes[k] = math.tan(abs(beveled[ci]) / 2.0)
                angles.append((math.pi - abs(beveled[ci])) / 2.0)
            else:
                angles.append(math.pi / 2.0)
        V, reach = _inset_reach(base, slopes)
        # stop short of the reach: a top within rounding of it is degenerate
        h = min(params.tau, reach * (1.0 - 1e-9))
        if h < params.tau and params.enforce_bound:
            raise ThickenError(f"panel for face {fi} vanishes at this thickness")
        if h <= 0.0:
            raise ThickenError(f"panel for face {fi} admits no valid top")
        top = base + h * V
        solids.append(_build_solid(pattern, fi, base, top, params.tau, h, tuple(angles), sign_up))
    return tuple(solids)


def _build_solid(pattern, fi, base, top, tau, h, angles, sign_up) -> PanelSolid:
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
    )


# -- clearance -------------------------------------------------------------


def _seg_seg_dist(p1, q1, p2, q2) -> np.ndarray:
    """Batched segment-segment distances; inputs (k, 3)."""
    d1 = q1 - p1
    d2 = q2 - p2
    r = p1 - p2
    a = np.einsum("ij,ij->i", d1, d1)
    e = np.einsum("ij,ij->i", d2, d2)
    f = np.einsum("ij,ij->i", d2, r)
    c = np.einsum("ij,ij->i", d1, r)
    b = np.einsum("ij,ij->i", d1, d2)
    denom = a * e - b * b
    with np.errstate(divide="ignore", invalid="ignore"):
        s = np.where(denom > 1e-30, np.clip((b * f - c * e) / denom, 0.0, 1.0), 0.0)
        t = np.where(e > 1e-30, (b * s + f) / e, 0.0)
        s = np.where(t < 0.0, np.where(a > 1e-30, np.clip(-c / a, 0.0, 1.0), 0.0), s)
        s = np.where(t > 1.0, np.where(a > 1e-30, np.clip((b - c) / a, 0.0, 1.0), 0.0), s)
    t = np.clip(t, 0.0, 1.0)
    diff = (p1 + s[:, None] * d1) - (p2 + t[:, None] * d2)
    return np.linalg.norm(diff, axis=1)


def _point_tri_dist(p, a, b, c) -> np.ndarray:
    """Batched point-triangle distances; inputs (k, 3)."""
    ab = b - a
    ac = c - a
    ap = p - a
    d1 = np.einsum("ij,ij->i", ab, ap)
    d2 = np.einsum("ij,ij->i", ac, ap)
    bp = p - b
    d3 = np.einsum("ij,ij->i", ab, bp)
    d4 = np.einsum("ij,ij->i", ac, bp)
    cp = p - c
    d5 = np.einsum("ij,ij->i", ab, cp)
    d6 = np.einsum("ij,ij->i", ac, cp)
    vc = d1 * d4 - d3 * d2
    vb = d5 * d2 - d1 * d6
    va = d3 * d6 - d5 * d4
    with np.errstate(divide="ignore", invalid="ignore"):
        t_ab = np.where(np.abs(d1 - d3) > 1e-300, d1 / (d1 - d3), 0.0)
        t_ac = np.where(np.abs(d2 - d6) > 1e-300, d2 / (d2 - d6), 0.0)
        den_bc = (d4 - d3) + (d5 - d6)
        t_bc = np.where(np.abs(den_bc) > 1e-300, (d4 - d3) / den_bc, 0.0)
        nrm = np.cross(ab, ac)
        nn = np.einsum("ij,ij->i", nrm, nrm)
        t_in = np.where(nn > 1e-300, np.einsum("ij,ij->i", ap, nrm) / np.sqrt(np.maximum(nn, 1e-300)), 0.0)
    chosen = np.zeros(len(p), dtype=bool)
    out = np.empty((len(p), 3))

    def put(mask, point):
        nonlocal chosen
        use = mask & ~chosen
        out[use] = point[use]
        chosen = chosen | mask

    put((d1 <= 0) & (d2 <= 0), a)
    put((d3 >= 0) & (d4 <= d3), b)
    put((vc <= 0) & (d1 >= 0) & (d3 <= 0), a + np.clip(t_ab, 0, 1)[:, None] * ab)
    put((d6 >= 0) & (d5 <= d6), c)
    put((vb <= 0) & (d2 >= 0) & (d6 <= 0), a + np.clip(t_ac, 0, 1)[:, None] * ac)
    put((va <= 0) & (d4 - d3 >= 0) & (d5 - d6 >= 0), b + np.clip(t_bc, 0, 1)[:, None] * (c - b))
    put(np.ones(len(p), dtype=bool), p - t_in[:, None] * (nrm / np.sqrt(np.maximum(nn, 1e-300))[:, None]))
    return np.linalg.norm(p - out, axis=1)


def _tri_pair_arrays(ta: np.ndarray, tb: np.ndarray):
    m, k = len(ta), len(tb)
    A = np.repeat(ta, k, axis=0)
    B = np.tile(tb, (m, 1, 1))
    return A, B


def _tri_tri_min_dist(ta: np.ndarray, tb: np.ndarray) -> float:
    """Min distance between two triangle soups, assuming no interpenetration."""
    A, B = _tri_pair_arrays(ta, tb)
    best = np.full(len(A), np.inf)
    for i in range(3):
        for j in range(3):
            d = _seg_seg_dist(A[:, i], A[:, (i + 1) % 3], B[:, j], B[:, (j + 1) % 3])
            best = np.minimum(best, d)
    for i in range(3):
        best = np.minimum(best, _point_tri_dist(A[:, i], B[:, 0], B[:, 1], B[:, 2]))
        best = np.minimum(best, _point_tri_dist(B[:, i], A[:, 0], A[:, 1], A[:, 2]))
    return float(np.min(best))


def _tri_tri_any_cross(ta: np.ndarray, tb: np.ndarray) -> bool:
    """Whether any triangle of one soup properly crosses one of the other."""
    A, B = _tri_pair_arrays(ta, tb)
    return bool(np.any(_cross_mask(A, B)))


def _cross_mask(A: np.ndarray, B: np.ndarray) -> np.ndarray:
    def plane_side(tri, pts):
        n = np.cross(tri[:, 1] - tri[:, 0], tri[:, 2] - tri[:, 0])
        return np.stack(
            [np.einsum("ij,ij->i", n, pts[:, k] - tri[:, 0]) for k in range(3)], axis=1
        )

    sa = plane_side(B, A)
    sb = plane_side(A, B)
    eps = 1e-12
    a_split = ~(np.all(sa > eps, axis=1) | np.all(sa < -eps, axis=1))
    b_split = ~(np.all(sb > eps, axis=1) | np.all(sb < -eps, axis=1))
    cand = a_split & b_split
    if not np.any(cand):
        return np.zeros(len(A), dtype=bool)
    # candidates: do any edges of one triangle pierce the other's interior?
    out = np.zeros(len(A), dtype=bool)
    idx = np.nonzero(cand)[0]
    for i in range(3):
        pa, qa = A[idx, i], A[idx, (i + 1) % 3]
        out[idx] |= _seg_pierces(pa, qa, B[idx])
        pb, qb = B[idx, i], B[idx, (i + 1) % 3]
        out[idx] |= _seg_pierces(pb, qb, A[idx])
    return out


def _seg_pierces(p, q, tri) -> np.ndarray:
    """Batched proper segment-triangle piercing test."""
    a, b, c = tri[:, 0], tri[:, 1], tri[:, 2]
    d = q - p
    e1 = b - a
    e2 = c - a
    h = np.cross(d, e2)
    det = np.einsum("ij,ij->i", e1, h)
    with np.errstate(divide="ignore", invalid="ignore"):
        inv = np.where(np.abs(det) > 1e-30, 1.0 / det, 0.0)
        s = p - a
        u = np.einsum("ij,ij->i", s, h) * inv
        qv = np.cross(s, e1)
        v = np.einsum("ij,ij->i", d, qv) * inv
        t = np.einsum("ij,ij->i", e2, qv) * inv
    eps = 1e-9
    return (
        (np.abs(det) > 1e-30)
        & (u > eps)
        & (v > eps)
        & (u + v < 1.0 - eps)
        & (t > eps)
        & (t < 1.0 - eps)
    )


def _points_inside(points: np.ndarray, verts: np.ndarray, tris: np.ndarray) -> np.ndarray:
    """Parity ray cast along a fixed skew direction."""
    direction = np.array([0.57735026919, 0.26726124191, 0.77459666924])
    tri = verts[tris]
    a, b, c = tri[:, 0], tri[:, 1], tri[:, 2]
    e1 = b - a
    e2 = c - a
    h = np.cross(direction[None, :], e2)
    det = np.einsum("ij,ij->i", e1, h)
    counts = np.zeros(len(points), dtype=int)
    good = np.abs(det) > 1e-30
    with np.errstate(divide="ignore", invalid="ignore"):
        inv = np.where(good, 1.0 / det, 0.0)
        for k, pt in enumerate(points):
            s = pt[None, :] - a
            u = np.einsum("ij,ij->i", s, h) * inv
            qv = np.cross(s, e1)
            v = np.einsum("j,ij->i", direction, qv) * inv
            t = np.einsum("ij,ij->i", e2, qv) * inv
            hit = good & (u >= 0) & (v >= 0) & (u + v <= 1) & (t > 1e-12)
            counts[k] = int(np.sum(hit))
    return counts % 2 == 1


def _pair_clearance(va, ta, vb, tb) -> float:
    """Signed clearance between two closed triangle meshes."""
    tris_a = va[ta]
    tris_b = vb[tb]
    inside_a = _points_inside(va, vb, tb)
    inside_b = _points_inside(vb, va, ta)
    crossing = _tri_tri_any_cross(tris_a, tris_b)
    if crossing or np.any(inside_a) or np.any(inside_b):
        depth = 1e-12
        for pts, mask, verts, tris in (
            (va, inside_a, vb, tb),
            (vb, inside_b, va, ta),
        ):
            if np.any(mask):
                tri = verts[tris]
                for p in pts[mask]:
                    pk = np.broadcast_to(p, (len(tri), 3))
                    d = float(np.min(_point_tri_dist(pk, tri[:, 0], tri[:, 1], tri[:, 2])))
                    depth = max(depth, d)
        return -depth
    return _tri_tri_min_dist(tris_a, tris_b)


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


def clearance_records(
    solids: Sequence[PanelSolid], motion: Sequence[MotionSample]
) -> list[tuple[float, float, tuple[int, int]]]:
    """Per-sample minimum clearance: (t, clearance, worst face pair)."""
    if not solids:
        raise ThickenError("no panels to check")
    pattern = solids[0].pattern
    skip = _adjacent_faces(pattern)
    order = sorted(range(len(solids)), key=lambda k: solids[k].face)
    records = []
    for sample in motion:
        state = propagate_fold(pattern, np.asarray(sample.fold_angles))
        placed = []
        boxes = []
        for k in order:
            s = solids[k]
            v = state.isometries[s.face].apply(s.vertices)
            placed.append(v)
            boxes.append((v.min(axis=0), v.max(axis=0)))
        cands = []
        for i in range(len(order)):
            fi = solids[order[i]].face
            for j in range(i + 1, len(order)):
                fj = solids[order[j]].face
                key = (min(fi, fj), max(fi, fj))
                if key in skip:
                    continue
                lo_i, hi_i = boxes[i]
                lo_j, hi_j = boxes[j]
                gap = np.maximum(0.0, np.maximum(lo_j - hi_i, lo_i - hi_j))
                cands.append((float(np.linalg.norm(gap)), i, j))
        cands.sort()
        best = math.inf
        best_pair = (-1, -1)
        for lb, i, j in cands:
            if lb >= best:
                break
            d = _pair_clearance(
                placed[i], solids[order[i]].triangles, placed[j], solids[order[j]].triangles
            )
            if d < best:
                best = d
                best_pair = (solids[order[i]].face, solids[order[j]].face)
        records.append((float(sample.t), best, best_pair))
    return records


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
    pts = pattern.vertices_array
    worst = 0.0
    for ci in pattern.interior_creases:
        left, right = pattern.crease_faces[ci]
        if left not in by_face or right not in by_face:
            continue
        sl, sr = by_face[left], by_face[right]
        kl, kr = pattern.face_creases[left].index(ci), pattern.face_creases[right].index(ci)
        if sl.bevel_angles[kl] >= math.pi / 2 or sr.bevel_angles[kr] >= math.pi / 2:
            continue  # square edges stay joined along the base surface
        # panels below the pattern bevel for creases folding toward -z
        rho = math.copysign(math.pi - 2.0 * sl.bevel_angles[kl], sl.vertices[-1, 2])
        c = pattern.creases[ci]
        p0, p1 = pts[c.v0], pts[c.v1]
        axis = np.array([p1[0] - p0[0], p1[1] - p0[1], 0.0])
        axis /= np.linalg.norm(axis)
        # fold the left face of v0 -> v1 by the signed trim angle, keep the right one
        iso = Isometry.about_line(np.array([p0[0], p0[1], 0.0]), axis, rho)
        worst = max(worst, _quad_plane_gap(_side_quad(sr, kr), iso.apply(_side_quad(sl, kl))))
    return worst


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


def export_clearance_csv(records: Iterable[tuple[float, float, tuple[int, int]]]) -> str:
    """CSV log of clearance_records rows."""
    lines = ["t,min_clearance,pair"]
    for t, d, (i, j) in records:
        lines.append("%.12g,%.12g,%d-%d" % (t, d, i, j))
    return "\n".join(lines) + "\n"
