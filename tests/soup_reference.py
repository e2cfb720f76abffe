"""Reference clearance between closed triangle meshes (a triangle soup).

Signed clearance as the kit measured it before panels were kept as convex
pieces: the exact distance between two disjoint meshes, and between
overlapping ones only the deepest vertex lying inside the other mesh, or
-1e-12 when the meshes cross with no vertex inside.  The tests compare the
convex-piece kernel against it.
"""
import numpy as np

from clearance_reference import seg_seg_dist as _seg_seg_dist


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


def soup_clearance(va, ta, vb, tb) -> float:
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
