"""Reference clearance as the kit measured it before the narrow phase was
batched: one separating-axis test per pair of placed convex pieces, and a
sequential branch and bound per sample over the face pairs in ascending
order of their bounding-box gaps.

The tests require ``clearance_records`` to agree with ``records`` exactly:
the same t, the same clearance bits and the same worst pair.

``padded_clearance`` is the batched kernel as it ran before each batch was
cut to its own width, gated by the sample's best clearance and culled to the
separating slab: every row of a padded stack, every edge pair, every corner
against every face.  The sliced, gated kernel must agree with it bit for bit
wherever the clearance is below the cut.
"""
import math

import numpy as np

from doubleline.thicken import ConvexPiece, _adjacent_faces
from panel_reference import placed


def _cross(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Cross products of broadcast stacks of 3-vectors along the last axis, as np.cross takes them."""
    a0, a1, a2 = a[..., 0], a[..., 1], a[..., 2]
    b0, b1, b2 = b[..., 0], b[..., 1], b[..., 2]
    return np.stack([a1 * b2 - a2 * b1, a2 * b0 - a0 * b2, a0 * b1 - a1 * b0], axis=-1)


def seg_seg_dist(p1, q1, p2, q2) -> np.ndarray:
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


def piece_clearance(a: ConvexPiece, b: ConvexPiece) -> float:
    """Signed clearance between two placed convex pieces.

    The axes are both pieces' face normals and the cross products of their
    edge directions.  When the largest separation over them is negative it
    is the penetration depth, exact for convex pieces; otherwise the exact
    distance is the least over edge pairs and over vertices facing a face.
    """
    cross = _cross(a.directions[:, None], b.directions[None]).reshape(-1, 3)
    size = np.linalg.norm(cross, axis=1)
    keep = size > 1e-12
    axes = np.vstack([a.normals, b.normals, cross[keep] / size[keep, None]])
    pa, pb = axes @ a.vertices.T, axes @ b.vertices.T
    sep = float(np.max(np.maximum(pb.min(axis=1) - pa.max(axis=1), pa.min(axis=1) - pb.max(axis=1))))
    if sep < 0.0:
        return sep
    ea, eb = a.vertices[a.edges], b.vertices[b.edges]
    i, j = np.repeat(np.arange(len(ea)), len(eb)), np.tile(np.arange(len(eb)), len(ea))
    best = float(np.min(seg_seg_dist(ea[i, 0], ea[i, 1], eb[j, 0], eb[j, 1])))
    return min(best, vertex_face_dist(a.vertices, b), vertex_face_dist(b.vertices, a))


def vertex_face_dist(points: np.ndarray, piece: ConvexPiece) -> float:
    """Least plane distance from a point to a face of the piece it projects into."""
    corners = piece.vertices[piece.loops]
    rims = _cross(piece.normals[:, None], np.roll(corners, -1, axis=1) - corners)
    side = np.einsum("fwk,pk->pfw", rims, points) - np.einsum("fwk,fwk->fw", rims, corners)
    # one sign on every rim means inside, whichever way the loop turns
    inside = (side.min(axis=2) >= 0.0) | (side.max(axis=2) <= 0.0)
    plane = np.abs(points @ piece.normals.T - np.einsum("fk,fk->f", piece.normals, corners[:, 0]))
    return float(np.min(plane, where=inside, initial=math.inf))


def records(solids, motion):
    """Per-sample minimum clearance: (t, clearance, worst face pair)."""
    pattern = solids[0].pattern
    skip = _adjacent_faces(pattern)
    order = sorted(range(len(solids)), key=lambda k: solids[k].face)
    faces = [solids[k].face for k in order]
    pairs = np.array([(i, j) for i in range(len(order)) for j in range(i + 1, len(order))
                      if (min(faces[i], faces[j]), max(faces[i], faces[j])) not in skip],
                     dtype=int).reshape(-1, 2)
    first, second = pairs[:, 0], pairs[:, 1]
    out = []
    for sample in motion:
        rot, trans = sample.rotations, sample.translations
        moved = [[placed(p, rot[f], trans[f]) for p in solids[k].pieces] for k, f in zip(order, faces)]
        v = [np.vstack([p.vertices for p in pieces]) for pieces in moved]
        lo, hi = np.array([x.min(axis=0) for x in v]), np.array([x.max(axis=0) for x in v])
        gap = np.maximum(0.0, np.maximum(lo[second] - hi[first], lo[first] - hi[second]))
        lbs = np.sqrt((gap[:, None, :] @ gap[:, :, None]).ravel())
        best = math.inf
        best_pair = None
        for c in np.argsort(lbs, kind="stable"):
            lb, i, j = lbs[c], first[c], second[c]
            if lb >= best:
                break
            d = min(piece_clearance(p, q) for p in moved[i] for q in moved[j])
            if d < best:
                best = d
                best_pair = (faces[i], faces[j])
        out.append((float(sample.t), best, best_pair))
    return out


def padded_clearance(both: ConvexPiece) -> np.ndarray:
    """Signed clearance between rows k and n + k of a stack of 2n placed convex pieces, all features counted."""
    n = len(both.vertices) // 2
    out = padded_separation(both, n)
    far = np.flatnonzero(~(out < 0.0))
    rows = np.concatenate([far, far + n])
    both = ConvexPiece(*(x[rows] for x in (both.vertices, both.normals, both.directions, both.edges, both.loops)))
    m = len(far)
    ends = both.vertices[np.arange(2 * m)[:, None, None], both.edges]
    edge = padded_seg_seg_dist(ends[:m, :, None, 0], ends[:m, :, None, 1], ends[m:, None, :, 0], ends[m:, None, :, 1])
    # row k's faces against the other side's corners, both ways in one call
    facing = padded_vertex_face_dist(both.vertices[np.arange(-m, m)], both)
    out[far] = np.minimum(edge.min(axis=(1, 2)), np.minimum(facing[m:], facing[:m]))
    return out


def padded_separation(both: ConvexPiece, n: int) -> np.ndarray:
    """Largest separation of rows k and n + k over both pieces' face normals and edge-direction cross products."""
    dirs, normals = both.directions, both.normals
    cross = _cross(dirs[:n, :, None], dirs[n:, None]).reshape(n, -1, 3)
    size = np.linalg.norm(cross, axis=2)
    keep = size > 1e-12
    axes = np.concatenate([normals[:n], normals[n:], cross / np.where(keep, size, 1.0)[..., None]], axis=1)
    used = np.concatenate([np.ones((n, 2 * normals.shape[1]), dtype=bool), keep], axis=1)
    proj = both.vertices.reshape(2, n, -1, 3) @ axes.swapaxes(1, 2)
    lo, hi = proj.min(axis=2), proj.max(axis=2)
    return np.max(np.maximum(lo[1] - hi[0], lo[0] - hi[1]), axis=1, where=used, initial=-math.inf)


def padded_seg_seg_dist(p1, q1, p2, q2) -> np.ndarray:
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


def padded_vertex_face_dist(points: np.ndarray, piece: ConvexPiece) -> np.ndarray:
    """Per row, the least plane distance from a point to a face of the piece it projects into."""
    corners = piece.vertices[np.arange(len(points))[:, None, None], piece.loops]
    width = corners.shape[2]
    rims = _cross(piece.normals[:, :, None], corners[:, :, (np.arange(width) + 1) % width] - corners)
    side = np.einsum("nfwk,npk->npfw", rims, points) - np.einsum("nfwk,nfwk->nfw", rims, corners)[:, None]
    inside = (side.min(axis=3) >= 0.0) | (side.max(axis=3) <= 0.0)
    plane = np.abs(points @ piece.normals.swapaxes(1, 2) - np.einsum("nfk,nfk->nf", piece.normals, corners[:, :, 0])[:, None])
    return np.min(plane, axis=(1, 2), where=inside, initial=math.inf)
