"""Reference clearance as the kit measured it before the narrow phase was
batched: one separating-axis test per pair of placed convex pieces, and a
sequential branch and bound per sample over the face pairs in ascending
order of their bounding-box gaps.

The tests require ``clearance_records`` to agree with ``records`` exactly:
the same t, the same clearance bits and the same worst pair.
"""
import math

import numpy as np

from doubleline.thicken import ConvexPiece, _adjacent_faces, _cross
from panel_reference import placed


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
