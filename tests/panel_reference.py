"""Reference panel code as the kit wrote it before pieces, stacks and bevel
seals were built as whole arrays: one prismatoid per convex piece, one
placement per piece, one padded copy per piece in a stack, and one plane
test per beveled crease.

The tests require the stacked code to agree with these bit for bit: the
same bytes in every array and the same gap.
"""
import math

import numpy as np

from doubleline.fold3d import crease_rotations
from doubleline.thicken import ConvexPiece


def convex_piece(base: np.ndarray, top: np.ndarray, rates: np.ndarray, z_top: float) -> ConvexPiece:
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


def placed(piece: ConvexPiece, rot: np.ndarray, trans: np.ndarray) -> ConvexPiece:
    """The piece moved by x -> rot @ x + trans; stacked pieces take stacked (..., 3, 3) and (..., 3) motions."""
    rt = np.swapaxes(rot, -1, -2)
    return ConvexPiece(piece.vertices @ rt + trans[..., None, :], piece.normals @ rt, piece.directions @ rt,
                       piece.edges, piece.loops)


def stack(pieces) -> ConvexPiece:
    """Convex pieces stacked along a new first axis, each padded to the most corners among them."""
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


def side_quad(s, k: int) -> np.ndarray:
    """The bevel quad on side k of a panel, in the flat pattern's frame."""
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


def quad_plane_gap(qa: np.ndarray, qb: np.ndarray) -> float:
    """The larger of the two quads' corner distances to the other's plane."""
    def gap(plane_pts, probe_pts) -> float:
        n = np.cross(plane_pts[1] - plane_pts[0], plane_pts[3] - plane_pts[0])
        nn = np.linalg.norm(n)
        if nn < 1e-30:
            return math.inf
        n = n / nn
        return float(np.max(np.abs((probe_pts - plane_pts[0]) @ n)))

    return max(gap(qa, qb), gap(qb, qa))


def crease_seals(solids) -> list[float]:
    """Per beveled crease, in crease order, the seal gap as watertight_gap takes it, one crease at a time."""
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
            continue
        creases.append(ci)
        angles.append(math.copysign(math.pi - 2.0 * sl.bevel_angles[kl], sl.vertices[-1, 2]))
        quads.append((side_quad(sr, kr), side_quad(sl, kl)))
    rot, trans = crease_rotations(pattern, np.array(creases, dtype=int), np.array(angles))
    return [quad_plane_gap(qr, ql @ r.T + t) for (qr, ql), r, t in zip(quads, rot, trans)]


def watertight_gap(solids) -> float:
    """Largest seal gap over the beveled creases, 0.0 when there are none."""
    return max([0.0] + crease_seals(solids))
