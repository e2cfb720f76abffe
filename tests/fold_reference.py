"""Reference copies of fold propagation and the watertight check as the kit
wrote them before the face tree and the stacked placement arrays: one
isometry object per face, a face walk on every fold, and one closure loop
per interior vertex.

The tests require the array-based code to agree with these exactly:
``array_equal`` on every rotation and translation, ``==`` on residuals and
gaps.
"""
import math
from collections import deque

import numpy as np

from doubleline.pattern import PatternError, vertex_star
from panel_reference import quad_plane_gap, side_quad


def rot_x(angle: float) -> np.ndarray:
    c, s = math.cos(angle), math.sin(angle)
    return np.array([[1.0, 0.0, 0.0], [0.0, c, -s], [0.0, s, c]])


def rot_z(angle: float) -> np.ndarray:
    c, s = math.cos(angle), math.sin(angle)
    return np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]])


def rotation_about_axis(axis: np.ndarray, angle: float) -> np.ndarray:
    """Rodrigues rotation matrix about a unit axis."""
    axis = np.asarray(axis, dtype=float)
    axis = axis / np.linalg.norm(axis)
    k = np.array(
        [
            [0.0, -axis[2], axis[1]],
            [axis[2], 0.0, -axis[0]],
            [-axis[1], axis[0], 0.0],
        ]
    )
    return np.eye(3) + math.sin(angle) * k + (1.0 - math.cos(angle)) * (k @ k)


class Isometry:
    """Rigid motion x -> R x + t of 3-space."""

    def __init__(self, rot=None, trans=None):
        self.rot = np.eye(3) if rot is None else np.asarray(rot, dtype=float)
        self.trans = np.zeros(3) if trans is None else np.asarray(trans, dtype=float)

    def apply(self, points):
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        out = pts @ self.rot.T + self.trans
        return out[0] if np.asarray(points).ndim == 1 else out

    def compose(self, other):
        return Isometry(self.rot @ other.rot, self.rot @ other.trans + self.trans)

    @staticmethod
    def about_line(point, axis, angle):
        point = np.asarray(point, dtype=float)
        rot = rotation_about_axis(axis, angle)
        return Isometry(rot, point - rot @ point)


def vertex_closure_residual(star, angles):
    a = np.eye(3)
    for rho, sigma in zip(angles, star.sectors):
        a = a @ rot_x(rho) @ rot_z(sigma)
    return float(np.linalg.norm(a - np.eye(3)))


def _crease_fold(pattern, crease_id, angle):
    c = pattern.creases[crease_id]
    p0 = np.array([*pattern.vertices[c.v0], 0.0])
    p1 = np.array([*pattern.vertices[c.v1], 0.0])
    axis = p1 - p0
    return Isometry.about_line(p0, axis / np.linalg.norm(axis), angle)


def propagate_fold(pattern, angles):
    """(per-face isometries, largest residual) of a fold-angle vector."""
    angles = np.asarray(angles, dtype=float)
    iso = [None] * len(pattern.faces)
    iso[0] = Isometry()
    tree = set()
    queue = deque([0])
    sides = pattern.crease_faces
    while queue:
        f = queue.popleft()
        for ci in sorted(pattern.face_creases[f]):
            lf, rf = sides[ci]
            other = rf if lf == f else lf
            if other is None or iso[other] is not None:
                continue
            angle = angles[ci] if lf == other else -angles[ci]
            iso[other] = iso[f].compose(_crease_fold(pattern, ci, angle))
            tree.add(ci)
            queue.append(other)
    if any(t is None for t in iso):
        raise PatternError("face adjacency graph is disconnected")

    vals = []
    for ci, (lf, rf) in enumerate(sides):
        if lf is None or rf is None or ci in tree:
            continue
        want_left = iso[rf].compose(_crease_fold(pattern, ci, angles[ci]))
        c = pattern.creases[ci]
        r = float(np.linalg.norm(iso[lf].rot - want_left.rot))
        for v in (c.v0, c.v1):
            p = np.array([*pattern.vertices[v], 0.0])
            r += float(np.linalg.norm(iso[lf].apply(p) - want_left.apply(p)))
        vals.append(r)
    for v in pattern.interior_vertices:
        star = vertex_star(pattern, v)
        vals.append(vertex_closure_residual(star, angles[list(star.crease_ids)]))
    return iso, max(vals) if vals else 0.0


def watertight_gap(solids):
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
            continue
        rho = math.copysign(math.pi - 2.0 * sl.bevel_angles[kl], sl.vertices[-1, 2])
        c = pattern.creases[ci]
        p0, p1 = pts[c.v0], pts[c.v1]
        axis = np.array([p1[0] - p0[0], p1[1] - p0[1], 0.0])
        axis /= np.linalg.norm(axis)
        iso = Isometry.about_line(np.array([p0[0], p0[1], 0.0]), axis, rho)
        worst = max(worst, quad_plane_gap(side_quad(sr, kr), iso.apply(side_quad(sl, kl))))
    return worst
