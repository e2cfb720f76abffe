"""3D realization of fold angles: closure residuals, sweeps, solving, export.

A folded state assigns each face a rigid isometry.  Fold angles follow the
valley-positive convention: at a crease directed v0 -> v1 with the left
face rotated relative to the right face, a positive angle lifts the left
face toward +z from the flat state.
"""
from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass, field
from functools import cached_property
from typing import Mapping, Sequence

import numpy as np

from .geometry import Isometry, rot_x, rot_z
from .kinematics import FoldMode, mode_vector
from .pattern import CreasePattern, PatternError, VertexStar, vertex_star

WELD_TOL = 1e-6
RESIDUAL_TOL = 1e-9


class Fold3dError(ValueError):
    """Raised when a fold-angle vector or mode assignment is unrealizable."""


class SolveError(Fold3dError):
    """Raised when the numerical solver fails to converge."""


def vertex_closure_residual(star: VertexStar, angles: Sequence[float]) -> float:
    """Frobenius distance from identity of the loop of rotations around a vertex.

    Composes, crease by crease, the dihedral rotation by the fold angle and
    the in-plane rotation by the following sector angle.  Zero iff the faces
    around the vertex close up rigidly in 3-space.
    """
    if not star.interior:
        raise PatternError("closure residual requires an interior vertex")
    if len(angles) != star.degree:
        raise PatternError("need one fold angle per crease of the star")
    a = np.eye(3)
    for rho, sigma in zip(angles, star.sectors):
        a = a @ rot_x(rho) @ rot_z(sigma)
    return float(np.linalg.norm(a - np.eye(3)))


def _crease_fold(pattern: CreasePattern, crease_id: int, angle: float) -> Isometry:
    """Rotation about the (unfolded) crease line by a signed fold angle."""
    c = pattern.creases[crease_id]
    p0 = np.array([*pattern.vertices[c.v0], 0.0])
    p1 = np.array([*pattern.vertices[c.v1], 0.0])
    axis = p1 - p0
    return Isometry.about_line(p0, axis / np.linalg.norm(axis), angle)


@dataclass(frozen=True)
class FoldedState:
    """Per-face isometries realizing one fold-angle vector."""

    pattern: CreasePattern
    isometries: tuple[Isometry, ...]
    fold_angles: tuple[float, ...]
    crease_residuals: tuple[tuple[int, float], ...]  # non-tree creases
    vertex_residuals: tuple[tuple[int, float], ...]  # interior vertices

    @cached_property
    def max_residual(self) -> float:
        vals = [r for _, r in self.crease_residuals] + [r for _, r in self.vertex_residuals]
        return max(vals) if vals else 0.0

    @property
    def valid(self) -> bool:
        return self.max_residual < RESIDUAL_TOL

    def face_points(self, face_id: int) -> np.ndarray:
        cycle = self.pattern.faces[face_id]
        flat = np.hstack(
            [self.pattern.vertices_array[list(cycle)], np.zeros((len(cycle), 1))]
        )
        return self.isometries[face_id].apply(flat)

    def face_normal(self, face_id: int) -> np.ndarray:
        return self.isometries[face_id].rot @ np.array([0.0, 0.0, 1.0])

    def measured_fold_angle(self, crease_id: int) -> float:
        """Signed dihedral read back from the face isometries (valley positive)."""
        c = self.pattern.creases[crease_id]
        left, right = self.pattern.crease_faces[crease_id]
        if left is None or right is None:
            raise Fold3dError(f"crease {crease_id} does not separate two faces")
        tl = self.isometries[left]
        p0 = tl.apply(np.array([*self.pattern.vertices[c.v0], 0.0]))
        p1 = tl.apply(np.array([*self.pattern.vertices[c.v1], 0.0]))
        d = p1 - p0
        d /= np.linalg.norm(d)
        nl = self.face_normal(left)
        nr = self.face_normal(right)
        return math.atan2(float(np.dot(np.cross(nr, nl), d)), float(np.clip(np.dot(nr, nl), -1, 1)))


def propagate_fold(pattern: CreasePattern, angles: Sequence[float]) -> FoldedState:
    """Realize a fold-angle vector by walking a spanning tree of the faces.

    The lowest-id face stays at the identity.  Residuals are recorded for
    every crease outside the spanning tree (isometry mismatch across it) and
    every interior vertex (rotation-loop closure); all of them vanish iff the
    vector lies in the configuration space.
    """
    angles = np.asarray(angles, dtype=float)
    if angles.shape != (len(pattern.creases),):
        raise PatternError("need one fold angle per crease")
    if not pattern.faces:
        raise PatternError("pattern has no faces to fold")

    iso: list[Isometry | None] = [None] * len(pattern.faces)
    iso[0] = Isometry()
    tree: set[int] = set()
    queue = deque([0])
    sides = pattern.crease_faces
    while queue:
        f = queue.popleft()
        for ci in sorted(pattern.face_creases[f]):
            lf, rf = sides[ci]
            other = rf if lf == f else lf
            if other is None or iso[other] is not None:
                continue
            # crossing right -> left applies the fold, left -> right undoes it
            angle = angles[ci] if lf == other else -angles[ci]
            iso[other] = iso[f].compose(_crease_fold(pattern, ci, angle))
            tree.add(ci)
            queue.append(other)
    if any(t is None for t in iso):
        raise PatternError("face adjacency graph is disconnected")

    crease_res = []
    for ci, (lf, rf) in enumerate(sides):
        if lf is None or rf is None or ci in tree:
            continue
        want_left = iso[rf].compose(_crease_fold(pattern, ci, angles[ci]))
        c = pattern.creases[ci]
        r = float(np.linalg.norm(iso[lf].rot - want_left.rot))
        for v in (c.v0, c.v1):
            p = np.array([*pattern.vertices[v], 0.0])
            r += float(np.linalg.norm(iso[lf].apply(p) - want_left.apply(p)))
        crease_res.append((ci, r))

    vertex_res = []
    for v in pattern.interior_vertices:
        star = vertex_star(pattern, v)
        local = angles[list(star.crease_ids)]
        vertex_res.append((v, vertex_closure_residual(star, local)))

    return FoldedState(
        pattern=pattern,
        isometries=tuple(iso),
        fold_angles=tuple(float(a) for a in angles),
        crease_residuals=tuple(crease_res),
        vertex_residuals=tuple(vertex_res),
    )


def network_multipliers(
    pattern: CreasePattern, modes: Mapping[int, FoldMode], tol: float = 1e-9
) -> np.ndarray:
    """Per-crease multipliers g with tan(rho_c/2) = g_c * t for a mode assignment.

    Each interior vertex contributes the linear constraints g_{c_i} = m_i * s_v
    (its mode vector up to a vertex scale).  The assignment admits a motion
    iff the stacked homogeneous system has a one-dimensional null space; the
    result is scaled so the largest |g| equals 1.  Its sign makes the
    pattern's valleys fold positive (the convention assign_mode_mv writes);
    without M/V labels the first entry of largest |g| is +1.
    """
    interior_v = pattern.interior_vertices
    if not interior_v:
        raise Fold3dError("pattern has no interior vertices")
    missing = [v for v in interior_v if v not in modes]
    if missing:
        raise Fold3dError(f"no mode assigned to interior vertices {missing}")

    g_index = {ci: k for k, ci in enumerate(pattern.interior_creases)}
    n_g = len(g_index)
    covered = set()
    rows = []
    for k_v, v in enumerate(interior_v):
        star = vertex_star(pattern, v)
        mv = mode_vector(star, modes[v])
        for i, ci in enumerate(star.crease_ids):
            row = np.zeros(n_g + len(interior_v))
            row[g_index[ci]] = 1.0
            row[n_g + k_v] = -mv[i]
            rows.append(row)
            covered.add(ci)
    uncovered = sorted(set(g_index) - covered)
    if uncovered:
        raise Fold3dError(f"creases {uncovered} touch no interior vertex; motion undetermined")

    a = np.array(rows)
    _, s, vt = np.linalg.svd(a)
    null = [vt[i] for i in range(len(vt)) if i >= len(s) or s[i] <= tol * s[0]]
    if not null:
        raise Fold3dError(
            "mode assignment admits no motion (smallest singular value "
            f"{s[min(len(s), a.shape[1]) - 1]:.3e})"
        )
    if len(null) > 1:
        raise Fold3dError("mode assignment is degenerate (multiple independent motions)")
    x = null[0]
    g = x[:n_g]
    k = int(np.argmax(np.abs(g)))
    if abs(g[k]) < tol:
        raise Fold3dError("mode assignment freezes every crease")
    x = x / g[k]
    # many entries tie at |g| = 1, so argmax alone leaves the sign to rounding
    valley = [{"V": 1.0, "M": -1.0}.get(pattern.creases[ci].assignment, 0.0) for ci in g_index]
    if np.dot(valley, x[:n_g]) < 0.0:
        x = -x
    out = np.zeros(len(pattern.creases))
    for ci, k_c in g_index.items():
        out[ci] = x[k_c]
    return out


@dataclass(frozen=True)
class MotionSample:
    """One point of a rigid folding motion in the t parameterization.

    ``isometries`` place each face as the fold that measured the residual
    did, so later stages need not fold the sample again.
    """

    t: float
    fold_angles: np.ndarray
    residual: float
    valid: bool
    isometries: tuple[Isometry, ...] = field(repr=False)


def sweep_motion(
    pattern: CreasePattern,
    modes: Mapping[int, FoldMode] | None,
    t_grid: Sequence[float],
    residual_tol: float = RESIDUAL_TOL,
    multipliers: np.ndarray | None = None,
) -> tuple[MotionSample, ...]:
    """Sample the motion tan(rho_c/2) = g_c * t over a grid of t values."""
    g = network_multipliers(pattern, modes) if multipliers is None else np.asarray(multipliers, dtype=float)
    if len(g) != len(pattern.creases):
        raise Fold3dError("multiplier vector length must match crease count")
    samples = []
    for t in t_grid:
        angles = 2.0 * np.arctan(g * float(t))
        state = propagate_fold(pattern, angles)
        res = state.max_residual
        angles.setflags(write=False)
        samples.append(MotionSample(float(t), angles, res, res < residual_tol, state.isometries))
    return tuple(samples)


def _closure_defects(stars: Sequence[VertexStar], angles: np.ndarray) -> np.ndarray:
    parts = []
    eye = np.eye(3)
    for star in stars:
        a = eye
        for ci, sigma in zip(star.crease_ids, star.sectors):
            a = a @ rot_x(angles[ci]) @ rot_z(sigma)
        parts.append((a - eye).ravel())
    return np.concatenate(parts)


def solve_fold_angles(
    pattern: CreasePattern,
    driver_crease: int,
    target_angle: float,
    initial_guess: Sequence[float] | None = None,
    max_iter: int = 50,
    tol: float = 1e-10,
) -> np.ndarray:
    """Numerically fold a pattern by pinning one crease angle.

    Newton iteration (least squares on the stacked per-vertex closure
    defects) over all interior crease angles except the pinned driver.
    Without an initial guess, continuation walks the driver from nearly
    flat to the target in small steps.  Raises SolveError on
    non-convergence or a singular Jacobian.
    """
    if not 0 <= driver_crease < len(pattern.creases):
        raise Fold3dError(f"driver crease {driver_crease} is not among the {len(pattern.creases)} creases")
    if pattern.creases[driver_crease].assignment == "B":
        raise Fold3dError("driver crease must be interior")
    stars = [vertex_star(pattern, v) for v in pattern.interior_vertices]
    if not stars:
        raise Fold3dError("pattern has no interior vertices to constrain")
    free = [ci for ci in pattern.interior_creases if ci != driver_crease]

    def newton(x0: np.ndarray, driver: float) -> np.ndarray:
        x = x0.copy()
        x[driver_crease] = driver
        h = 1e-7
        for _ in range(max_iter):
            r = _closure_defects(stars, x)
            if float(np.max(np.abs(r))) < tol:
                return x
            jac = np.empty((len(r), len(free)))
            for j, ci in enumerate(free):
                x[ci] += h
                jac[:, j] = (_closure_defects(stars, x) - r) / h
                x[ci] -= h
            delta, _, rank, sv = np.linalg.lstsq(jac, -r, rcond=None)
            if rank < len(free):
                raise SolveError(
                    f"singular Jacobian at driver {driver:.6f} rad "
                    f"(condition number {sv[0] / max(sv[-1], 1e-300):.3e})"
                )
            step = float(np.max(np.abs(delta)))
            if step > 1.0:  # keep Newton in the basin
                delta *= 1.0 / step
            for j, ci in enumerate(free):
                x[ci] += delta[j]
        r = _closure_defects(stars, x)
        raise SolveError(
            f"no convergence after {max_iter} iterations at driver {driver:.6f} rad "
            f"(residual {float(np.max(np.abs(r))):.3e})"
        )

    if initial_guess is not None:
        x0 = np.asarray(initial_guess, dtype=float).copy()
        if x0.shape != (len(pattern.creases),):
            raise PatternError("initial guess must cover every crease")
        return newton(x0, target_angle)

    x = np.zeros(len(pattern.creases))
    if abs(target_angle) < 1e-12:
        return x
    step = 0.05
    n_steps = max(1, int(math.ceil(abs(target_angle) / step)))
    for k in range(1, n_steps + 1):
        driver = target_angle * k / n_steps
        x = newton(x, driver)
    return x


def export_obj(state: FoldedState) -> str:
    """Wavefront OBJ of the folded faces, triangulated by fans.

    Vertices shared between faces are welded to the image under their
    lowest-id incident face; a valid state keeps every face's own image of
    the vertex within the weld tolerance of that position.
    """
    owner: dict[int, int] = {}
    for fi, f in enumerate(state.pattern.faces):
        for v in f:
            owner.setdefault(v, fi)
    pos = {}
    for v, fi in owner.items():
        p = np.array([*state.pattern.vertices[v], 0.0])
        pos[v] = state.isometries[fi].apply(p)

    index = {}
    lines = ["# doubleline folded state"]
    for v in sorted(pos):
        index[v] = len(index) + 1
        x, y, z = pos[v]
        lines.append(f"v {x:.9f} {y:.9f} {z:.9f}")
    for f in state.pattern.faces:
        for k in range(1, len(f) - 1):
            lines.append(f"f {index[f[0]]} {index[f[k]]} {index[f[k + 1]]}")
    return "\n".join(lines) + "\n"
