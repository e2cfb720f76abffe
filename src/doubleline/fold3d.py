"""3D realization of fold angles: closure residuals, sweeps, solving, export.

A folded state places each face by a rotation and a translation, stacked
into one array each; a sweep folds all its samples in one pass and stacks
their arrays along a leading sample axis.  Fold angles follow the
valley-positive convention: at a crease directed v0 -> v1 with the left
face rotated relative to the right face, a positive angle lifts the left
face toward +z from the flat state.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Mapping, NamedTuple, Sequence

import numpy as np

from .geometry import triangulate
from .kinematics import FoldMode, KinematicsError, crease_motion
from .pattern import CreasePattern, PatternError, VertexStar, per_pattern

RESIDUAL_TOL = 1e-9
NEWTON_MAX_ITER = 50
# condition number of a solved Newton Jacobian above which the driver leaves
# a second motion free: the forward differences put that motion's singular
# value near their step (condition about 2.5e7 on Miura 3x3 and 4x4), and
# single-motion states measured below 300
ONE_MOTION_COND = 1e5


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
    if len(angles) != star.degree:
        raise PatternError("need one fold angle per crease of the star")
    x = np.zeros((1, max(star.crease_ids) + 1))
    x[0, list(star.crease_ids)] = angles
    return float(_norms(_closure_defects((star,), x))[0, 0])


def crease_rotations(pattern: CreasePattern, crease_ids: np.ndarray, angles: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Rotations x -> R x + t by signed angles about the flat crease lines, as stacks of R and t.

    Angles (..., n) for n crease ids give (..., n, 3, 3) and (..., n, 3).
    """
    pts = pattern.vertices_array
    ends = np.array([(pattern.creases[ci].v0, pattern.creases[ci].v1) for ci in crease_ids], dtype=int).reshape(-1, 2)
    p0 = np.column_stack([pts[ends[:, 0]], np.zeros(len(ends))])
    axis = np.column_stack([pts[ends[:, 1]], np.zeros(len(ends))]) - p0
    for _ in range(2):  # unit twice over: the second pass still moves some axes by an ulp
        axis = axis / np.sqrt(axis[:, None, :] @ axis[:, :, None])[:, 0]
    x, y, z = axis.T
    o = np.zeros(len(axis))
    k = np.stack([np.stack([o, -z, y], -1), np.stack([z, o, -x], -1), np.stack([-y, x, o], -1)], 1)
    s, c = np.sin(angles)[..., None, None], np.cos(angles)[..., None, None]
    rot = np.eye(3) + s * k + (1.0 - c) * (k @ k)
    return rot, p0 - (rot @ p0[:, :, None])[..., 0]


@dataclass(frozen=True, eq=False)
class FoldedState:
    """One fold-angle vector realized: face f maps a flat point x to rotations[f] @ x + translations[f].

    ``residual`` is the largest defect over the creases off the face tree
    (placement mismatch across the crease) and the interior vertices
    (rotation-loop closure); it vanishes iff the angles lie in the
    configuration space.  The arrays are read-only.
    """

    pattern: CreasePattern
    rotations: np.ndarray = field(repr=False)
    translations: np.ndarray = field(repr=False)
    fold_angles: np.ndarray
    residual: float

    @property
    def valid(self) -> bool:
        return self.residual < RESIDUAL_TOL

    def face_points(self, face_id: int) -> np.ndarray:
        cycle = self.pattern.faces[face_id]
        flat = np.hstack(
            [self.pattern.vertices_array[list(cycle)], np.zeros((len(cycle), 1))]
        )
        return flat @ self.rotations[face_id].T + self.translations[face_id]

    def measured_fold_angle(self, crease_id: int) -> float:
        """Signed dihedral read back from the face placements (valley positive)."""
        c = self.pattern.creases[crease_id]
        left, right = self.pattern.crease_faces[crease_id]
        if left is None or right is None:
            raise Fold3dError(f"crease {crease_id} does not separate two faces")
        pts = self.pattern.vertices_array
        d = self.rotations[left][:, :2] @ (pts[c.v1] - pts[c.v0])
        d /= np.linalg.norm(d)
        nl, nr = self.rotations[left][:, 2], self.rotations[right][:, 2]
        return math.atan2(float(np.dot(np.cross(nr, nl), d)), float(np.clip(np.dot(nr, nl), -1, 1)))


def propagate_fold(pattern: CreasePattern, angles: Sequence[float]) -> FoldedState:
    """Realize a fold-angle vector by walking the pattern's face tree.

    Face 0 stays at the identity.  The residual covers every crease off the
    tree and every interior vertex; it vanishes iff the vector lies in the
    configuration space.
    """
    angles = np.array(angles, dtype=float)
    if angles.shape != (len(pattern.creases),):
        raise PatternError("need one fold angle per crease")
    rot, trans, residual = _fold_stack(pattern, angles[None])
    angles.setflags(write=False)
    return FoldedState(pattern, rot[0], trans[0], angles, float(residual[0]))


def _fold_stack(pattern: CreasePattern, angles: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Fold S angle vectors (S, C) in one pass over the face tree.

    Returns read-only (S, F, 3, 3) rotations, (S, F, 3) translations and S
    residuals.  The faces of one tree level are placed together, each from
    its parent's placement; every sample gets the same arithmetic it would
    get alone.
    """
    tree = pattern.face_tree
    n_s, n_f = len(angles), len(pattern.faces)
    rot = np.empty((n_s, n_f, 3, 3))
    trans = np.empty((n_s, n_f, 3))
    rot[:, 0], trans[:, 0] = np.eye(3), 0.0
    if tree.rows:
        face, parent, ci, left = (np.array(col) for col in zip(*tree.rows))
        # crossing right -> left applies the fold, left -> right undoes it
        r, t = crease_rotations(pattern, ci, np.where(left, angles[:, ci], -angles[:, ci]))
        depth = np.zeros(n_f, dtype=int)
        for f, p in zip(face, parent):
            depth[f] = depth[p] + 1
        level = depth[face]
        for d in range(1, int(level.max()) + 1):
            k = np.flatnonzero(level == d)
            up = rot[:, parent[k]]
            rot[:, face[k]] = up @ r[:, k]
            trans[:, face[k]] = (up @ t[:, k, :, None])[..., 0] + trans[:, parent[k]]

    residuals = [_norms(_closure_defects(_interior_star_table(pattern), angles))]
    off = np.array(tree.off_tree, dtype=int)
    if len(off):
        lf, rf = np.array([pattern.crease_faces[c] for c in off]).T
        r, t = crease_rotations(pattern, off, angles[:, off])
        want_rot = rot[:, rf] @ r
        want_trans = (rot[:, rf] @ t[..., None])[..., 0] + trans[:, rf]
        res = _norms((rot[:, lf] - want_rot).reshape(n_s, len(off), 9))
        for ends in np.array([(pattern.creases[c].v0, pattern.creases[c].v1) for c in off]).T:
            p = np.column_stack([pattern.vertices_array[ends], np.zeros(len(off))])[:, None]
            # each end as a (1, 3) row, placed from both sides of the crease
            have = p @ rot[:, lf].swapaxes(-1, -2) + trans[:, lf, None]
            res = res + _norms((have - (p @ want_rot.swapaxes(-1, -2) + want_trans[:, :, None]))[:, :, 0])
        residuals.append(res)
    residual = np.concatenate(residuals, axis=1).max(axis=1, initial=0.0)

    for a in (rot, trans, residual):
        a.setflags(write=False)
    return rot, trans, residual


def _norms(x: np.ndarray) -> np.ndarray:
    """Euclidean norms along the last axis, each the dot product np.linalg.norm takes of one vector."""
    return np.sqrt((x[..., None, :] @ x[..., :, None])[..., 0, 0])


class _StarTable(NamedTuple):
    """Stars grouped by degree: per degree, the stars' positions, their crease
    ids (k, degree) and the in-plane rotations by their sectors (k, degree, 3, 3)."""

    size: int
    groups: tuple[tuple[np.ndarray, np.ndarray, np.ndarray], ...]


def _star_table(stars: Sequence[VertexStar]) -> _StarTable:
    by_degree: dict[int, list[int]] = {}
    for k, star in enumerate(stars):
        by_degree.setdefault(star.degree, []).append(k)
    return _StarTable(len(stars), tuple(
        (np.array(ks), np.array([stars[k].crease_ids for k in ks]), _plane_rotations(np.array([stars[k].sectors for k in ks]), 0, 1))
        for ks in by_degree.values()
    ))


@per_pattern
def _interior_star_table(pattern: CreasePattern) -> _StarTable:
    """The table of the pattern's interior stars, built once per pattern; its arrays are read-only."""
    table = _star_table(pattern.interior_stars)
    for group in table.groups:
        for a in group:
            a.setflags(write=False)
    return table


def _closure_defects(stars: Sequence[VertexStar] | _StarTable, angles: np.ndarray) -> np.ndarray:
    """(S, V, 9) rotation loop minus identity of each star, for S angle vectors (S, C) indexed by crease id.

    Composes, crease by crease, the dihedral rotation by the fold angle and
    the in-plane rotation by the following sector angle; the stars of one
    degree are composed together.  Callers pass a table built once: a
    pattern's kept one, or the solver's own for one solve.
    """
    table = stars if isinstance(stars, _StarTable) else _star_table(stars)
    out = np.empty((len(angles), table.size, 9))
    for ks, creases, rz in table.groups:
        rx = _plane_rotations(angles[:, creases], 1, 2)
        a = rx[:, :, 0] @ rz[:, 0]
        for j in range(1, creases.shape[1]):
            a = a @ rx[:, :, j] @ rz[:, j]
        out[:, ks] = (a - np.eye(3)).reshape(len(angles), len(ks), 9)
    return out


def _plane_rotations(angles: np.ndarray, i: int, j: int) -> np.ndarray:
    """Stacked rotations by angles in the plane of axes i and j: rot_x for (1, 2), rot_z for (0, 1)."""
    c, s = np.cos(angles), np.sin(angles)
    out = np.zeros(angles.shape + (3, 3))
    out[..., 3 - i - j, 3 - i - j] = 1.0
    out[..., i, i], out[..., i, j], out[..., j, i], out[..., j, j] = c, -s, s, c
    return out


def network_multipliers(pattern: CreasePattern, modes: Mapping[int, FoldMode]) -> np.ndarray:
    """Per-crease multipliers g with tan(rho_c/2) = g_c * t for a mode assignment.

    The motion is kinematics.crease_motion's, its refusals Fold3dError, scaled
    so the largest |g| equals 1.  Its sign makes the pattern's valleys fold
    positive (the convention assign_mode_mv writes); without M/V labels the
    lowest-id crease within 1e-9 of the largest |g| folds positive.
    """
    if not pattern.interior_vertices:
        raise Fold3dError("pattern has no interior vertices")
    missing = [v for v in pattern.interior_vertices if v not in modes]
    if missing:
        raise Fold3dError(f"no mode assigned to interior vertices {missing}")
    covered = {ci for star in pattern.interior_stars for ci in star.crease_ids}
    uncovered = sorted(set(pattern.interior_creases) - covered)
    if uncovered:
        raise Fold3dError(f"creases {uncovered} touch no interior vertex; motion undetermined")
    try:
        g = np.array(crease_motion(pattern, modes))
    except KinematicsError as exc:
        raise Fold3dError(str(exc)) from None
    g /= np.max(np.abs(g))
    valley = [{"V": 1.0, "M": -1.0}.get(c.assignment, 0.0) for c in pattern.creases]
    lead = g[np.flatnonzero(np.abs(g) >= 1.0 - 1e-9)[0]]
    return g * (np.sign(np.dot(valley, g)) or np.sign(lead)) + 0.0  # + 0.0: no -0.0 on a crease that stays flat


@dataclass(frozen=True, eq=False)
class MotionSample(FoldedState):
    """The folded state at one point t of a rigid folding motion tan(rho_c/2) = g_c * t."""

    t: float


def sweep_motion(
    pattern: CreasePattern,
    modes: Mapping[int, FoldMode] | None,
    t_grid: Sequence[float],
    multipliers: np.ndarray | None = None,
) -> tuple[MotionSample, ...]:
    """Sample the motion tan(rho_c/2) = g_c * t over a grid of t values.

    The samples are folded together; each one's arrays are read-only views
    into the (S, ...) stacks of the whole grid.  Either a mode assignment or
    the multipliers must be given.
    """
    if modes is None and multipliers is None:
        raise Fold3dError("sweep_motion needs modes (infer_modes(pattern) gives them) or multipliers")
    g = network_multipliers(pattern, modes) if multipliers is None else np.asarray(multipliers, dtype=float)
    if len(g) != len(pattern.creases):
        raise Fold3dError("multiplier vector length must match crease count")
    ts = np.array(t_grid, dtype=float).reshape(-1)
    angles = 2.0 * np.arctan(ts[:, None] * g)
    rot, trans, residual = _fold_stack(pattern, angles)
    angles.setflags(write=False)
    return tuple(
        MotionSample(pattern, rot[k], trans[k], angles[k], float(residual[k]), float(t)) for k, t in enumerate(ts)
    )


def require_closing(motion: Sequence[MotionSample]) -> None:
    """Raise Fold3dError naming the first sample whose residual reaches RESIDUAL_TOL."""
    bad = next((s for s in motion if not s.valid), None)
    if bad is not None:
        raise Fold3dError(f"motion sample t={bad.t:.12g} does not close: residual {bad.residual:.3e} >= {RESIDUAL_TOL:g}")


def solve_fold_angles(
    pattern: CreasePattern,
    driver_crease: int,
    target_angle: float,
    initial_guess: Sequence[float] | None = None,
    tol: float = 1e-10,
) -> np.ndarray:
    """Numerically fold a pattern by pinning one crease angle.

    Newton iteration (least squares on the stacked per-vertex closure
    defects) over all interior crease angles except the pinned driver.
    Without an initial guess, the solve cold-starts from flat along the
    continuation's drivers, target * k / n with n = ceil(|target| / 0.05).
    The first step, a Newton solve at the first driver, picks the branch.
    Its tan-half ratios u = tan(x/2) / tan(driver/2) seed the target, since
    a flat-foldable degree-4 network folds along tan(rho_c/2) = g_c * t
    (Tachi 2009), and Newton polishes the seed there.  The tan-half path
    through the polished state is then checked at every driver in one
    stacked closure call: each sample must close (residual below
    RESIDUAL_TOL), the first must lie within RESIDUAL_TOL of the first
    step, and the Jacobian at the target must leave the driver no second
    motion (condition below ONE_MOTION_COND).  When the polish fails or a
    check does, the solve walks on from the first step, one Newton solve
    per remaining driver, and refuses a last state that fails the
    one-motion test.  A target within one step is the first step: near
    flat, one-motion Jacobians are ill conditioned too.

    Each iteration takes its forward-difference Jacobian from one stacked
    closure call: the free creases are coloured once so that no star holds
    two of one colour, and one probe per colour gives every column of that
    colour (Curtis, Powell and Reid, 1974).  The solved angles are bit for
    bit those of one probe per crease.  Raises SolveError on
    non-convergence, a singular Jacobian or a cold-started state the driver
    leaves a second motion, Fold3dError for a target outside [−π, π].
    """
    if not abs(target_angle) <= math.pi:
        raise Fold3dError(f"target angle {target_angle:.6g} rad lies outside [-pi, pi]")
    if not 0 <= driver_crease < len(pattern.creases):
        raise Fold3dError(f"driver crease {driver_crease} is not among the {len(pattern.creases)} creases")
    if pattern.creases[driver_crease].assignment == "B":
        raise Fold3dError("driver crease must be interior")
    stars = pattern.interior_stars
    if not stars:
        raise Fold3dError("pattern has no interior vertices to constrain")
    free = np.array([ci for ci in pattern.interior_creases if ci != driver_crease], dtype=int)
    # built per solve, not kept on the pattern: a pattern solved but never swept holds no table
    colouring, table = _crease_colouring(stars, free), _star_table(stars)

    def newton(x0: np.ndarray, driver: float) -> tuple[np.ndarray, np.ndarray]:
        """The solved angles at the driver and the Jacobian at them."""
        x = x0.copy()
        x[driver_crease] = driver
        h = 1e-7
        for _ in range(NEWTON_MAX_ITER):
            r, jac = _defects_and_jacobian(table, free, colouring, x, h)
            if float(np.abs(r).max()) < tol:
                return x, jac
            # the stacked probes leave x untouched, where perturbing one crease
            # at a time and taking h back off leaves (x + h) - h, which can
            # differ from x by an ulp when |x| < h; this line keeps the solved
            # angles bit for bit those of the per-crease probes
            x[free] = (x[free] + h) - h
            delta, _, rank, sv = np.linalg.lstsq(jac, -r, rcond=None)
            if rank < len(free):
                raise SolveError(
                    f"singular Jacobian at driver {driver:.6f} rad "
                    f"(condition number {sv[0] / max(sv[-1], 1e-300):.3e})"
                )
            step = float(np.abs(delta).max())
            if step > 1.0:  # keep Newton in the basin
                delta *= 1.0 / step
            x[free] += delta
        r = _closure_defects(table, x[None]).ravel()
        raise SolveError(
            f"no convergence after {NEWTON_MAX_ITER} iterations at driver {driver:.6f} rad "
            f"(residual {float(np.max(np.abs(r))):.3e})"
        )

    if initial_guess is not None:
        x0 = np.asarray(initial_guess, dtype=float).copy()
        if x0.shape != (len(pattern.creases),):
            raise PatternError("initial guess must cover every crease")
        return newton(x0, target_angle)[0]

    x = np.zeros(len(pattern.creases))
    if abs(target_angle) < 1e-12:
        return x
    n_steps = max(1, int(math.ceil(abs(target_angle) / 0.05)))
    drivers = target_angle * np.arange(1, n_steps + 1) / n_steps
    x = first = newton(x, drivers[0])[0]
    if n_steps == 1:
        return x
    try:
        u = np.tan(first / 2.0) / math.tan(drivers[0] / 2.0)
        end, jac = newton(2.0 * np.arctan(u * math.tan(target_angle / 2.0)), target_angle)
    except SolveError:
        pass
    else:
        u = np.tan(end / 2.0) / math.tan(target_angle / 2.0)
        path = 2.0 * np.arctan(u * np.tan(drivers[:, None] / 2.0))
        if (_norms(_closure_defects(table, path)).max() < RESIDUAL_TOL
                and np.max(np.abs(path[0] - first)) < RESIDUAL_TOL
                and np.linalg.cond(jac) < ONE_MOTION_COND):
            return end
    for driver in drivers[1:]:
        x, jac = newton(x, driver)
    cond = np.linalg.cond(jac)
    if not cond < ONE_MOTION_COND:
        raise SolveError(f"the driver leaves a second motion free (condition number {cond:.3e} >= {ONE_MOTION_COND:g})")
    return x


def _crease_colouring(stars: Sequence[VertexStar], free: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Greedy colours of the free creases, and where their Jacobian blocks sit.

    No star holds two free creases of one colour, so one probe per colour
    moves each star's loop through at most one crease.  Returns the colour
    of each free crease, and for each (star, free crease it holds) pair the
    star index and the crease's column.
    """
    column = {int(ci): j for j, ci in enumerate(free)}
    held = [[column[ci] for ci in star.crease_ids if ci in column] for star in stars]
    neighbours: list[set[int]] = [set() for _ in free]
    for js in held:
        for j in js:
            neighbours[j].update(js)
    colour = np.full(len(free), -1)
    for j, near in enumerate(neighbours):
        taken = {colour[k] for k in near}
        colour[j] = next(c for c in range(len(free)) if c not in taken)
    pairs = np.array([(k, j) for k, js in enumerate(held) for j in js], dtype=int).reshape(-1, 2)
    return colour, pairs[:, 0], pairs[:, 1]


def _defects_and_jacobian(
    stars: Sequence[VertexStar] | _StarTable, free: np.ndarray, colouring: tuple[np.ndarray, np.ndarray, np.ndarray],
    x: np.ndarray, h: float,
) -> tuple[np.ndarray, np.ndarray]:
    """Closure defects at x and their forward-difference Jacobian over the free creases, from one stacked call.

    Row 0 of the stack is x; row 1 + k adds h to every free crease of colour
    k.  Each star's 9 rows of a crease's column are that star's difference
    quotient in the crease's colour; a star that does not hold the crease
    gives exact zeros, the (r - r) / h of a probe of that crease alone.
    """
    colour, star, column = colouring
    probes = np.repeat(x[None], 2 + int(colour.max(initial=-1)), axis=0)
    probes[1 + colour, free] += h
    d = _closure_defects(stars, probes)
    jac = np.zeros((d.shape[1], 9, len(free)))
    jac[star, :, column] = ((d[1:] - d[0]) / h)[colour[column], star]
    return d[0].ravel(), jac.reshape(-1, len(free))


def export_obj(state: FoldedState) -> str:
    """Wavefront OBJ of the folded faces, each triangulated in the flat pattern by ear clipping.

    Every simple face is meshed, and its triangles turn counterclockwise in
    the flat pattern; a face with no ear to clip raises Fold3dError.  A
    vertex shared between faces is written once, at its image under its
    lowest-id incident face.
    """
    owner: dict[int, int] = {}
    for fi, f in enumerate(state.pattern.faces):
        for v in f:
            owner.setdefault(v, fi)
    pos = {}
    for v, fi in owner.items():
        p = np.atleast_2d([*state.pattern.vertices[v], 0.0])
        pos[v] = (p @ state.rotations[fi].T + state.translations[fi])[0]

    index = {}
    lines = ["# doubleline folded state"]
    for v in sorted(pos):
        index[v] = len(index) + 1
        x, y, z = pos[v]
        lines.append(f"v {x:.9f} {y:.9f} {z:.9f}")
    flat = state.pattern.vertices_array
    for fi, f in enumerate(state.pattern.faces):
        try:
            tris = triangulate(flat[list(f)])
        except ValueError as err:
            raise Fold3dError(f"face {fi}: {err}") from None
        lines.extend(f"f {index[f[i0]]} {index[f[i1]]} {index[f[i2]]}" for i0, i1, i2 in tris)
    return "\n".join(lines) + "\n"
