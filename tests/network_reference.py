"""Reference copies of the motion solves as the kit wrote them before one
propagation of mode-vector scales served both.

``network_multipliers`` stacks every interior vertex's constraints
g_c = m_i * s_v into one homogeneous system and takes its null space by SVD.
``_placed`` is ``dl._placed`` as it was: each vertex's multipliers (as
``mode_algebra_reference.dl_multipliers`` propagates them around its polygon)
times its scale, on its polygon sides and on the doubled pairs it owns;
``_matched_scales`` spreads those scales over the shared pairs as the
doubling connector once did.
``_certify`` is ``dl._certify`` as it was: each corner's scale fitted on its
two sides by least squares, then every crease of the corner checked against
its branch.  The tests require ``fold3d.network_multipliers`` to equal the
first to 1e-12 with the same signs, and ``dl.write_mode`` to refuse exactly
what the placement and its certificate refuse, recording otherwise the
placed multipliers to 1e-12.
"""
from typing import Mapping

import numpy as np

from doubleline.dl import NETWORK_KEY, DlError, DLRecord
from doubleline.fold3d import Fold3dError
from doubleline.kinematics import FoldMode, mode_vector
from doubleline.pattern import CreasePattern, vertex_star
from mode_algebra_reference import DLMultipliers

NULL_SPACE_TOL = 1e-9  # relative singular values spanning a motion; smallest usable motion entry


def network_multipliers(
    pattern: CreasePattern, modes: Mapping[int, FoldMode]
) -> np.ndarray:
    """Per-crease multipliers g with tan(rho_c/2) = g_c * t for a mode assignment.

    Each interior vertex contributes the linear constraints g_{c_i} = m_i * s_v
    (its mode vector up to a vertex scale).  The assignment admits a motion
    iff the stacked homogeneous system has a one-dimensional null space; the
    result is scaled so the largest |g| equals 1.  Its sign makes the
    pattern's valleys fold positive (the convention assign_mode_mv writes);
    without M/V labels the lowest-id crease within 1e-9 of the largest |g|
    folds positive, so ties that the SVD breaks by rounding do not choose it.
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
    for k_v, star in enumerate(pattern.interior_stars):
        mv = mode_vector(star, modes[star.vertex])
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
    null = [vt[i] for i in range(len(vt)) if i >= len(s) or s[i] <= NULL_SPACE_TOL * s[0]]
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
    if abs(g[k]) < NULL_SPACE_TOL:
        raise Fold3dError("mode assignment freezes every crease")
    x = x / abs(g[k])
    if x[np.flatnonzero(np.abs(x[:n_g]) >= 1.0 - 1e-9)[0]] < 0.0:
        x = -x
    valley = [{"V": 1.0, "M": -1.0}.get(pattern.creases[ci].assignment, 0.0) for ci in g_index]
    if np.dot(valley, x[:n_g]) < 0.0:
        x = -x
    out = np.zeros(len(pattern.creases))
    for ci, k_c in g_index.items():
        out[ci] = x[k_c]
    return out


def _placed(pattern: CreasePattern, record: DLRecord, mults: Mapping[int, DLMultipliers],
            scales: Mapping[int, float]) -> np.ndarray:
    """Per-crease multipliers: each vertex's, times its scale, on its sides and on the pairs it owns.

    A vertex owns a pair when the pair's ray^+ leaves one of its corners,
    corner c_i of axis i; the layout gives a shared pair to its lower vertex.
    """
    g = np.zeros(len(pattern.creases))
    axis_of = {}
    for v, corners in record.corners.items():
        g[list(record.sides[v])] = np.multiply(mults[v].sides, scales[v])
        axis_of.update((cv, (v, i)) for i, cv in enumerate(corners))
    for ci, plus, minus in record.pairs:
        owner = axis_of.get(pattern.creases[plus].v0)
        if owner is None:
            raise DlError(f"{NETWORK_KEY}: the ray^+ of crease {ci} leaves no polygon corner")
        v, i = owner
        g[plus] = mults[v].rays_plus[i] * scales[v]
        g[minus] = mults[v].rays_minus[i] * scales[v]
    return g


def _matched_scales(pattern: CreasePattern, record: DLRecord, mults: Mapping[int, DLMultipliers]) -> dict[int, float]:
    """Each vertex's scale: the lowest takes 1, and across every shared pair the far vertex's ray^- (from corner
    c_{j-1}) takes the owner's ray^+ value, until no scale is left to set."""
    corner_of = {cv: (v, i) for v, corners in record.corners.items() for i, cv in enumerate(corners)}
    shared = []
    for _, plus, _ in record.pairs:
        (u, i), far = corner_of[pattern.creases[plus].v0], corner_of.get(pattern.creases[plus].v1)
        if far is not None:
            w, j = far[0], (far[1] + 1) % len(record.corners[far[0]])
            shared += [(u, w, mults[u].rays_plus[i] / mults[w].rays_minus[j]),
                       (w, u, mults[w].rays_minus[j] / mults[u].rays_plus[i])]
    scales = {min(record.corners): 1.0}
    while True:
        new = {w: scales[u] * k for u, w, k in shared if u in scales and w not in scales}
        if not new:
            return scales
        scales.update(new)


def _certify(pattern: CreasePattern, record: DLRecord, signs: Mapping[int, str],
             g: np.ndarray) -> dict[int, FoldMode]:
    """The branch of every corner, each corner's multipliers checked against it.

    Sign '-' puts corner i of a vertex on branch a of its construction star,
    whose crease e_2 is side_{i+1}.  The pattern's star of the corner may start
    elsewhere; where side_{i+1} sits at an odd position the letters swap.
    Every corner is a flat-foldable degree-4 vertex, so the pattern folds
    exactly when each corner's multipliers are its branch's mode vector
    times one scale (Tachi 2009).  The scale is fitted on the corner's two
    sides, which its own vertex sets; a doubled pair off it (a loop that does
    not close, or a multiplier that is not the mode's) is refused, naming
    its original crease.
    """
    tol = 1e-8 * np.max(np.abs(g))
    origin = {c: ci for ci, *pair in record.pairs for c in pair}
    branches: dict[int, FoldMode] = {}
    for v in sorted(record.corners):
        corners, sides = record.corners[v], record.sides[v]
        for i, cv in enumerate(corners):
            star = vertex_star(pattern, cv)
            ids = list(star.crease_ids)
            even = ids.index(sides[(i + 1) % len(sides)]) % 2 == 0
            branches[cv] = FoldMode.A if (signs[v][i] == "-") == even else FoldMode.B
            e = np.array(mode_vector(star, branches[cv]))
            own = np.array([c not in origin for c in ids])
            miss = np.abs(g[ids] - (g[ids][own] @ e[own]) / (e[own] @ e[own]) * e)
            if miss.max() > tol:
                ray = max(np.flatnonzero(~own), key=lambda k: miss[k])
                raise DlError(f"doubled pairs disagree at crease {origin[ids[ray]]}: corner {cv} of vertex {v} "
                              f"is off its branch by {miss.max():.3e}")
    return branches
