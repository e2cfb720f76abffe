"""Generators for standard patterns and the multi-vertex doubling procedure.

Tessellation generators (Miura, elongated Yoshimura) return a
VertexNetwork: the crease pattern together with the folding branch each
interior vertex follows in the standard one-parameter motion.  One
connector, connect_dl, replaces every such vertex by its doubled polygon and
joins doubled pairs across shared creases, choosing each vertex's mode,
rotation angle and polygon distances so that the pairs line up as lines in
the plane and fold with identical angles in 3-space.  Every vertex keeps the
requested θ where its shared pair allows and solves its own θ for the pair
ratio where it does not; loops are checked and rejected when they do not
close.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Mapping

import numpy as np

from .dl import (  # noqa: F401  (NETWORK_KEY is re-exported for its importers)
    CRITICAL,
    MODE_A1,
    MODE_A2,
    MODE_B1,
    MODE_B2,
    NETWORK_KEY,
    DLRecord,
    DlError,
    DoubleLineRatio,
    assign_mode_mv,
    axis_class,
    axis_offsets,
    classify_theta,
    critical_thetas,
    dl_multipliers,
    polygon_corners,
    read_record,
    theta_for_ratio,
    write_record,
)
from .geometry import crossing, unit
from .kinematics import FoldMode, mode_vector
from .pattern import (
    Crease,
    CreasePattern,
    PatternError,
    VertexStar,
    is_flat_foldable_deg4,
)

# Every doubled polygon is scaled to reach at most this share of the
# shortest crease at its vertex.
_REACH_FRACTION = 0.3

_FAMILY_MODES = {FoldMode.A: (MODE_A1, MODE_A2), FoldMode.B: (MODE_B1, MODE_B2)}


# -- single-vertex generators --------------------------------------------------


def gen_single_deg4(alpha: float, beta: float) -> CreasePattern:
    """Canonical flat-foldable degree-4 vertex with sectors (α, β, π−α, π−β).

    Unit-length creases from the origin, closed off by boundary chords so
    the center is an interior vertex.
    """
    if not (0.0 < alpha < math.pi and 0.0 < beta < math.pi):
        raise PatternError("sector angles alpha, beta must lie strictly between 0 and pi")
    return _star_pattern([0.0, alpha, alpha + beta, math.pi + beta])


def gen_symmetric_vertex(n: int) -> CreasePattern:
    """Degree-2n vertex with all sector angles equal to π/n, unit creases."""
    if n < 2:
        raise PatternError("symmetric vertex needs n >= 2")
    return _star_pattern([k * math.pi / n for k in range(2 * n)])


def _star_pattern(azimuths: list[float]) -> CreasePattern:
    verts: list[tuple[float, float]] = [(0.0, 0.0)]
    creases: list[Crease] = []
    k = len(azimuths)
    for phi in azimuths:
        verts.append((math.cos(phi), math.sin(phi)))
        creases.append(Crease(0, len(verts) - 1, "U"))
    for i in range(k):
        creases.append(Crease(1 + i, 1 + (i + 1) % k, "B"))
    return CreasePattern.build(verts, creases)


# -- vertex networks -----------------------------------------------------------


@dataclass(frozen=True)
class VertexNetwork:
    """Crease pattern plus the folding branch of every interior vertex.

    shared_creases are the creases joining two interior vertices; along
    them the doubled patterns of neighboring vertices must line up.
    """

    pattern: CreasePattern
    modes: Mapping[int, FoldMode]
    shared_creases: tuple[int, ...]

    @classmethod
    def from_pattern(cls, pattern: CreasePattern, modes: Mapping[int, FoldMode]) -> "VertexNetwork":
        interior = set(pattern.interior_vertices)
        missing = sorted(interior - set(modes))
        if missing:
            raise PatternError(f"no folding branch assigned to interior vertices {missing}")
        shared = tuple(
            ci
            for ci in pattern.interior_creases
            if {pattern.creases[ci].v0, pattern.creases[ci].v1} <= interior
        )
        return cls(pattern, dict(modes), shared)

    @cached_property
    def spanning_tree(self) -> tuple[tuple[int, int, int], ...]:
        """Breadth-first spanning tree of the interior vertices over shared creases.

        Rows are (vertex, parent vertex, shared crease) in visiting order
        from the lowest interior vertex, each vertex's neighbours taken as
        sorted (neighbour, crease) pairs; a vertex the tree does not reach
        has no row.
        """
        verts = self.pattern.interior_vertices
        nbrs: dict[int, list[tuple[int, int]]] = {v: [] for v in verts}
        for ci in self.shared_creases:
            c = self.pattern.creases[ci]
            nbrs[c.v0].append((c.v1, ci))
            nbrs[c.v1].append((c.v0, ci))
        order, rows = list(verts[:1]), []
        seen = set(order)
        for u in order:
            for w, ci in sorted(nbrs[u]):
                if w not in seen:
                    seen.add(w)
                    rows.append((w, u, ci))
                    order.append(w)
        return tuple(rows)


def _branch_of(star: VertexStar) -> FoldMode:
    """The folding branch moving all four creases of a tessellation vertex."""
    a = mode_vector(star, FoldMode.A)
    b = mode_vector(star, FoldMode.B)
    if a.degenerate == b.degenerate:
        raise PatternError(f"vertex {star.vertex} has no unique moving branch")
    return FoldMode.A if not a.degenerate else FoldMode.B


def infer_modes(pattern: CreasePattern) -> dict[int, FoldMode]:
    """Folding branch of every interior vertex.

    Prefers branch metadata stored by the DL connector; without it each
    vertex must have a unique moving branch (tessellation vertices with
    collinear creases do, generic flat-foldable vertices have two).
    """
    rec = read_record(pattern)
    if rec is not None and rec.corner_modes is not None:
        return dict(rec.corner_modes)
    return {star.vertex: _branch_of(star) for star in pattern.interior_stars}


def _finish_network(pattern: CreasePattern) -> VertexNetwork:
    """Assign branches and M/V labels from the network's one-parameter motion."""
    from .fold3d import network_multipliers  # shapes that never fold do not load the folding code

    modes = {star.vertex: _branch_of(star) for star in pattern.interior_stars}
    if modes:
        g = network_multipliers(pattern, modes)
        pattern = assign_mode_mv(pattern, g)
    return VertexNetwork.from_pattern(pattern, modes)


def gen_miura(rows: int, cols: int, angle: float) -> VertexNetwork:
    """Miura-ori with rows×cols parallelogram panels.

    ``angle`` is the sector between a zigzag crease and the straight
    (vertical) creases, strictly between 0 and π/2.
    """
    if rows < 1 or cols < 1:
        raise PatternError("need rows >= 1 and cols >= 1")
    if not 0.0 < angle < math.pi / 2:
        raise PatternError("panel angle must lie strictly between 0 and pi/2")
    dz = 1.0 / math.tan(angle)

    def vid(i: int, j: int) -> int:
        return i * (cols + 1) + j

    verts = [
        (float(j), i + (j % 2) * dz) for i in range(rows + 1) for j in range(cols + 1)
    ]
    creases = []
    for i in range(rows + 1):  # zigzag rows
        for j in range(cols):
            kind = "B" if i in (0, rows) else "U"
            creases.append(Crease(vid(i, j), vid(i, j + 1), kind))
    for j in range(cols + 1):  # straight columns
        for i in range(rows):
            kind = "B" if j in (0, cols) else "U"
            creases.append(Crease(vid(i, j), vid(i + 1, j), kind))
    return _finish_network(CreasePattern.build(verts, creases))


def gen_yoshimura(rows: int, cols: int, elongation: float) -> VertexNetwork:
    """Elongated Yoshimura pattern: rows strips of staggered trapezoids.

    Each crossing of the plain (triangular) Yoshimura pattern is split into
    two degree-4 vertices joined by a short horizontal crease; ``elongation``
    is the period of the long pattern relative to the plain one and must
    exceed 1 for the split to have positive width.
    """
    if rows < 1 or cols < 1:
        raise PatternError("need rows >= 1 and cols >= 1")
    if elongation <= 1.0:
        raise PatternError("elongation must exceed 1")
    d = 1.0 / math.sqrt(3.0)  # horizontal run of each diagonal
    g = (elongation - 1.0) * d
    period = 2.0 * (d + g)

    faces: list[list[tuple[float, float]]] = []
    for i in range(rows):
        phase = (i % 2) * period / 2.0
        lo, hi = float(i), float(i + 1)
        up_range = range(cols) if i % 2 == 0 else range(cols - 1)
        for k in up_range:  # long edge below, short gap edge above
            c = k * period + phase
            faces.append(
                [
                    (c + g / 2.0, lo),
                    (c + period - g / 2.0, lo),
                    (c + period / 2.0 + g / 2.0, hi),
                    (c + period / 2.0 - g / 2.0, hi),
                ]
            )
        inv_range = range(1, cols) if i % 2 == 0 else range(cols)
        for k in inv_range:  # short gap edge below, long edge above
            c = k * period + phase
            faces.append(
                [
                    (c - g / 2.0, lo),
                    (c + g / 2.0, lo),
                    (c + period / 2.0 - g / 2.0, hi),
                    (c - period / 2.0 + g / 2.0, hi),
                ]
            )

    registry: dict[tuple[float, float], int] = {}
    verts: list[tuple[float, float]] = []

    def vid(p: tuple[float, float]) -> int:
        key = (round(p[0], 9), round(p[1], 9))
        if key not in registry:
            registry[key] = len(verts)
            verts.append(p)
        return registry[key]

    edge_count: dict[tuple[int, int], int] = {}
    for poly in faces:
        ids = [vid(p) for p in poly]
        for a, b in zip(ids, ids[1:] + ids[:1]):
            key = (min(a, b), max(a, b))
            edge_count[key] = edge_count.get(key, 0) + 1
    creases = [
        Crease(a, b, "B" if n == 1 else "U") for (a, b), n in sorted(edge_count.items())
    ]
    return _finish_network(CreasePattern.build(verts, creases))


# -- the doubling connection ---------------------------------------------------


@dataclass
class _DlVertex:
    vertex: int
    star: VertexStar
    azimuths: tuple[float, ...]
    signs: tuple[str, ...] | None = None
    theta: float = 0.0
    scale: float = 1.0
    radii: list[float] | None = None
    mult: object = None

    def corners(self, origin: np.ndarray) -> list[np.ndarray]:
        return [origin + c for c in polygon_corners(self.azimuths, self.radii, self.theta)]


def _solve_child(dv: _DlVertex, axis: int, target_plus: float, target_minus: float,
                 theta: float, family: FoldMode) -> None:
    """Fit the child's mode variant, and θ only if it must, to a shared pair.

    Each mode of the family is tried at the requested θ first; only when
    neither matches does the child solve its own θ for the pair ratio.
    """
    alpha, beta = dv.star.sectors[0], dv.star.sectors[1]
    last = None
    for solve in (False, True):
        for mode in _FAMILY_MODES[family]:
            try:
                th = theta
                if solve:
                    cls, swapped = axis_class(mode, axis)
                    pair = (target_plus, target_minus) if not swapped else (target_minus, target_plus)
                    th = theta_for_ratio(mode, cls, alpha, beta, DoubleLineRatio(*pair))
                mult = dl_multipliers(dv.star.sectors, mode.signs, th)
                if mult.closure_error > 1e-9:
                    raise DlError(f"mode {mode.label} does not close on vertex {dv.vertex}")
                m_plus, m_minus = mult.rays_plus[axis], mult.rays_minus[axis]
                if abs(m_plus) < 1e-15:
                    raise DlError(f"frozen doubled pair on vertex {dv.vertex}")
                scale = target_plus / m_plus
                err = abs(m_minus * scale - target_minus)
                if err > 1e-9 * max(abs(target_minus), abs(target_plus), 1.0):
                    raise DlError(
                        f"pair ratio mismatch on vertex {dv.vertex} in mode {mode.label}"
                    )
                dv.signs, dv.theta, dv.scale, dv.mult = mode.signs, th, scale, mult
                return
            except DlError as exc:
                last = exc
    raise DlError(f"no folding branch of vertex {dv.vertex} matches the shared pair: {last}")


def _ratio_test(a: np.ndarray, b: np.ndarray, x: np.ndarray, p: np.ndarray,
                skip: list[int]) -> tuple[float, int | None]:
    """How far x can move along p before a row of a @ x <= b blocks it, and
    which row: the lowest-numbered one among ties (None when none blocks)."""
    rate = a @ p
    blocks = rate > 1e-12 * np.linalg.norm(a, axis=1) * np.linalg.norm(p)
    blocks[skip] = False
    if not blocks.any():
        return math.inf, None
    rows = np.flatnonzero(blocks)
    slack = b[rows] - a[rows] @ x
    # rounding leaves tight rows a little loose; a degenerate vertex's ties
    # must stay ties, or the lowest-index choice loses its meaning
    slack[slack <= 1e-12 * (np.abs(b[rows]) + np.linalg.norm(a[rows], axis=1) * np.linalg.norm(x))] = 0.0
    steps = slack / rate[rows]
    first = steps.min()
    return float(first), int(rows[np.flatnonzero(steps <= first * (1.0 + 1e-12))[0]])


def _maximize(a: np.ndarray, b: np.ndarray, w: np.ndarray, x: np.ndarray) -> np.ndarray | None:
    """Maximize w @ x subject to a @ x <= b, from the feasible point x.

    a has full column rank, so the feasible set has vertices.  The start
    moves to one along the objective's projection onto the directions that
    keep the rows met so far tight; the primal simplex then trades one tight
    row per step by Bland's rule (lowest row index), which cannot cycle.
    Returns the optimal vertex, or None when w @ x is unbounded above.
    """
    d = a.shape[1]
    tight: list[int] = []
    while len(tight) < d:
        free = np.linalg.svd(a[tight], full_matrices=True)[2][len(tight):] if tight else np.eye(d)
        p = free.T @ (free @ w)
        if np.linalg.norm(p) <= 1e-12 * np.linalg.norm(w):
            p = free[0]  # the objective is flat here: any way that stays tight
        step, row = _ratio_test(a, b, x, p, tight)
        if row is None:
            if w @ p > 0.0:
                return None
            p = -p  # full column rank: one of the two ways is blocked
            step, row = _ratio_test(a, b, x, p, tight)
        x = x + step * p
        tight.append(row)
    basis = sorted(tight)
    for _ in range(100 * len(a)):
        ab = a[basis]
        x = np.linalg.solve(ab, b[basis])
        rates = np.linalg.solve(ab.T, w)
        loose = np.flatnonzero(rates < -1e-12 * np.linalg.norm(w))
        if not len(loose):
            return x
        j = int(loose[0])  # basis is sorted: the lowest row that gains by loosening
        step, row = _ratio_test(a, b, x, np.linalg.solve(ab, -np.eye(d)[j]), basis)
        if row is None:
            return None
        basis[j] = row
        basis.sort()
    raise DlError("the polygon distance program did not converge")


def _solve_radii(network: VertexNetwork, dls: dict[int, "_DlVertex"],
                 axis_of: Mapping[int, Mapping[int, int]]) -> None:
    """Polygon distances lining every doubled pair up across shared creases.

    The alignment equations (each shared pair's two lines coincide) and the
    validity conditions (positive distances, positive pair separations)
    are all linear in the distances, so one linear program maximizing the
    smallest of them either finds a uniformly safe solution or proves the
    chosen rotation angles admit none.  Each polygon side is its pair's
    separation over sin θ, so the sides are positive too, and positive
    sides turning through the sectors make each polygon convex and
    counterclockwise.  The side rows are left out of the program: near
    θ = 90° they nearly repeat the separation rows, which makes its bases
    ill-conditioned.
    """
    pattern = network.pattern
    interior = sorted(dls)
    pos = {v: 4 * k for k, v in enumerate(interior)}
    n = 4 * len(interior)
    basis = np.eye(4)

    # axis_offsets is linear in the distances: offsets[v][k, i, s] is the
    # offset of line s (0: ray^+, 1: ray^-) of axis i per unit of distance k
    offsets = {v: np.array([axis_offsets(dls[v].star.sectors, e, dls[v].theta) for e in basis])
               for v in interior}

    # each line of u's pair on the opposite line of w's, two rows per shared crease
    eq = np.zeros((2 * len(network.shared_creases), n))
    for k, ci in enumerate(network.shared_creases):
        u, w = pattern.creases[ci].v0, pattern.creases[ci].v1
        eq[2 * k: 2 * k + 2, pos[u]: pos[u] + 4] = offsets[u][:, axis_of[u][ci], :].T
        eq[2 * k: 2 * k + 2, pos[w]: pos[w] + 4] = offsets[w][:, axis_of[w][ci], ::-1].T

    # per vertex: the separation of each axis's pair
    sep = np.zeros((n, n))
    for v in interior:
        p = pos[v]
        sep[p: p + 4, p: p + 4] = (offsets[v][:, :, 0] - offsets[v][:, :, 1]).T

    # the distances that meet every alignment equation and sum to n: r0 + null @ u
    equal = np.vstack([eq, np.ones((1, n))])
    rhs = np.append(np.zeros(len(eq)), float(n))
    r0 = np.linalg.lstsq(equal, rhs, rcond=None)[0]
    _, sv, vt = np.linalg.svd(equal)
    null = vt[int(np.sum(sv > sv[0] * max(equal.shape) * np.finfo(float).eps)):].T
    if np.abs(equal @ r0 - rhs).max() > 1e-9 * n:
        raise DlError("no workable polygon distances for these rotation angles")

    # variables: u, then the common safety margin t that every distance and
    # separation exceeds; at u = 0, t = the smallest of them is feasible
    rows = np.vstack([np.eye(n), sep])
    lifted = rows @ r0
    x = _maximize(np.hstack([-rows @ null, np.ones((2 * n, 1))]), lifted,
                  np.eye(null.shape[1] + 1)[-1], np.append(np.zeros(null.shape[1]), lifted.min()))
    if x is None or x[-1] <= 1e-6:
        raise DlError("no workable polygon distances for these rotation angles")
    # r meets the alignment equations to rounding, being built on their null space
    r = r0 + null @ x[:-1]
    for v in interior:
        dls[v].radii = [float(x) for x in r[pos[v]: pos[v] + 4]]


def connect_dl(network: VertexNetwork, theta: float) -> CreasePattern:
    """Double every vertex of a network at θ, rooted at the lowest vertex id.

    The root folds in the first mode of its family (a-I or b-I) at θ.  Down
    the spanning tree, each other vertex keeps θ in whichever mode of its
    family lines its doubled pair up with its parent's on the shared crease;
    only when neither mode does at θ does it solve its own θ for that pair's
    ratio.  The assembled pattern is then certified corner by corner, so a
    loop that does not close is refused, naming its crease.  Each vertex's
    θ is in the record (``read_record(pattern).thetas``).
    """
    if not 0.0 < theta < math.pi:
        raise DlError("theta must lie strictly between 0 and pi")
    pattern = network.pattern
    interior = pattern.interior_vertices
    if not interior:
        raise DlError("network has no interior vertices to double")
    tree = network.spanning_tree
    if len(tree) < len(interior) - 1:
        raise DlError("interior vertices do not form a connected network")

    dls: dict[int, _DlVertex] = {}
    for v, star in zip(interior, pattern.interior_stars):
        if not is_flat_foldable_deg4(star):
            raise DlError(f"vertex {v} is not a flat-foldable degree-4 vertex")
        az = [pattern.crease_azimuth(ci, v) for ci in star.crease_ids]
        dls[v] = _DlVertex(v, star, tuple(az))
    axis_of = {v: {ci: i for i, ci in enumerate(dls[v].star.crease_ids)} for v in interior}

    root = interior[0]
    rv = dls[root]
    rv_mode = _FAMILY_MODES[network.modes[root]][0]
    alpha, beta = rv.star.sectors[0], rv.star.sectors[1]
    if classify_theta(rv_mode, alpha, beta, theta).tag == CRITICAL:
        lo, hi = sorted(math.degrees(c) for c in critical_thetas(rv_mode, alpha, beta))
        raise DlError(f"theta {math.degrees(theta):.6g} deg is critical for mode {rv_mode.label} on vertex "
                      f"{root}, whose critical values are {lo:.6g} and {hi:.6g} deg")
    rv.mult = dl_multipliers(rv.star.sectors, rv_mode.signs, theta)
    rv.signs, rv.theta, rv.scale = rv_mode.signs, theta, 1.0

    # Propagation of θ and scale down the spanning tree, then the radii at once.
    for w, u, ci in tree:
        du, dw = dls[u], dls[w]
        i_u, i_w = axis_of[u][ci], axis_of[w][ci]
        _solve_child(
            dw, i_w,
            du.mult.rays_minus[i_u] * du.scale,
            du.mult.rays_plus[i_u] * du.scale,
            theta,
            network.modes[w],
        )

    _solve_radii(network, dls, axis_of)

    # One global rescale keeps every polygon well inside its vertex's creases.
    lengths = pattern.vertices_array
    factor = math.inf
    for v in interior:
        dv = dls[v]
        reach = max(float(np.linalg.norm(c)) for c in polygon_corners(dv.azimuths, dv.radii, dv.theta))
        edge_len = min(
            float(np.linalg.norm(lengths[pattern.creases[ci].v1] - lengths[pattern.creases[ci].v0]))
            for ci in dv.star.crease_ids
        )
        factor = min(factor, _REACH_FRACTION * edge_len / reach)
    for v in interior:
        dls[v].radii = [r * factor for r in dls[v].radii]

    return _assemble(network, dls)


def _assemble(network: VertexNetwork, dls: dict[int, "_DlVertex"]) -> CreasePattern:
    pattern = network.pattern
    pts_in = pattern.vertices_array
    interior = set(pattern.interior_vertices)

    verts: list[tuple[float, float]] = []

    def add_vertex(p) -> int:
        for k, q in enumerate(verts):
            if abs(q[0] - p[0]) < 1e-7 and abs(q[1] - p[1]) < 1e-7:
                return k
        verts.append((float(p[0]), float(p[1])))
        return len(verts) - 1

    creases: list[Crease] = []
    mults: list[float] = []

    def add_crease(a: int, b: int, mult: float, kind: str = "U") -> int:
        creases.append(Crease(a, b, kind))
        mults.append(mult)
        return len(creases) - 1

    corner_ids: dict[int, list[int]] = {}
    for v in sorted(interior):
        dv = dls[v]
        corner_ids[v] = [add_vertex(c) for c in dv.corners(pts_in[v])]

    side_ids: dict[int, list[int]] = {}
    for v in sorted(interior):
        dv = dls[v]
        ids = corner_ids[v]
        side_ids[v] = [
            add_crease(ids[(i - 1) % 4], ids[i], dv.mult.sides[i] * dv.scale)
            for i in range(4)
        ]

    outer = pattern.outer_cycle
    boundary_pts = [pts_in[v] for v in outer]
    splits: dict[int, list[tuple[float, int]]] = {k: [] for k in range(len(outer))}

    def clip_ray(origin: np.ndarray, direction: np.ndarray) -> int:
        best = None
        for k in range(len(outer)):
            a = boundary_pts[k]
            su = crossing(origin, direction, a, boundary_pts[(k + 1) % len(outer)] - a)
            if su is None:
                continue
            s, tau = su
            if s > 1e-9 and -1e-12 <= tau <= 1.0 + 1e-12:
                if best is None or s < best[0]:
                    best = (s, k, min(max(tau, 0.0), 1.0))
        if best is None:
            raise DlError("doubled crease does not reach the pattern boundary")
        s, k, tau = best
        hit = add_vertex(origin + s * direction)
        splits[k].append((tau, hit))
        return hit

    pairs: list[tuple[int, int, int]] = []
    done: set[int] = set()
    for v in sorted(interior):
        dv = dls[v]
        for i, ci in enumerate(dv.star.crease_ids):
            if ci in done:
                continue
            done.add(ci)
            c = pattern.creases[ci]
            other = c.v1 if c.v0 == v else c.v0
            cu = corner_ids[v]
            m_plus = dv.mult.rays_plus[i] * dv.scale
            m_minus = dv.mult.rays_minus[i] * dv.scale
            if other in interior:
                dw = dls[other]
                j = dw.star.crease_ids.index(ci)
                cw = corner_ids[other]
                plus_id = add_crease(cu[i], cw[(j - 1) % 4], m_plus)
                minus_id = add_crease(cu[(i - 1) % 4], cw[j], m_minus)
            else:
                u_dir = unit(dv.azimuths[i])
                plus_id = add_crease(
                    cu[i], clip_ray(np.asarray(verts[cu[i]]), u_dir), m_plus
                )
                minus_id = add_crease(
                    cu[(i - 1) % 4], clip_ray(np.asarray(verts[cu[(i - 1) % 4]]), u_dir), m_minus
                )
            pairs.append((ci, plus_id, minus_id))

    for k in range(len(outer)):
        chain = [add_vertex(boundary_pts[k])]
        chain += [h for _, h in sorted(splits[k])]
        chain.append(add_vertex(boundary_pts[(k + 1) % len(outer)]))
        for a, b in zip(chain, chain[1:]):
            if a != b:
                add_crease(a, b, 0.0, "B")

    try:
        out = CreasePattern.build(verts, creases)
    except PatternError as exc:
        raise DlError(f"doubled network has a degenerate embedding: {exc}") from exc
    out = assign_mode_mv(out, np.array(mults))

    # Sign '-' puts corner i on branch a of its construction star, whose
    # crease e_2 is side_{i+1}.  The pattern's star of the corner may start
    # elsewhere; where side_{i+1} sits at an odd position the letters swap.
    # Every corner is a flat-foldable degree-4 vertex, so the network folds
    # exactly when each corner's multipliers are its branch's mode vector
    # times one scale (Tachi 2009).  The scale is fitted on the corner's two
    # sides, which its own vertex set; a pair taken from a neighbour across a
    # loop that does not close is off it.
    g = np.array(mults)
    tol = 1e-8 * np.max(np.abs(g))
    origin = {c: ci for ci, *pair in pairs for c in pair}
    corner_modes: dict[int, FoldMode] = {}
    stars = {star.vertex: star for star in out.interior_stars}
    for v in sorted(interior):
        for i, cv in enumerate(corner_ids[v]):
            ids = list(stars[cv].crease_ids)
            even = ids.index(side_ids[v][(i + 1) % 4]) % 2 == 0
            corner_modes[cv] = FoldMode.A if (dls[v].signs[i] == "-") == even else FoldMode.B
            e = np.array(mode_vector(stars[cv], corner_modes[cv]).multipliers)
            own = np.array([c not in origin for c in ids])
            miss = np.abs(g[ids] - (g[ids][own] @ e[own]) / (e[own] @ e[own]) * e)
            if miss.max() > tol:
                ray = max(np.flatnonzero(~own), key=lambda k: miss[k])
                raise DlError(f"doubled pairs disagree at crease {origin[ids[ray]]}: corner {cv} of vertex {v} "
                              f"is off its branch by {miss.max():.3e}")

    record = DLRecord(
        pairs=tuple(sorted(pairs)),
        corners={v: tuple(corner_ids[v]) for v in interior},
        sides={v: tuple(side_ids[v]) for v in interior},
        thetas={v: dls[v].theta for v in interior},
        sectors={v: dls[v].star.sectors for v in interior},
        radii={v: tuple(dls[v].radii) for v in interior},
        signs={v: "".join(dls[v].signs) for v in interior},
        scales={v: dls[v].scale for v in interior},
        corner_modes=corner_modes,
        multipliers=tuple(mults),
    )
    return write_record(out, record)


def gen_dl_miura(rows: int, cols: int, angle: float, theta: float) -> CreasePattern:
    """Doubled Miura-ori: every vertex replaced by its polygon (connect_dl at θ)."""
    return connect_dl(gen_miura(rows, cols, angle), theta)


def gen_dl_yoshimura(rows: int, cols: int, elongation: float, theta: float) -> CreasePattern:
    """Doubled elongated Yoshimura pattern (connect_dl at θ)."""
    return connect_dl(gen_yoshimura(rows, cols, elongation), theta)
