"""Thick-panel generation: bounds, bevels, clearance, watertightness."""
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.spatial.transform import Rotation

from doubleline import (
    MODE_A1,
    DoubleLineParams,
    ThickPanelParams,
    ThickenError,
    clearance_check,
    clearance_records,
    construct_dl,
    crease_half_widths,
    export_clearance_csv,
    export_solids_obj,
    flat_fold_parameter,
    gen_dl_miura,
    gen_dl_yoshimura,
    gen_miura,
    gen_single_deg4,
    max_thickness,
    pattern_multipliers,
    read_record,
    sweep_motion,
    thicken,
    watertight_gap,
)
from doubleline.dl import axis_offsets
from doubleline.geometry import polygon_area
from doubleline.thicken import ConvexPiece, _clearance, _convex_pieces, _inset_reach, _outline, _separation, _stack

from conftest import deg, star_of
import clearance_reference
from fold_reference import rot_x, rot_z
from panel_reference import convex_piece, placed
from soup_reference import soup_clearance


def single_dl(radius=0.2):
    star = star_of(deg(60, 80, 120, 100))
    return construct_dl(star, DoubleLineParams(math.pi / 2, (radius,) * 4))


def capped_motion(pat, g, samples=12):
    t_max = 0.97 * flat_fold_parameter(pat, g)
    grid = np.geomspace(t_max * 1e-3, t_max, samples)
    return sweep_motion(pat, None, grid, multipliers=g)


def test_max_thickness_values():
    assert abs(max_thickness(1.0, math.pi / 2) - 1.0) < 1e-12
    assert abs(max_thickness(1.0, 2 * math.pi / 3) - math.tan(math.pi / 6)) < 1e-12
    assert abs(max_thickness(0.3, 1.1) - 0.3 * math.tan((math.pi - 1.1) / 2)) < 1e-12
    rhos = np.linspace(0.1, math.pi - 0.1, 50)
    vals = [max_thickness(1.0, r) for r in rhos]
    assert all(a > b for a, b in zip(vals, vals[1:]))
    assert max_thickness(1.0, math.pi - 1e-9) < 1e-8
    with pytest.raises(ThickenError):
        max_thickness(0.0, 1.0)
    with pytest.raises(ThickenError):
        max_thickness(1.0, math.pi)
    with pytest.raises(ThickenError):
        max_thickness(1.0, 0.0)


def test_flat_fold_parameter():
    pat = single_dl()
    g = pattern_multipliers(pat, MODE_A1)
    tf = flat_fold_parameter(pat, g)
    assert abs(tf - 6.531273683369497) < 1e-9
    # the doubled pair sums do reach half turns there
    info = read_record(pat)
    for plus, minus in info.axes:
        k = g[plus] * g[minus]
        if k > 0:
            s = 2 * math.atan(g[plus] * tf) + 2 * math.atan(g[minus] * tf)
            assert abs(abs(s) - math.pi) < 1e-9
    dlm = gen_dl_miura(3, 3, math.radians(60), math.pi / 2)
    gm = np.array(read_record(dlm).multipliers)
    assert abs(flat_fold_parameter(dlm, gm) - math.tan(math.radians(75))) < 1e-9
    plain = gen_miura(3, 3, math.radians(60)).pattern
    assert flat_fold_parameter(plain, np.zeros(len(plain.creases))) is None


def test_crease_half_widths_match_pair_separation():
    star = star_of(deg(60, 80, 120, 100))
    pat = construct_dl(star, DoubleLineParams(math.pi / 2, (0.2, 0.25, 0.3, 0.22)))
    info = read_record(pat)
    offs = axis_offsets(info.sectors[0], info.radii[0], info.thetas[0])
    w = crease_half_widths(pat)
    for i, (plus, minus) in enumerate(info.axes):
        half_sep = abs(offs[i][0] - offs[i][1]) / 2.0
        assert abs(w[plus] - half_sep) < 1e-9
        assert w[plus] == w[minus]


def _bisection_inset(base, insets):
    """Inset polygon of a CCW face, or None once it stops being a simple positive polygon."""
    n = len(base)
    lines = []
    for i in range(n):
        d = base[(i + 1) % n] - base[i]
        d = d / np.hypot(d[0], d[1])
        lines.append((base[i] + insets[i] * np.array([-d[1], d[0]]), d))
    out = np.empty_like(base)
    for i in range(n):
        (p0, d0), (p1, d1) = lines[i - 1], lines[i]
        det = d0[0] * d1[1] - d0[1] * d1[0]
        if abs(det) < 1e-12:
            e = p1 - p0
            if abs(e[0] * d0[1] - e[1] * d0[0]) > 1e-9:
                return None
            out[i] = p1 + ((base[i] - p1) @ d1) * d1
        else:
            s = ((p1[0] - p0[0]) * d1[1] - (p1[1] - p0[1]) * d1[0]) / det
            out[i] = p0 + s * d0
    nxt = np.roll(out, -1, axis=0)
    if np.sum(out[:, 0] * nxt[:, 1] - nxt[:, 0] * out[:, 1]) <= 1e-14:
        return None

    def orient(a, b, c):
        return (b[0] - a[0]) * (c[1] - a[1]) - (b[1] - a[1]) * (c[0] - a[0])

    for i in range(n):
        for j in range(i + 2, n):
            if (j + 1) % n == i:
                continue
            p, q, r, t = out[i], nxt[i], out[j], nxt[j]
            if orient(p, q, r) * orient(p, q, t) < 0 and orient(r, t, p) * orient(r, t, q) < 0:
                return None
    return out


def bisected_half_widths(pattern):
    """Reference: half of each lone crease's inset limit, bisected on inset validity.

    Validity is not monotone in the inset (a triangle pushed past its apex
    comes back point-reflected and valid), so this only serves as a
    reference on faces where the first invalid inset is never left again.
    """
    pts = pattern.vertices_array
    interior = set(pattern.interior_creases)
    rec = read_record(pattern)
    paired = {ci for axis in (rec.axes if rec is not None else ()) for ci in axis}
    out = {}
    for cycle, sides in zip(pattern.faces, pattern.face_creases):
        base = pts[list(cycle)]
        span = float(np.max(base.max(axis=0) - base.min(axis=0)))
        for k, ci in enumerate(sides):
            if ci not in interior or ci in paired:
                continue
            lo, hi = 0.0, 2.0 * span
            insets = np.zeros(len(cycle))
            for _ in range(60):
                insets[k] = (lo + hi) / 2.0
                if _bisection_inset(base, insets) is not None:
                    lo = insets[k]
                else:
                    hi = insets[k]
            out[ci] = min(out.get(ci, math.inf), lo / 2.0)
    return out


@pytest.mark.parametrize(
    "make",
    [
        lambda: gen_dl_miura(2, 2, math.radians(60), math.pi / 2),
        lambda: gen_dl_miura(3, 3, math.radians(60), math.pi / 2),
        lambda: gen_dl_yoshimura(2, 2, 1.5, math.pi / 2),
        lambda: gen_miura(3, 3, math.radians(60)).pattern,
    ],
    ids=["dl-miura-2x2", "dl-miura-3x3", "dl-yoshimura-2x2", "miura-3x3"],
)
def test_crease_half_widths_match_bisection_reference(make):
    pat = make()
    want = bisected_half_widths(pat)
    got = crease_half_widths(pat)
    assert want and want.keys() <= got.keys()
    for ci, w in want.items():
        assert abs(got[ci] - w) <= 1e-9 * w, ci


def test_crease_half_widths_stop_at_a_triangle_apex():
    # each face is a triangle of two unit creases and a boundary chord, so
    # moving a crease side inward collapses it at the far corner, sin(sector)
    # away; every crease borders a 60 or a 120 deg sector
    w = crease_half_widths(gen_single_deg4(math.radians(60), math.radians(80)))
    assert len(w) == 4
    for v in w.values():
        assert abs(v - math.sin(math.radians(60)) / 2.0) < 1e-12


def test_zero_motion_gives_prisms():
    pat = single_dl()
    g = pattern_multipliers(pat, MODE_A1)
    motion = sweep_motion(pat, None, [0.0], multipliers=g)
    solids = thicken(pat, motion, ThickPanelParams(0.05))
    assert len(solids) == len(pat.faces)
    for s in solids:
        assert all(abs(a - math.pi / 2) < 1e-12 for a in s.bevel_angles)
        assert np.allclose(s.top, s.base)
        assert s.top_height == s.height


def test_thicken_clearance_and_watertight():
    pat = single_dl()
    g = pattern_multipliers(pat, MODE_A1)
    motion = capped_motion(pat, g)
    solids = thicken(pat, motion, ThickPanelParams(0.01))
    assert clearance_check(solids, motion) >= 0.0
    assert watertight_gap(solids) < 1e-6


def test_thicken_bound_rejection():
    pat = single_dl()
    g = pattern_multipliers(pat, MODE_A1)
    motion = capped_motion(pat, g)
    with pytest.raises(ThickenError, match="crease"):
        thicken(pat, motion, ThickPanelParams(0.5))
    solids = thicken(pat, motion, ThickPanelParams(0.5, enforce_bound=False))
    assert len(solids) == len(pat.faces)


def test_lifted_bound_tops_stay_inside_their_bases():
    pat = single_dl()
    g = pattern_multipliers(pat, MODE_A1)
    solids = thicken(pat, capped_motion(pat, g), ThickPanelParams(0.5, enforce_bound=False))
    for s in solids:
        edges = np.roll(s.base, -1, axis=0) - s.base
        for p in s.top:
            rel = p - s.base
            # the faces are convex: inside means left of every CCW edge
            assert np.all(edges[:, 0] * rel[:, 1] - edges[:, 1] * rel[:, 0] >= -1e-12), s.face


def test_lifted_bound_at_a_face_reach_builds_panels():
    pat = gen_dl_miura(2, 2, math.radians(60), math.pi / 2)
    g = np.array(read_record(pat).multipliers)
    motion = capped_motion(pat, g, samples=6)
    widths = crease_half_widths(pat)
    bound = min(
        max_thickness(widths[ci], rho)
        for ci in pat.interior_creases
        if (rho := max(s.fold_angles[ci] for s in motion)) > 0
    )
    # twice the bound moves the crease setting it onto the far side of its
    # face: that panel's top lands on the face's reach, up to rounding
    solids = thicken(pat, motion, ThickPanelParams(2 * bound, enforce_bound=False))
    assert len(solids) == len(pat.faces)
    assert min(s.top_height for s in solids) < 2 * bound


@pytest.mark.parametrize("n, angle", [(2, 60), (3, 70)])
def test_watertight_below_the_pattern(n, angle):
    pat = gen_dl_miura(n, n, math.radians(angle), math.pi / 2)
    g = np.array(read_record(pat).multipliers)
    t_max = 0.9 * flat_fold_parameter(pat, g)
    motion = sweep_motion(pat, None, np.geomspace(t_max * 1e-3, t_max, 8), multipliers=g)
    for side in ("above", "below"):
        solids = thicken(pat, motion, ThickPanelParams(0.002, side=side))
        assert watertight_gap(solids) < 1e-12, side


def test_thicken_rejects_invalid_motion():
    pat = single_dl()
    g = pattern_multipliers(pat, MODE_A1)
    bad = sweep_motion(pat, None, [0.3], multipliers=np.where(g == 0, 0.0, g + 0.2))
    assert not bad[0].valid
    # the same words and bound as sweep's refusal: one check serves both
    with pytest.raises(ThickenError, match=r"^motion sample t=0\.3 does not close: residual \S+ >= 1e-09$"):
        thicken(pat, bad, ThickPanelParams(0.01))


def test_solids_are_closed_meshes():
    pat = single_dl()
    g = pattern_multipliers(pat, MODE_A1)
    motion = capped_motion(pat, g, samples=4)
    for s in thicken(pat, motion, ThickPanelParams(0.01)):
        edges = {}
        for tri in s.triangles:
            for a, b in ((tri[0], tri[1]), (tri[1], tri[2]), (tri[2], tri[0])):
                edges[(min(a, b), max(a, b))] = edges.get((min(a, b), max(a, b)), 0) + 1
        assert set(edges.values()) == {2}


def test_export_formats():
    pat = single_dl()
    g = pattern_multipliers(pat, MODE_A1)
    motion = capped_motion(pat, g, samples=4)
    solids = thicken(pat, motion, ThickPanelParams(0.01))
    obj = export_solids_obj(solids)
    assert obj.count("g face") == len(solids)
    n_v = sum(1 for ln in obj.splitlines() if ln.startswith("v "))
    assert n_v == sum(len(s.vertices) for s in solids)
    assert export_solids_obj(solids) == obj
    records = clearance_records(solids, motion)
    csv = export_clearance_csv(records)
    lines = csv.splitlines()
    assert lines[0] == "t,min_clearance,pair"
    assert len(lines) == 1 + len(motion)


def bench_panels(n, factor, samples=8):
    """Doubled Miura n x n 60/90 panels trimmed 0.002 rad past the motion's
    extreme folds, motion to 0.97 of flat, thickness factor x the bound."""
    pat = gen_dl_miura(n, n, math.radians(60), math.pi / 2)
    g = np.array(read_record(pat).multipliers)
    t_max = 0.97 * flat_fold_parameter(pat, g)
    motion = sweep_motion(pat, None, np.geomspace(t_max * 1e-3, t_max, samples), multipliers=g)
    widths = crease_half_widths(pat)
    rho = {}
    for ci in pat.interior_creases:
        v = max((s.fold_angles[ci] for s in motion), key=abs)
        rho[ci] = v + math.copysign(0.002, v)
    bound = min(max_thickness(widths[ci], r) for ci, r in rho.items() if r > 0)
    params = ThickPanelParams(factor * bound, rho_max=rho, enforce_bound=factor < 1.0)
    return motion, thicken(pat, motion, params)


def oracle_panels(name, factor, side, samples):
    """Panels at factor x the thickness bound of one side, trimmed 0.002 rad
    past the motion's extreme folds, with the bound lifted."""
    if name == "dl_single":
        pat = single_dl()
        g = pattern_multipliers(pat, MODE_A1)
    else:
        make = gen_dl_miura if name.startswith("dlm") else gen_dl_yoshimura
        shape = math.radians(60) if name.startswith("dlm") else 1.5
        pat = make(int(name[3]), int(name[4]), shape, math.pi / 2)
        g = np.array(read_record(pat).multipliers)
    t_max = 0.97 * flat_fold_parameter(pat, g)
    motion = sweep_motion(pat, None, np.geomspace(t_max * 1e-3, t_max, samples), multipliers=g)
    widths = crease_half_widths(pat)
    sign = 1.0 if side == "above" else -1.0
    rho = {}
    for ci in pat.interior_creases:
        v = max((s.fold_angles[ci] for s in motion), key=abs)
        rho[ci] = v + math.copysign(0.002, v)
    bound = min(max_thickness(widths[ci], abs(r)) for ci, r in rho.items() if sign * r > 0)
    params = ThickPanelParams(factor * bound, side=side, rho_max=rho, enforce_bound=False)
    return motion, thicken(pat, motion, params)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(
    # batches mix widths on dl-Miura (pentagons among quads) and the doubled vertex (triangles
    # among quads); dl-Yoshimura 2x4 pieces are all quads
    name=st.sampled_from(("dlm22", "dlm33", "dl_single", "dly24", "dlm44")),
    factor=st.floats(0.5, 2.5),
    side=st.sampled_from(("above", "below")),
    samples=st.integers(2, 12),
)
def test_clearance_records_equal_the_pairwise_branch_and_bound(name, factor, side, samples):
    motion, solids = oracle_panels(name, factor, side, samples)
    got = clearance_records(solids, motion)
    want = clearance_reference.records(solids, motion)
    assert [(t, d.hex(), pair) for t, d, pair in got] == [(t, d.hex(), pair) for t, d, pair in want]


@pytest.mark.parametrize("n", [2, 3])
def test_top_edges_follow_their_base_edges(n):
    # a corner between collinear edges rides between its real neighbours;
    # moved at its own edge's rate it was overrun and the top edge reversed
    for factor in (0.9, 2.0):
        for s in bench_panels(n, factor)[1]:
            base_edges = np.roll(s.base, -1, axis=0) - s.base
            top_edges = np.roll(s.top, -1, axis=0) - s.top
            assert np.all(np.einsum("ij,ij->i", base_edges, top_edges) > 0.0), (factor, s.face)


def _turns(poly):
    d = np.roll(poly, -1, axis=0) - poly
    d_in = np.roll(d, 1, axis=0)
    return d_in[:, 0] * d[:, 1] - d_in[:, 1] * d[:, 0]


def _check_pieces(base, top, pieces):
    """Convex pieces tile the face at the base and at the top."""
    bottoms = [p.vertices[: len(p.vertices) // 2, :2] for p in pieces]
    tops = [p.vertices[len(p.vertices) // 2 :, :2] for p in pieces]
    for poly in bottoms + tops:
        assert np.all(_turns(poly) > -1e-12)
    assert abs(sum(map(polygon_area, bottoms)) - polygon_area(base)) < 1e-12
    assert abs(sum(map(polygon_area, tops)) - polygon_area(top)) < 1e-12


@pytest.mark.parametrize("n, reflex", [(2, 1), (3, 2)])
def test_panels_split_into_convex_pieces(n, reflex):
    # every reflex face of a doubled Miura is a pentagon with one reflex corner
    solids = bench_panels(n, 0.9)[1]
    for s in solids:
        assert len(s.pieces) == (2 if np.any(_turns(s.base) < -1e-12) else 1)
        _check_pieces(s.base, s.top, s.pieces)
    assert sum(len(s.pieces) > 1 for s in solids) == reflex


@pytest.mark.parametrize("moving", [(), (4,), tuple(range(8))], ids=["square", "one-bevel", "all-bevel"])
def test_face_with_two_reflex_corners_splits_into_convex_pieces(moving):
    # a U: reflex corners at (2, 1) and (1, 1); square corners are cut along
    # their bisectors, which end on the outer corners (3, 0) and (0, 0)
    u = np.array([[0, 0], [3, 0], [3, 2], [2, 2], [2, 1], [1, 1], [1, 2], [0, 2]], dtype=float)
    rates = np.zeros(len(u))
    rates[list(moving)] = 1.0
    V, reach = _inset_reach(_outline(u), rates)
    h = 0.4 * min(reach, 1.0)
    pieces = [convex_piece(b, b + h * v, r, h) for b, r, v in _convex_pieces(_outline(u), rates)]
    assert len(pieces) == 3
    _check_pieces(u, u + h * V, pieces)


def piece_clearance(a, b):
    """The narrow-phase kernel on one row: one piece against another, every feature counted."""
    return float(_clearance(_stack([a, b]), np.array([math.inf]))[0])


@pytest.fixture(scope="module")
def piece_pool():
    """Unplaced convex pieces with 3, 4 and 5 corners, from thick panels of a doubled vertex, Miura and Yoshimura."""
    pieces = [p for name in ("dl_single", "dlm22", "dlm44") for s in oracle_panels(name, 0.9, "above", 4)[1] for p in s.pieces]
    return {m: [p for p in pieces if len(p.normals) - 2 == m] for m in (3, 4, 5)}


def random_rows(pool, corners, n, rng):
    """2n pieces with the given corner counts, and motions that turn each at random and put
    piece n + k near piece k: some pairs apart, some overlapping."""
    choices = [p for m in corners for p in pool[m]]
    pieces = [choices[k] for k in rng.integers(0, len(choices), 2 * n)]
    rot = np.stack([rot_z(a) @ rot_x(b) @ rot_z(c) for a, b, c in rng.uniform(-math.pi, math.pi, (2 * n, 3))])
    trans = -np.einsum("nij,nj->ni", rot, [p.vertices.mean(axis=0) for p in pieces])
    trans[n:] += rng.uniform(-1.0, 1.0, (n, 3)) * rng.choice([0.1, 0.5, 1.5], (n, 1))
    return pieces, rot, trans


def same_bits(a, b) -> bool:
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


@settings(max_examples=40, deadline=None, derandomize=True)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 8))
def test_a_batch_at_its_own_width_measures_as_the_padded_batch(piece_pool, seed, n):
    pieces, rot, trans = random_rows(piece_pool, (3, 4), n, np.random.default_rng(seed))
    own = _stack(pieces)
    # the same rows padded to five corners: a pentagon stacked last, then dropped
    wide = _stack(pieces + piece_pool[5][:1])
    wide = ConvexPiece(*(x[:-1] for x in (wide.vertices, wide.normals, wide.directions, wide.edges, wide.loops)))
    assert own.normals.shape[1] < wide.normals.shape[1] == 7
    own, wide = placed(own, rot, trans), placed(wide, rot, trans)
    want = clearance_reference.padded_clearance(wide)
    assert same_bits(_clearance(own, np.full(n, math.inf)), want)
    assert same_bits(_clearance(wide, np.full(n, math.inf)), want)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 8))
def test_a_row_below_its_cut_measures_as_if_every_feature_counted(piece_pool, seed, n):
    rng = np.random.default_rng(seed)
    pieces, rot, trans = random_rows(piece_pool, (3, 4, 5), n, rng)
    both = placed(_stack(pieces), rot, trans)
    want = clearance_reference.padded_clearance(both)
    # cuts above, at and below each row's clearance, and none
    best = np.where(rng.random(n) < 0.2, math.inf, want * rng.choice([0.5, 1.0, 1.0 + 1e-12, 1.01, 2.0], n) + rng.choice([0.0, 1e-3], n))
    got = _clearance(both, best)
    below = want < best
    assert same_bits(got[below], want[below])
    # a row at or beyond its cut may stop at its separation, which cannot beat the cut
    assert np.all(got[~below] >= best[~below])


def polar_piece(angles, radii, rates, height):
    """The prismatoid on the polygon with corners radii * (cos, sin)(angles), its sides leaning in at rates."""
    base = np.column_stack([np.cos(angles), np.sin(angles)]) * np.array(radii)[:, None]
    return convex_piece(base, base + height * _inset_reach(_outline(base), np.array(rates))[0], np.array(rates), height)


def test_a_second_candidate_closest_inside_the_slab_is_measured_exactly():
    # A thin pentagonal plate a and a triangular frustum b.  The closest
    # points are a's corner 4 and a point of b's lateral edge from corner 0
    # to its top, just below the top.  On the best axis b's facing side is
    # its third top corner, and that edge lies 0.0179 below it: inside the
    # slab (cut minus separation, 0.0328 here), but not inside half of it.
    # Without the edge, the nearest features left are the top corner's, 0.3%
    # farther.
    a = polar_piece([0.931, 1.309, 1.593, 3.446, 5.862], [1.613, 1.162, 0.805, 1.044, 1.927],
                    [0.655, 1.248, 0.624, 1.289, 0.099], 0.011)
    b = polar_piece([1.079, 4.745, 5.207], [1.489, 1.514, 1.051], [0.791, 1.153, 1.244], 0.127)
    turn, at = Rotation.from_rotvec([1.762, 1.824, 3.889]).as_matrix(), np.array([2.224, -1.013, -1.379])
    second = _stack([a, placed(b, turn, at)])
    # the first candidate, the same pair drawn 0.004 farther apart along the
    # closest direction, sets the sample's least clearance: the second's cut
    first = _stack([a, placed(b, turn, at + 0.004 * np.array([0.0211, -0.4064, -0.9135]))])
    cut = _clearance(first, np.array([math.inf]))
    want = clearance_reference.padded_clearance(second)
    assert want[0] < cut[0] < want[0] + 0.0041
    assert same_bits(_clearance(second, cut), want)
    separation, depth = _separation(second, 1)
    edge = min(depth[1][0], depth[1][3])  # b's corner 0 and its top
    assert depth[0][4] == 0.0 and (cut - separation)[0] / 2 < edge < (want - separation)[0]


def cube(side=1.0):
    square = np.array([[0.0, 0.0], [side, 0.0], [side, side], [0.0, side]])
    return convex_piece(square, square, np.zeros(4), side)


@pytest.mark.parametrize("gap", [0.25, 1e-3, -1e-3, -0.25])
def test_boxes_face_to_face(gap):
    a = cube()
    b = placed(cube(), np.eye(3), np.array([0.3, 0.2, 1.0 + gap]))
    assert abs(piece_clearance(a, b) - gap) < 1e-12
    assert abs(piece_clearance(b, a) - gap) < 1e-12


@pytest.mark.parametrize("depth", [0.2, 0.01, -0.01, -0.2])
def test_boxes_edge_through_edge(depth):
    # A's edge along x at y = z = 1 and B's edge along (0, 1, -1) cross at
    # x = 0.5, B's edge pushed toward A by depth along u = (0, 1, 1)/sqrt 2:
    # no vertex of either box lies inside the other (a triangle soup reads
    # such a crossing as -1e-12)
    r2 = math.sqrt(2.0)
    e_b, u = np.array([0.0, 1.0, -1.0]) / r2, np.array([0.0, 1.0, 1.0]) / r2
    # the cube's edge on the x axis, body toward +u, turned onto e_b
    x = np.array([1.0, 0.0, 0.0])
    rot = np.column_stack([e_b, u, x]) @ np.column_stack([x, u, -e_b]).T
    at = np.array([0.5, 1.0, 1.0]) - depth * u
    b = placed(cube(), rot, at - rot @ np.array([0.5, 0.0, 0.0]))
    assert abs(piece_clearance(cube(), b) + depth) < 1e-12
    assert abs(piece_clearance(b, cube()) + depth) < 1e-12


@pytest.fixture(scope="module")
def miura22_panels():
    return bench_panels(2, 0.9)[1]


@settings(max_examples=80, deadline=None, derandomize=True)
@given(
    faces=st.tuples(st.integers(0, 8), st.integers(0, 8)),
    angles=st.tuples(*[st.floats(-math.pi, math.pi)] * 3),
    offset=st.tuples(*[st.floats(-0.6, 0.6)] * 3),
)
def test_piece_clearance_matches_the_triangle_soup(miura22_panels, faces, angles, offset):
    a, b = miura22_panels[faces[0]], miura22_panels[faces[1]]
    # fixed generic turns keep shrunk examples off coplanar placements
    rot = rot_z(angles[0] + 0.3) @ rot_x(angles[1] + 0.7) @ rot_z(angles[2] + 1.1)
    centre_a, centre_b = a.vertices.mean(axis=0), b.vertices.mean(axis=0)
    trans = centre_a + np.array(offset) + 0.013 - rot @ centre_b
    got = min(piece_clearance(p, placed(q, rot, trans)) for p in a.pieces for q in b.pieces)
    want = soup_clearance(a.vertices, a.triangles, b.vertices @ rot.T + trans, b.triangles)
    assert (got < 0.0) == (want < 0.0)
    if want > 0.0:
        assert abs(got - want) <= 1e-12 * want
    elif len(a.pieces) == len(b.pieces) == 1:
        # a translation that separates convex panels frees every vertex, so
        # the depth is at least the deepest vertex inside; a piece of a
        # split panel can hold a vertex that is deep only in the whole panel
        assert got <= want + 1e-12


@pytest.mark.parametrize("crease", [999, -1, "boundary"])
def test_trim_angles_refuse_creases_that_are_not_interior(crease):
    pat = gen_dl_miura(2, 2, math.radians(60), math.pi / 2)
    if crease == "boundary":
        crease = next(i for i, c in enumerate(pat.creases) if c.assignment == "B")
    motion = capped_motion(pat, np.array(read_record(pat).multipliers), samples=4)
    with pytest.raises(ThickenError, match=rf"crease {crease}\b"):
        thicken(pat, motion, ThickPanelParams(1e-3, rho_max={crease: 1.0}))


def test_clearance_refuses_two_panels_for_one_face():
    motion, solids = bench_panels(2, 0.9, samples=2)
    with pytest.raises(ThickenError, match="share a face"):
        clearance_records(solids + solids[:1], motion)
