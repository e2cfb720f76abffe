"""Doubled-pattern construction, corner coefficients, and theta regimes."""
import itertools
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.optimize import brentq

from doubleline import (
    ALL_MODES,
    GENERIC_MODES,
    MODE_A1,
    MODE_A2,
    MODE_B1,
    DlError,
    DoubleLineParams,
    DoubleLineRatio,
    FoldMode,
    VertexStar,
    axis_offsets,
    axis_sums,
    classify_theta,
    construct_dl,
    corner_coefficients,
    critical_thetas,
    double_line_ratio,
    is_flat_foldable_deg4,
    kawasaki_residual,
    load_fold,
    mode_from_label,
    mode_is_valid,
    pattern_multipliers,
    propagate_fold,
    read_record,
    save_fold,
    sign_pattern_product,
    theta_for_even_minor,
    theta_for_ratio,
    valid_modes,
    vertex_star,
)
from doubleline.dl import _closes, _mode_pairs, fix_mode
from doubleline.geometry import SEGMENT_EPS
from doubleline.pattern import CreasePattern

from conftest import deg, star_of

SQ3 = math.sqrt(3.0)


def test_construct_dl_deg4_shape():
    star = star_of(deg(60, 80, 120, 100))
    pat = construct_dl(star, DoubleLineParams(math.pi / 2, (1.0, 1.0, 1.0, 1.0)))
    assert len(pat.vertices) == 12
    assert len(pat.creases) == 20
    assert len(pat.faces) == 9
    assert pat.interior_vertices == (0, 1, 2, 3)
    info = read_record(pat)
    assert len(info.sectors[0]) == 4
    assert info.corners[0] == (0, 1, 2, 3)
    assert info.axes == ((0, 4), (1, 5), (2, 6), (3, 7))
    assert info.sides[0] == (8, 9, 10, 11)


def test_construct_dl_corner_stars():
    # corner i reads (sigma_i, theta, pi - sigma_i, pi - theta) starting at ray_i^+
    star = star_of(deg(60, 80, 120, 100))
    theta = deg(75)[0]
    pat = construct_dl(star, DoubleLineParams(theta, (1.0, 0.8, 1.2, 1.0)))
    for i, sigma in enumerate(star.sectors):
        corner = vertex_star(pat, i)
        want = (sigma, theta, math.pi - sigma, math.pi - theta)
        assert corner.crease_ids[0] == i
        assert max(abs(a - b) for a, b in zip(corner.sectors, want)) < 1e-9


def test_corners_flat_foldable_even_when_original_is_not():
    star = star_of(deg(60, 80, 110, 110))
    assert abs(kawasaki_residual(star)) > 0.1
    pat = construct_dl(star, DoubleLineParams(math.pi / 2, (1.0,) * 4))
    for v in read_record(pat).corners[0]:
        assert is_flat_foldable_deg4(vertex_star(pat, v))


def test_construct_dl_degree6():
    star = star_of(deg(60, 60, 60, 60, 60, 60))
    pat = construct_dl(star, DoubleLineParams(math.pi / 2, (1.0,) * 6))
    assert len(pat.vertices) == 18
    assert len(pat.creases) == 30
    assert len(pat.faces) == 13
    for v in read_record(pat).corners[0]:
        assert is_flat_foldable_deg4(vertex_star(pat, v))


@pytest.mark.parametrize("n", range(3, 9))
def test_construct_dl_numbers_rays_first_at_any_degree(n):
    rng = np.random.default_rng(n)
    built = 0
    while built < 4:
        sectors = rng.uniform(0.5, 1.5, n)
        star = VertexStar.from_sectors(sectors / sectors.sum() * 2.0 * math.pi)
        theta = rng.uniform(deg(50)[0], deg(130)[0])
        try:
            pat = construct_dl(star, DoubleLineParams(theta, tuple(rng.uniform(0.3, 1.5, n))))
        except DlError:  # a pair does not separate: radii too small for this theta
            continue
        built += 1
        rec = read_record(pat)
        assert max(c for _, plus, minus in rec.pairs for c in (plus, minus)) < min(rec.sides[0])
        for i, ((_, plus, _), corner, sigma) in enumerate(zip(rec.pairs, rec.corners[0], star.sectors)):
            assert pat.creases[plus].v0 == corner  # ray_i^+ leaves c_i
            got = vertex_star(pat, corner)
            assert got.crease_ids[0] == plus
            want = (sigma, theta, math.pi - sigma, math.pi - theta)
            assert max(abs(a - b) for a, b in zip(got.sectors, want)) < 1e-9


def _degrees(lo, hi):
    return st.floats(min_value=math.radians(lo), max_value=math.radians(hi))


@settings(max_examples=60, deadline=None, derandomize=True)
@given(alpha=_degrees(10, 170), beta=_degrees(10, 170), theta=_degrees(20, 160))
def test_record_round_trips_and_drives_every_closing_mode(alpha, beta, theta):
    star = VertexStar.from_sectors([alpha, beta, math.pi - alpha, math.pi - beta])
    try:
        pat = construct_dl(star, DoubleLineParams(theta, (0.2,) * 4))
    except DlError:  # a pair does not separate: radii too small for this theta
        assume(False)
    blob = save_fold(pat)
    reloaded = load_fold(blob)
    assert save_fold(reloaded) == blob
    assert read_record(reloaded) == read_record(pat)
    for mode in GENERIC_MODES:
        if not mode_is_valid(mode, alpha, beta, theta):
            continue
        g = pattern_multipliers(reloaded, mode)
        for t in (0.3, 1.0):
            assert propagate_fold(reloaded, 2.0 * np.arctan(g * t)).residual < 1e-9


def test_construct_dl_rejects_bad_input():
    star = star_of(deg(60, 80, 120, 100))
    with pytest.raises(DlError):
        construct_dl(star, DoubleLineParams(math.pi / 2, (1.0, 1.0)))
    with pytest.raises(DlError):
        DoubleLineParams(0.0, (1.0,) * 4)
    with pytest.raises(DlError):
        DoubleLineParams(math.pi / 2, (1.0, -1.0, 1.0, 1.0))
    for sectors in ((0.0,) + (2 * math.pi / 3,) * 3, (math.pi, math.pi / 2, math.pi / 2)):  # a zero or straight sector
        with pytest.raises(DlError, match=r"^polygon sides 0 and 1 are parallel$"):
            construct_dl(VertexStar.from_sectors(sectors), DoubleLineParams(math.pi / 2, (1.0,) * len(sectors)))


@st.composite
def _lone_vertices(draw):
    """A star of degree 3 to 8, some with a reflex sector, and its θ and radii."""
    n = draw(st.integers(3, 8))
    weights = draw(st.lists(st.floats(0.01, 1.0), min_size=n, max_size=n))
    star = VertexStar.from_sectors([w / sum(weights) * 2.0 * math.pi for w in weights])
    theta = draw(st.floats(0.05, math.pi - 0.05))
    return star, theta, tuple(draw(st.lists(st.floats(0.01, 1.5), min_size=n, max_size=n)))


@settings(max_examples=400, deadline=None, derandomize=True)
@given(_lone_vertices())
def test_construct_dl_refuses_exactly_a_pair_that_does_not_separate(case):
    star, theta, radii = case
    seps = [plus - minus for plus, minus in axis_offsets(star.sectors, radii, theta)]
    try:
        construct_dl(star, DoubleLineParams(theta, radii))
        refusal = None
    except DlError as exc:
        refusal = str(exc)
    bad = [i for i, s in enumerate(seps) if not s > 0.0]
    if bad:
        i = bad[0]  # star ids from from_sectors: axis i is crease i
        assert refusal == (f"the doubled pair of crease {i} has separation {seps[i]:.6g} at theta "
                           f"{math.degrees(theta):.6g} deg: its radii are too small")
    elif min(seps) > 1e-6 * max(radii):
        assert refusal is None
    else:
        assert refusal is None or not refusal.startswith("the doubled pair")


def test_construct_dl_names_the_pair_that_does_not_separate():
    star = star_of(deg(30, 50, 150, 130))
    with pytest.raises(DlError, match=r"^the doubled pair of crease 1 has separation -0\.994052 at theta 40 deg: "
                                      r"its radii are too small$"):
        construct_dl(star, DoubleLineParams(deg(40)[0], (0.05, 1.0, 0.05, 1.0)))


def test_valid_modes_lists_no_mode_at_a_pole_and_every_mode_it_lists_builds():
    assert valid_modes(*deg(90, 90, 90)) == ()
    for a in range(10, 171, 10):  # symmetric stars at 90 deg, each with both symmetries
        for b in {a, 180 - a}:
            pat = construct_dl(star_of(deg(a, b, 180 - a, 180 - b)), DoubleLineParams(math.pi / 2, (0.2,) * 4))
            listed = valid_modes(*deg(a, b, 90))
            assert len(listed) == (0 if 90 in (a, b) else 6)
            for mode in listed:
                assert read_record(fix_mode(pat, mode)).signs == {0: "".join(mode.signs)}


def test_corner_coefficients_closed_form():
    vals = corner_coefficients(MODE_A1, *deg(60, 60, 90))
    want = (-(2 + SQ3), -(2 - SQ3), 2 - SQ3, 2 + SQ3)
    assert max(abs(a - b) for a, b in zip(vals, want)) < 1e-12
    assert abs(math.prod(vals) - 1.0) < 1e-12


def test_corner_coefficient_products_random():
    rng = np.random.default_rng(11)
    for _ in range(100):
        alpha, beta = rng.uniform(0.2, math.pi / 2 - 0.2, size=2)
        theta = rng.uniform(0.2, math.pi - 0.2)
        for mode in GENERIC_MODES:
            prod = math.prod(corner_coefficients(mode, alpha, beta, theta))
            assert abs(prod - 1.0) < 1e-10


def test_sign_scan_generic_and_symmetric():
    sigmas = [deg(50, 70, 130, 110), deg(60, 60, 120, 120)]
    theta = [deg(95)[0], math.pi / 2]
    want = [
        {m.signs for m in GENERIC_MODES},
        {m.signs for m in ALL_MODES},
    ]
    for sig, th, expect in zip(sigmas, theta, want):
        good = set()
        for signs in itertools.product("+-", repeat=4):
            if abs(sign_pattern_product(signs, sig, th) - 1.0) < 1e-9:
                good.add(signs)
        assert good == expect


def test_valid_modes_counts():
    assert len(valid_modes(*deg(50, 70, 95))) == 4
    assert len(valid_modes(*deg(60, 60, 90))) == 6
    labels = {m.label for m in valid_modes(*deg(60, 60, 90))}
    assert {"sym+", "sym-"} <= labels


def test_axis_sums_start_at_zero():
    for mode in GENERIC_MODES:
        smaj, smin = axis_sums(*deg(50, 70, 95), mode, 0.0)
        assert smaj == 0.0 and smin == 0.0


def test_axis_sums_reference_point():
    smaj, smin = axis_sums(*deg(60, 60, 90), MODE_A1, 1.0)
    assert abs(math.degrees(smaj) - 98.21321070173819) < 1e-9
    assert abs(math.degrees(smin) - 60.0) < 1e-9
    # minor/major tan-half ratio equals the single-vertex coefficient p(60, 60)
    assert abs(math.tan(smin / 2) / math.tan(smaj / 2) - 0.5) < 1e-12


def test_double_line_ratio_reference():
    major = double_line_ratio(MODE_A1, "major", *deg(60, 60, 90))
    assert abs(major.first - 1.0) < 1e-12
    assert abs(major.second - (2 - SQ3) ** 2) < 1e-12
    minor = double_line_ratio(MODE_A1, "minor", *deg(60, 60, 90))
    assert minor.distance(DoubleLineRatio(1.0, 1.0)) < 1e-12


def test_classify_theta_regimes():
    a, b = deg(50, 70)
    assert str(classify_theta(MODE_A1, a, b, math.pi / 2)) == "FullRange"
    assert str(classify_theta(MODE_A1, a, b, deg(70)[0])) == "Critical"
    reg = classify_theta(MODE_A1, a, b, deg(60)[0])
    assert reg.tag == "Finite"
    assert 0.0 < reg.extremum < math.pi


def test_finite_extremum_matches_sweep():
    a, b, th = deg(50, 70, 60)
    reg = classify_theta(MODE_A1, a, b, th)
    ts = np.geomspace(1e-4, 1e6, 20001)
    peak = max(abs(axis_sums(a, b, th, MODE_A1, t)[0]) for t in ts)
    assert abs(peak - reg.extremum) < 1e-6


def test_critical_thetas_table():
    a, b = deg(50, 70)
    lo, hi = critical_thetas(MODE_A1, a, b)
    assert abs(lo - b) < 1e-12 and abs(hi - (math.pi - a)) < 1e-12
    # regimes flip across each critical value
    assert classify_theta(MODE_A1, a, b, lo - 0.05).tag == "Finite"
    assert classify_theta(MODE_A1, a, b, lo + 0.05).tag == "FullRange"
    assert classify_theta(MODE_A1, a, b, hi + 0.05).tag == "Finite"


def test_theta_for_even_minor():
    a, b = deg(50, 70)
    th = theta_for_even_minor(MODE_A1, a, b)
    want = 2.0 * math.atan(math.sqrt(math.tan(b / 2) * math.tan((math.pi - a) / 2)))
    assert abs(th - want) < 1e-12
    minor = double_line_ratio(MODE_A1, "minor", a, b, th)
    assert minor.distance(DoubleLineRatio(1.0, 1.0)) < 1e-9


def test_theta_for_ratio_round_trip():
    a, b = deg(50, 70)
    for axis in ("major", "minor"):
        for th in deg(40, 85, 120):
            target = double_line_ratio(MODE_A1, axis, a, b, th)
            solved = theta_for_ratio(MODE_A1, axis, a, b, target)
            achieved = double_line_ratio(MODE_A1, axis, a, b, solved)
            assert achieved.distance(target) < 1e-9


def scan_theta_for_ratio(mode, axis, alpha, beta, target):
    """Reference solver: the grid scan theta_for_ratio ran before its closed form.

    The first sign change of f·m2 − s·m1 on 4001 log-spaced tan(θ/2) points
    in [1e-8, 1e8] is refined by brentq.  Two roots inside one grid cell
    show no sign change, so it misses double and close roots.
    """
    f, s = target.first, target.second

    def g(theta):
        major, minor = _mode_pairs(mode, alpha, beta, theta)
        m1, m2 = major if axis == "major" else minor
        return f * m2 - s * m1

    thetas = 2.0 * np.arctan(np.geomspace(1e-8, 1e8, 4001))
    vals = [g(th) for th in thetas]
    for k in range(len(thetas) - 1):
        if vals[k] == 0.0:
            return float(thetas[k])
        if vals[k] * vals[k + 1] < 0:
            return float(brentq(g, thetas[k], thetas[k + 1], xtol=1e-15, rtol=8.9e-16))
    raise DlError(f"target ratio {target} not reachable on the {axis} axis of {mode.label}")


_SECTOR = st.floats(min_value=math.radians(1.0), max_value=math.radians(179.0))


@settings(max_examples=60, deadline=None, derandomize=True)
@given(mode=st.sampled_from(GENERIC_MODES), axis=st.sampled_from(("major", "minor")),
       alpha=_SECTOR, beta=_SECTOR, theta=_SECTOR)
def test_theta_for_ratio_matches_scan(mode, axis, alpha, beta, theta):
    try:
        target = double_line_ratio(mode, axis, alpha, beta, theta)
    except DlError:  # both multipliers vanish: the ratio is 0:0
        assume(False)
    try:
        solved = theta_for_ratio(mode, axis, alpha, beta, target)
    except DlError as exc:  # a target made at some θ is reachable unless refused as 1:±1
        assert "cannot reach" in str(exc)
        return
    assert double_line_ratio(mode, axis, alpha, beta, solved).distance(target) < 1e-9
    try:
        scanned = scan_theta_for_ratio(mode, axis, alpha, beta, target)
    except DlError:
        return
    assert abs(solved - scanned) < 1e-9


def test_theta_for_ratio_finds_close_roots_the_scan_misses():
    # near its extremum at about 101.6 deg the a-I major ratio takes each
    # value twice within one scan cell, so the scan sees no sign change
    a, b = deg(50, 70)
    target = double_line_ratio(MODE_A1, "major", a, b, deg(101.55)[0])
    with pytest.raises(DlError, match="not reachable"):
        scan_theta_for_ratio(MODE_A1, "major", a, b, target)
    solved = theta_for_ratio(MODE_A1, "major", a, b, target)
    assert double_line_ratio(MODE_A1, "major", a, b, solved).distance(target) < 1e-9
    assert abs(math.degrees(solved) - 101.55) < 0.05


def test_theta_for_ratio_rejects_unreachable():
    a, b = deg(50, 70)
    with pytest.raises(DlError):
        theta_for_ratio(MODE_A1, "major", a, b, DoubleLineRatio(1.0, 1.0))
    with pytest.raises(DlError):
        theta_for_ratio(MODE_A1, "major", a, b, DoubleLineRatio(1.0, -1.0))
    with pytest.raises(DlError):
        theta_for_ratio(MODE_A1, "minor", a, b, DoubleLineRatio(1.0, -1.0))


def test_even_minor_consistent_with_ratio_solver():
    a, b = deg(50, 70)
    th1 = theta_for_even_minor(MODE_A1, a, b)
    th2 = theta_for_ratio(MODE_A1, "minor", a, b, DoubleLineRatio(1.0, 1.0))
    assert abs(th1 - th2) < 1e-9


def test_dl_multipliers_closure_and_critical_pole():
    sig = deg(50, 70, 130, 110)
    star = star_of(sig)
    pattern_multipliers(construct_dl(star, DoubleLineParams(deg(95)[0], (1.0,) * 4)), MODE_A1)
    assert _closes(MODE_A1.signs, sig, deg(95)[0])
    with pytest.raises(DlError, match="^mode a-I has a pole at corner 3: theta 70 deg is critical"):
        pattern_multipliers(construct_dl(star, DoubleLineParams(deg(70)[0], (1.0,) * 4)), MODE_A1)


def test_pattern_multipliers_layout():
    star = star_of(deg(60, 80, 120, 100))
    pat = construct_dl(star, DoubleLineParams(math.pi / 2, (1.0,) * 4))
    g = pattern_multipliers(pat, MODE_A1)
    assert len(g) == len(pat.creases)
    info = read_record(pat)
    interior = {c for ab in info.axes for c in ab} | set(info.sides[0])
    assert all(abs(g[c]) > 1e-12 for c in interior)
    assert all(g[c] == 0.0 for c in range(len(pat.creases)) if c not in interior)
    # modes assign different speeds
    h = pattern_multipliers(pat, MODE_B1)
    assert np.max(np.abs(g - h)) > 1e-6


def test_fix_mode_records_each_corners_branch():
    star = star_of(deg(60, 80, 120, 100))
    pat = fix_mode(construct_dl(star, DoubleLineParams(math.pi / 2, (1.0,) * 4)), MODE_A1)
    assert read_record(pat).corner_modes == {0: FoldMode.A, 1: FoldMode.B, 2: FoldMode.B, 3: FoldMode.A}


def test_mode_from_label_round_trip():
    for m in ALL_MODES:
        assert mode_from_label(m.label) is m
    with pytest.raises(DlError):
        mode_from_label("c-IV")


def test_a_near_straight_sector_meets_the_planarity_tolerance(monkeypatch):
    """A star with a sector 5.3e-6 short of pi is refused, though no two of its creases cross.

    Every doubled pair separates, but the near-straight sector puts the
    polygon's far corner about 2.5e5 from the vertex and the boundary about
    1e6 out, where a ray's end and a boundary corner land 5.3e-7 apart: too
    far for the layout to merge them (1e-7) and shorter than
    segments_intersect's tolerance at that span (SEGMENT_EPS times 1e6), so
    that boundary crease counts as touching the creases along it.  In exact
    arithmetic no two creases without a shared end cross or touch.
    """
    sectors = (2.257876, 0.883722, 2.0 * math.pi - 2.257876 - 0.883722)
    theta, radii = 0.393494, (1.63381, 0.94895, 1.83827)
    assert all(plus - minus > 0.6 for plus, minus in axis_offsets(sectors, radii, theta))
    built = []
    build = CreasePattern.build
    monkeypatch.setattr(CreasePattern, "build", lambda *args, **kw: built.append(args) or build(*args, **kw))
    with pytest.raises(DlError, match=r"^degenerate double-line geometry: creases 0 and 13 cross: non-planar "
                                      r"embedding$"):
        construct_dl(VertexStar.from_sectors(sectors), DoubleLineParams(theta, radii))
    ((verts, creases),) = built

    def orient(p, q, r):
        (px, py), (qx, qy), (rx, ry) = ((Fraction(x), Fraction(y)) for x, y in (p, q, r))
        return (qx - px) * (ry - py) - (qy - py) * (rx - px)

    for a, b in itertools.combinations(creases, 2):
        if {a.v0, a.v1} & {b.v0, b.v1}:
            continue
        p, q, r, s = (verts[v] for v in (a.v0, a.v1, b.v0, b.v1))
        d = orient(p, q, r), orient(p, q, s), orient(r, s, p), orient(r, s, q)
        assert 0 not in d and not (d[0] * d[1] < 0 and d[2] * d[3] < 0)
    short = creases[13]
    length, reach = math.dist(verts[short.v0], verts[short.v1]), max(math.hypot(*p) for p in verts)
    assert 1e-7 < length < SEGMENT_EPS * reach and reach > 9e5
