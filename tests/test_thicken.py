"""Thick-panel generation: bounds, bevels, clearance, watertightness."""
import math

import numpy as np
import pytest

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

from conftest import deg, star_of


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
    with pytest.raises(ThickenError):
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
