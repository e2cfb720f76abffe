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
    gen_miura,
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
