"""Closure residuals, fold propagation, motion sweeps, and the angle solver."""
import math

import numpy as np
import pytest

from doubleline import (
    Crease,
    CreasePattern,
    Fold3dError,
    FoldMode,
    SolveError,
    export_obj,
    fold_angles_at,
    gen_dl_miura,
    gen_miura,
    gen_yoshimura,
    infer_modes,
    network_multipliers,
    propagate_fold,
    read_record,
    solve_fold_angles,
    sweep_motion,
    vertex_closure_residual,
)

from conftest import deg, star_of


def test_closure_residual_flat():
    star = star_of(deg(60, 80, 120, 100))
    assert vertex_closure_residual(star, [0.0] * 4) < 1e-12


def test_closure_residual_on_mode_motion():
    star = star_of(deg(60, 80, 120, 100))
    for t in (0.1, 0.7, 1.0, 3.0, -2.0):
        for mode in (FoldMode.A, FoldMode.B):
            angles = fold_angles_at(star, mode, t)
            assert vertex_closure_residual(star, angles) < 1e-12
    # breaking the minor-crease sign leaves the configuration space
    bad = fold_angles_at(star, FoldMode.A, 1.0)
    bad[1] = -bad[1]
    assert vertex_closure_residual(star, bad) > 0.1


def test_propagate_flat_is_identity():
    pat = gen_miura(2, 2, math.radians(60)).pattern
    state = propagate_fold(pat, [0.0] * len(pat.creases))
    assert state.valid
    for fi in range(len(pat.faces)):
        assert np.max(np.abs(state.face_points(fi)[:, 2])) < 1e-12


def test_propagate_dl_sample():
    pat = gen_dl_miura(2, 2, math.radians(60), math.pi / 2)
    g = network_multipliers(pat, infer_modes(pat))
    angles = 2.0 * np.arctan(g * 0.6)
    state = propagate_fold(pat, angles)
    assert state.valid
    assert state.residual < 1e-9
    for ci in pat.interior_creases[:6]:
        assert abs(state.measured_fold_angle(ci) - angles[ci]) < 1e-9


def test_propagate_flags_random_angles():
    pat = gen_miura(3, 3, math.radians(60)).pattern
    rng = np.random.default_rng(3)
    angles = np.where(
        [c.assignment != "B" for c in pat.creases], rng.uniform(-1, 1, len(pat.creases)), 0.0
    )
    state = propagate_fold(pat, angles)
    assert not state.valid
    assert state.residual > 1e-3


def test_network_multipliers_normalization():
    pat = gen_dl_miura(2, 2, math.radians(60), math.pi / 2)
    g = network_multipliers(pat, infer_modes(pat))
    assert abs(np.max(np.abs(g)) - 1.0) < 1e-12
    for ci, c in enumerate(pat.creases):
        if c.assignment == "B":
            assert g[ci] == 0.0


@pytest.mark.parametrize("n, angle", [(4, 60), (3, 70), (3, 55)])
def test_network_multipliers_fold_valleys_positive(n, angle):
    # here many entries tie at |g| = 1 and the largest-entry rule alone
    # returned the negative of the recorded motion
    pat = gen_dl_miura(n, n, math.radians(angle), math.pi / 2)
    g = network_multipliers(pat, infer_modes(pat))
    ref = np.array(read_record(pat).multipliers)
    scale = float(g @ ref) / float(ref @ ref)
    assert scale > 0.0
    assert np.max(np.abs(g - scale * ref)) < 1e-9


def test_network_multipliers_of_plain_tessellations_keep_their_labels():
    for pat in (gen_miura(3, 3, math.radians(60)).pattern, gen_yoshimura(2, 3, 1.5).pattern):
        g = network_multipliers(pat, infer_modes(pat))
        unlabeled = CreasePattern.build(
            pat.vertices, [Crease(c.v0, c.v1, "B" if c.assignment == "B" else "U") for c in pat.creases]
        )
        assert np.array_equal(network_multipliers(unlabeled, infer_modes(unlabeled)), g)
        for ci, c in enumerate(pat.creases):
            assert c.assignment == {1.0: "V", -1.0: "M", 0.0: "B"}[float(np.sign(g[ci]))]


def test_network_multipliers_needs_all_modes():
    pat = gen_dl_miura(2, 2, math.radians(60), math.pi / 2)
    modes = infer_modes(pat)
    modes.pop(next(iter(modes)))
    with pytest.raises(Fold3dError):
        network_multipliers(pat, modes)


def test_network_multipliers_refuses_branches_without_one_motion():
    pat = gen_miura(3, 3, math.radians(60)).pattern
    one_b = {v: FoldMode.B if v == 10 else FoldMode.A for v in pat.interior_vertices}
    with pytest.raises(Fold3dError, match=r"^mode assignment admits no motion \(smallest singular value"):
        network_multipliers(pat, one_b)
    with pytest.raises(Fold3dError, match=r"^mode assignment is degenerate"):
        network_multipliers(pat, dict.fromkeys(pat.interior_vertices, FoldMode.B))


def test_unlabeled_miura_signs_do_not_follow_rounding():
    # many creases tie at |g| = 1 and the SVD orders them by rounding, so the
    # sign must not follow whichever of them argmax meets first
    for n in range(2, 6):
        for angle in range(40, 90, 5):
            pat = gen_miura(n, n, math.radians(angle)).pattern
            lowest = pat.interior_creases[0]
            assert pat.creases[lowest].assignment == "V", (n, angle)
            assert network_multipliers(pat, infer_modes(pat))[lowest] > 1.0 - 1e-9


def test_sweep_modes_and_multipliers_agree():
    pat = gen_dl_miura(2, 2, math.radians(60), math.pi / 2)
    modes = infer_modes(pat)
    grid = np.linspace(0.0, 1.5, 7)
    a = sweep_motion(pat, modes, grid)
    b = sweep_motion(pat, None, grid, multipliers=network_multipliers(pat, modes))
    assert all(s.valid and s.residual < 1e-9 for s in a)
    for sa, sb in zip(a, b):
        assert sa.t == sb.t
        assert np.array_equal(sa.fold_angles, sb.fold_angles)
        # each sample keeps the placement its residual was measured on
        want = propagate_fold(pat, sb.fold_angles)
        assert np.array_equal(sb.rotations, want.rotations) and np.array_equal(sb.translations, want.translations)


def test_sweep_rejects_bad_multiplier_length():
    pat = gen_dl_miura(2, 2, math.radians(60), math.pi / 2)
    with pytest.raises(Fold3dError):
        sweep_motion(pat, None, [0.0, 0.5], multipliers=np.ones(3))


def test_solve_matches_closed_form():
    # both branches pass through flat, so negative targets are continued
    # from a small branch-pinning seed instead of the flat state
    pat = gen_miura(3, 3, math.radians(60)).pattern
    g = network_multipliers(pat, infer_modes(pat))
    driver = max(pat.interior_creases, key=lambda c: abs(g[c]))
    for sign in (1.0, -1.0):
        prev = 2.0 * np.arctan(g * sign * 0.02)
        for tk in (0.2, 0.45, 0.8, 1.6):
            t = sign * tk
            target = 2.0 * math.atan(g[driver] * t)
            solved = solve_fold_angles(pat, driver, target, initial_guess=prev)
            assert np.max(np.abs(solved - 2.0 * np.arctan(g * t))) < 1e-9
            prev = solved


def test_solve_cold_start_positive():
    pat = gen_miura(3, 3, math.radians(60)).pattern
    g = network_multipliers(pat, infer_modes(pat))
    driver = max(pat.interior_creases, key=lambda c: abs(g[c]))
    target = 2.0 * math.atan(g[driver] * 0.45)
    solved = solve_fold_angles(pat, driver, target)
    assert np.max(np.abs(solved - 2.0 * np.arctan(g * 0.45))) < 1e-9


def test_solve_zero_target():
    pat = gen_miura(3, 3, math.radians(60)).pattern
    solved = solve_fold_angles(pat, pat.interior_creases[0], 0.0)
    assert np.array_equal(solved, np.zeros(len(pat.creases)))


def test_solve_raises_on_broken_loop():
    pat = gen_miura(3, 3, math.radians(60)).pattern
    verts = list(pat.vertices)
    v0 = pat.interior_vertices[0]
    verts[v0] = (verts[v0][0] + 0.06, verts[v0][1] + 0.04)
    broken = CreasePattern.build(verts, pat.creases)
    with pytest.raises(SolveError):
        solve_fold_angles(broken, pat.interior_creases[0], 0.9)


def test_solve_rejects_boundary_driver():
    pat = gen_miura(3, 3, math.radians(60)).pattern
    boundary = next(ci for ci, c in enumerate(pat.creases) if c.assignment == "B")
    with pytest.raises(Fold3dError):
        solve_fold_angles(pat, boundary, 0.5)


@pytest.mark.parametrize("target", [math.pi + 1e-9, -4.0, 1e5, math.nan])
def test_solve_rejects_a_target_beyond_a_half_turn(target):
    pat = gen_miura(3, 3, math.radians(60)).pattern
    with pytest.raises(Fold3dError, match=r"outside \[-pi, pi\]"):
        solve_fold_angles(pat, pat.interior_creases[0], target)
    with pytest.raises(Fold3dError, match=r"outside \[-pi, pi\]"):
        solve_fold_angles(pat, pat.interior_creases[0], target, initial_guess=np.zeros(len(pat.creases)))


def test_export_obj_square():
    pat = CreasePattern.build(
        [(0, 0), (1, 0), (1, 1), (0, 1)],
        [Crease(0, 1, "B"), Crease(1, 2, "B"), Crease(2, 3, "B"), Crease(3, 0, "B")],
    )
    data = export_obj(propagate_fold(pat, [0.0] * 4))
    lines = data.splitlines()
    assert sum(1 for ln in lines if ln.startswith("v ")) == 4
    assert sum(1 for ln in lines if ln.startswith("f ")) == 2


def _obj_triangles(data):
    lines = data.splitlines()
    verts = np.array([[float(x) for x in ln.split()[1:]] for ln in lines if ln.startswith("v ")])
    faces = np.array([[int(i) - 1 for i in ln.split()[1:]] for ln in lines if ln.startswith("f ")])
    return verts[faces]


def test_export_obj_triangles_stay_inside_reflex_faces():
    # face 18 of this pattern is a reflex pentagon whose fan from corner 0
    # turns one triangle clockwise, outside the face
    pat = gen_dl_miura(3, 3, math.radians(60), math.pi / 2)
    tri = _obj_triangles(export_obj(propagate_fold(pat, [0.0] * len(pat.creases))))
    assert len(tri) == sum(len(f) - 2 for f in pat.faces)
    assert np.all(_signed_areas(tri) > 0.0)


def _signed_areas(tri):
    a, b = tri[:, 1, :2] - tri[:, 0, :2], tri[:, 2, :2] - tri[:, 0, :2]
    return (a[:, 0] * b[:, 1] - a[:, 1] * b[:, 0]) / 2.0


def test_export_obj_meshes_a_face_without_a_fan_corner():
    # a C-shaped face of area 7: from every corner some fan triangle turns
    # clockwise, but ear clipping meshes every simple polygon
    pts = [(0, 0), (3, 0), (3, 1), (1, 1), (1, 2), (3, 2), (3, 3), (0, 3)]
    pat = CreasePattern.build(pts, [Crease(i, (i + 1) % 8, "B") for i in range(8)])
    areas = _signed_areas(_obj_triangles(export_obj(propagate_fold(pat, [0.0] * 8))))
    assert len(areas) == 6 and np.all(areas > 0.0)
    assert math.isclose(areas.sum(), 7.0)


def test_export_obj_welds_and_is_deterministic():
    pat = gen_dl_miura(2, 2, math.radians(60), math.pi / 2)
    g = network_multipliers(pat, infer_modes(pat))
    state = propagate_fold(pat, 2.0 * np.arctan(g * 0.4))
    data = export_obj(state)
    n_v = sum(1 for ln in data.splitlines() if ln.startswith("v "))
    assert n_v == len(pat.vertices)
    assert export_obj(state) == data
