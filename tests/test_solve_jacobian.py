"""The Newton solver's coloured Jacobian against one probe per crease, its
tan-half cold start against the step-by-step continuation, and the inputs
`sweep_motion` refuses."""
import math
from functools import cache

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import solve_reference as ref
from doubleline import (
    DlError,
    DoubleLineParams,
    Fold3dError,
    MODE_A1,
    SolveError,
    VertexStar,
    construct_dl,
    construct_symmetric_dl,
    fold3d,
    gen_dl_miura,
    gen_dl_yoshimura,
    gen_miura,
    infer_modes,
    network_multipliers,
    pattern_multipliers,
    solve_fold_angles,
    sweep_motion,
)

SECTORS = tuple(math.radians(a) for a in (60, 80, 120, 100))


@cache
def miura(n):
    return gen_miura(n, n, math.radians(60)).pattern


@cache
def doubled_vertex(radii):
    return construct_dl(VertexStar.from_sectors(SECTORS), DoubleLineParams(math.pi / 2, radii))


def miura33_driver():
    pat = miura(3)
    g = network_multipliers(pat, infer_modes(pat))
    return pat, g, max(pat.interior_creases, key=lambda c: abs(g[c]))


def assert_solves_as_reference(pat, driver, target, initial_guess=None):
    want = ref.solve_fold_angles(pat, driver, target, initial_guess)
    got = solve_fold_angles(pat, driver, target, initial_guess)
    assert np.array_equal(got, want)


@pytest.mark.parametrize("target_deg", [20.0, 57.0, 115.0, -69.0])
def test_miura_cold_starts_equal_the_reference(target_deg):
    pat, _, driver = miura33_driver()
    assert_solves_as_reference(pat, driver, math.radians(target_deg))


def test_miura_initial_guess_equals_the_reference():
    pat, g, driver = miura33_driver()
    prev = 2.0 * np.arctan(g * 0.02)
    for t in (0.2, 0.45, 0.8, 1.6):
        target = 2.0 * math.atan(g[driver] * t)
        assert_solves_as_reference(pat, driver, target, prev)
        prev = solve_fold_angles(pat, driver, target, initial_guess=prev)


@pytest.mark.parametrize("target_deg", [30.0, 90.0, 170.0])
def test_miura44_driver6_equals_the_reference(target_deg):
    # a branch-sensitive case: the flat state is a bifurcation point
    assert_solves_as_reference(miura(4), 6, math.radians(target_deg))


def test_doubled_vertex_equals_the_reference():
    pat = doubled_vertex((0.2,) * 4)
    driver = int(np.argmax(np.abs(pattern_multipliers(pat, MODE_A1))))
    assert_solves_as_reference(pat, driver, math.pi / 2)


@pytest.mark.parametrize("target_deg", [30.0, 90.0, 170.0])
def test_doubled_miura22_driver1_equals_the_reference(target_deg):
    pat = gen_dl_miura(2, 2, math.radians(60), math.pi / 2)
    assert_solves_as_reference(pat, 1, math.radians(target_deg))


@settings(max_examples=15, deadline=None, derandomize=True)
@given(
    target_deg=st.floats(5.0, 150.0),
    sign=st.sampled_from((1.0, -1.0)),
    radii=st.lists(st.floats(0.15, 0.3), min_size=4, max_size=4),
    driver=st.integers(0, 11),
)
def test_doubled_vertex_solves_equal_the_reference(target_deg, sign, radii, driver):
    try:
        pat = doubled_vertex(tuple(radii))
    except DlError:
        assume(False)
    target = math.radians(sign * target_deg)
    try:
        want = ref.solve_fold_angles(pat, driver, target)
    except SolveError as exc:
        with pytest.raises(SolveError) as got:
            solve_fold_angles(pat, driver, target)
        assert str(got.value) == str(exc)
        return
    assert np.array_equal(solve_fold_angles(pat, driver, target), want)


GENERATORS = {
    "miura33": lambda: miura(3),
    "miura44": lambda: miura(4),
    "dlm22": lambda: gen_dl_miura(2, 2, math.radians(60), math.pi / 2),
    "dlm33": lambda: gen_dl_miura(3, 3, math.radians(70), math.pi / 2),
    "dly24": lambda: gen_dl_yoshimura(2, 4, 1.5, math.pi / 2),
    **{f"dl_sym{n}": (lambda n=n: construct_symmetric_dl(n)) for n in range(3, 7)},
}


def free_creases(pat, driver):
    return np.array([ci for ci in pat.interior_creases if ci != driver], dtype=int)


class _FirstCall(Exception):
    pass


@pytest.mark.parametrize("name", GENERATORS)
def test_colouring_separates_the_creases_of_each_star(name):
    pat = GENERATORS[name]()
    stars = pat.interior_stars
    for driver in (pat.interior_creases[0], pat.interior_creases[-1]):
        free = free_creases(pat, driver)
        colour, star, column = fold3d._crease_colouring(stars, free)
        assert colour.shape == free.shape and np.all(colour >= 0)
        held = set()
        for k, s in enumerate(stars):
            js = [j for j, ci in enumerate(free) if ci in s.crease_ids]
            assert len({colour[j] for j in js}) == len(js)
            held.update((k, j) for j in js)
        assert sorted(zip(star.tolist(), column.tolist())) == sorted(held)


@pytest.mark.parametrize("name", GENERATORS)
def test_probes_move_one_colour_each_and_never_the_driver(name, monkeypatch):
    pat = GENERATORS[name]()
    driver = pat.interior_creases[len(pat.interior_creases) // 2]
    seen = []

    def first_call(stars, angles):
        seen.append(angles.copy())
        raise _FirstCall

    x0 = np.random.default_rng(5).uniform(-1.0, 1.0, len(pat.creases))
    monkeypatch.setattr(fold3d, "_closure_defects", first_call)
    with pytest.raises(_FirstCall):
        solve_fold_angles(pat, driver, 0.3, initial_guess=x0)
    (probes,) = seen
    free = free_creases(pat, driver)
    colour, _, _ = fold3d._crease_colouring(pat.interior_stars, free)
    base = probes[0]
    assert base[driver] == 0.3 and np.array_equal(np.delete(base, driver), np.delete(x0, driver))
    assert len(probes) == 1 + colour.max() + 1
    for k, probe in enumerate(probes[1:]):
        moved = np.flatnonzero(probe != base)
        assert moved.tolist() == sorted(free[colour == k].tolist())
        assert np.array_equal(probe[moved], base[moved] + 1e-7)


@pytest.mark.parametrize("name", GENERATORS)
def test_coloured_jacobian_is_the_per_column_jacobian(name):
    pat = GENERATORS[name]()
    stars = pat.interior_stars
    rng = np.random.default_rng(13)
    x = rng.uniform(-1.0, 1.0, len(pat.creases))
    free = free_creases(pat, pat.interior_creases[0])
    r, jac = fold3d._defects_and_jacobian(stars, free, fold3d._crease_colouring(stars, free), x, 1e-7)
    want_r = fold3d._closure_defects(stars, x[None]).ravel()
    assert np.array_equal(r, want_r)
    assert np.array_equal(jac, ref.jacobian(stars, free, x.copy(), want_r))
    assert np.count_nonzero(jac) > 0


TARGETS_DEG = (30.0, 90.0, 170.0, -120.0)


@cache
def dl_miura70(n):
    return gen_dl_miura(n, n, math.radians(70), math.pi / 2)


def continued(pat, driver, target):
    """ref.continuation's walk, each step a warm-started solve: bit for bit the
    reference's, since the initial-guess tests pin those solves to it."""
    x = np.zeros(len(pat.creases))
    for step in ref._drivers(target):
        x = solve_fold_angles(pat, driver, step, initial_guess=x)
    return x


def second_motion_condition(pat, driver, x):
    """Condition number of the per-column closure Jacobian at x over the creases free of the driver."""
    stars = pat.interior_stars
    free = [ci for ci in pat.interior_creases if ci != driver]
    r = fold3d._closure_defects(stars, x[None]).ravel()
    return np.linalg.cond(ref.jacobian(stars, free, x.copy(), r))


def assert_follows_the_continuation(pat, driver, target):
    """The cold start returns the continuation's state, or refuses as it does;
    a state where the driver leaves a second motion free is refused."""
    try:
        want = continued(pat, driver, target)
    except SolveError as exc:
        with pytest.raises(SolveError) as got:
            solve_fold_angles(pat, driver, target)
        assert str(got.value) == str(exc)
        return
    if second_motion_condition(pat, driver, want) >= fold3d.ONE_MOTION_COND:
        with pytest.raises(SolveError, match="second motion free .*condition number"):
            solve_fold_angles(pat, driver, target)
        return
    got = solve_fold_angles(pat, driver, target)
    assert np.max(np.abs(got - want)) < 1e-9


@pytest.mark.parametrize("target_deg", TARGETS_DEG)
@pytest.mark.parametrize("end", [0, -1])
@pytest.mark.parametrize("name", GENERATORS)
def test_cold_start_stays_on_the_continuation_branch(name, end, target_deg):
    pat = GENERATORS[name]()
    assert_follows_the_continuation(pat, pat.interior_creases[end], math.radians(target_deg))


@pytest.mark.parametrize("target_deg", TARGETS_DEG)
@pytest.mark.parametrize("driver", ["argmax", 0, -1])
@pytest.mark.parametrize("n", [2, 3, 4])
def test_dl_miura_cold_start_stays_on_the_continuation_branch(n, driver, target_deg):
    pat = dl_miura70(n)
    if driver == "argmax":
        g = network_multipliers(pat, infer_modes(pat))
        driver = int(np.argmax(np.abs(g)))
    else:
        driver = pat.interior_creases[driver]
    assert_follows_the_continuation(pat, driver, math.radians(target_deg))


# the polish lands on another branch, whose path misses the first step
@pytest.mark.parametrize("n, driver, target_deg", [(2, 8, -120.0)], ids=["dlm22-driver8--120"])
def test_uncertified_tan_half_path_falls_back_to_the_continuation(n, driver, target_deg):
    pat, target = dl_miura70(n), math.radians(target_deg)
    want = ref.continuation(pat, driver, target)
    assert second_motion_condition(pat, driver, want) < 10.0
    assert np.array_equal(continued(pat, driver, target), want)
    assert np.array_equal(solve_fold_angles(pat, driver, target), want)


def test_a_walk_that_ends_in_one_motion_answers():
    # the driver that leaves Miura 3x3 a second motion at 30 deg pins one at -69 deg
    pat = miura(3)
    driver, target = pat.interior_creases[-1], math.radians(-69.0)
    want = ref.continuation(pat, driver, target)
    assert second_motion_condition(pat, driver, want) < 10.0
    assert np.max(np.abs(solve_fold_angles(pat, driver, target) - want)) < 1e-9


@pytest.mark.parametrize("case", ["miura33-last-30", "miura44-last--120"])
def test_a_walk_left_in_a_second_motion_is_refused(case):
    # two straight fold lines: driven at its last interior crease, the
    # pattern keeps a second motion, and the walk drifts inside it
    n, target = (3, 30.0) if case == "miura33-last-30" else (4, -120.0)
    pat = miura(n)
    driver, target = pat.interior_creases[-1], math.radians(target)
    assert second_motion_condition(pat, driver, ref.continuation(pat, driver, target)) > 1e7
    with pytest.raises(SolveError, match=r"second motion free \(condition number 2\.[34]\d*e\+07 >= 100000\)"):
        solve_fold_angles(pat, driver, target)


@pytest.mark.parametrize("case", ["miura33", "dlm33"])
def test_cold_start_takes_few_jacobians(case, monkeypatch):
    if case == "miura33":
        pat, _, driver = miura33_driver()
    else:
        pat = dl_miura70(3)
        driver = int(np.argmax(np.abs(network_multipliers(pat, infer_modes(pat)))))
    calls = []
    inner = fold3d._defects_and_jacobian

    def counted(*args):
        calls.append(1)
        return inner(*args)

    monkeypatch.setattr(fold3d, "_defects_and_jacobian", counted)
    solve_fold_angles(pat, driver, math.radians(170.0))
    assert len(calls) <= 20  # the step-by-step continuation takes more than 250


def test_sweep_refuses_neither_modes_nor_multipliers():
    with pytest.raises(Fold3dError, match="needs modes .* or multipliers"):
        sweep_motion(miura(3), None, [0.0, 0.5])
