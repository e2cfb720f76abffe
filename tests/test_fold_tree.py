"""The face tree and star table compiled once per pattern, and the stacked
placement arrays, against the isometry walk they replaced."""
import math
import sys
from functools import cache, cached_property

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import fold_reference as ref
from doubleline import (
    CreasePattern,
    DoubleLineParams,
    MODE_A1,
    ThickPanelParams,
    construct_dl,
    construct_symmetric_dl,
    flat_fold_parameter,
    gen_dl_miura,
    gen_dl_yoshimura,
    gen_miura,
    gen_single_deg4,
    gen_yoshimura,
    infer_modes,
    network_multipliers,
    propagate_fold,
    read_record,
    solve_fold_angles,
    sweep_motion,
    thicken,
    vertex_star,
    watertight_gap,
)
from doubleline.dl import DLMode, fix_mode, pattern_multipliers

PATTERNS = ("miura33", "yoshimura23", "dlm22", "dlm33", "dlm44", "dly24", "dl_single", "dl_sym3")


@cache
def pattern_and_motion(name):
    """A pattern and the multipliers of its one-parameter motion."""
    if name == "miura33":
        pat = gen_miura(3, 3, math.radians(60)).pattern
    elif name == "yoshimura23":
        pat = gen_yoshimura(2, 3, 1.5).pattern
    elif name.startswith("dlm"):
        n = int(name[3])
        pat = gen_dl_miura(n, n, math.radians(60), math.pi / 2)
    elif name == "dly24":
        pat = gen_dl_yoshimura(2, 4, 1.5, math.pi / 2)
    elif name == "dl_single":
        star = vertex_star(gen_single_deg4(math.radians(60), math.radians(80)), 0)
        pat = fix_mode(construct_dl(star, DoubleLineParams(math.pi / 2, (0.2,) * 4)), MODE_A1)
    else:
        pat = construct_symmetric_dl(3)
        return pat, pattern_multipliers(pat, DLMode("sym", tuple("+-+-+-")))
    rec = read_record(pat)
    if rec is not None and rec.multipliers is not None:
        return pat, np.array(rec.multipliers)
    return pat, network_multipliers(pat, infer_modes(pat))


def _t_max(pat, g):
    t_flat = flat_fold_parameter(pat, g)
    return 0.97 * t_flat if t_flat is not None else 1.0


def assert_matches_reference(pat, angles):
    state = propagate_fold(pat, angles)
    isometries, residual = ref.propagate_fold(pat, angles)
    assert np.array_equal(state.rotations, np.array([iso.rot for iso in isometries]))
    assert np.array_equal(state.translations, np.array([iso.trans for iso in isometries]))
    assert state.residual == residual
    return state


@pytest.mark.parametrize("name", PATTERNS)
def test_propagate_fold_equals_the_isometry_walk(name):
    pat, g = pattern_and_motion(name)
    for t in np.linspace(0.0, _t_max(pat, g), 5):
        assert assert_matches_reference(pat, 2.0 * np.arctan(g * t)).valid
    rng = np.random.default_rng(7)
    assert not assert_matches_reference(pat, rng.uniform(-1.0, 1.0, len(pat.creases))).valid


@settings(max_examples=120, deadline=None, derandomize=True)
@given(
    name=st.sampled_from(PATTERNS),
    t=st.floats(-3.0, 3.0),
    noise=st.lists(st.floats(-math.pi, math.pi), min_size=1, max_size=16),
    on_motion=st.booleans(),
)
def test_random_angle_vectors_fold_as_the_isometry_walk(name, t, noise, on_motion):
    pat, g = pattern_and_motion(name)
    angles = 2.0 * np.arctan(g * t)
    if not on_motion:
        angles = angles + np.resize(noise, len(angles))
    assert_matches_reference(pat, angles)


@pytest.mark.parametrize("name", ["dlm22", "dlm33", "dl_single"])
@pytest.mark.parametrize("side", ["above", "below"])
def test_watertight_gap_equals_the_isometry_placement(name, side):
    pat, g = pattern_and_motion(name)
    motion = sweep_motion(pat, None, np.linspace(0.0, 0.9 * _t_max(pat, g), 5), multipliers=g)
    solids = thicken(pat, motion, ThickPanelParams(0.002, side=side, enforce_bound=False))
    assert watertight_gap(solids) == ref.watertight_gap(solids)


@settings(max_examples=20, deadline=None, derandomize=True)
@given(
    name=st.sampled_from(("miura33", "yoshimura23", "dlm22", "dlm33", "dl_single")),
    fractions=st.lists(st.floats(-1.0, 1.0), min_size=1, max_size=39),
    zero_at=st.integers(0, 39),
)
def test_stacked_sweep_is_each_sample_folded_alone(name, fractions, zero_at):
    pat, g = pattern_and_motion(name)
    grid = [f * _t_max(pat, g) for f in fractions]
    grid.insert(zero_at, 0.0)
    motion = sweep_motion(pat, None, grid, multipliers=g)
    assert [s.t for s in motion] == grid
    for s in motion:
        state = propagate_fold(pat, s.fold_angles)
        assert np.array_equal(s.fold_angles, 2.0 * np.arctan(g * s.t))
        assert np.array_equal(s.rotations, state.rotations) and np.array_equal(s.translations, state.translations)
        assert s.residual == state.residual
        isometries, residual = ref.propagate_fold(pat, s.fold_angles)
        assert np.max(np.abs(s.rotations - [iso.rot for iso in isometries])) <= 1e-12
        assert np.max(np.abs(s.translations - [iso.trans for iso in isometries])) <= 1e-12
        assert abs(s.residual - residual) <= 1e-12
    # every sample is a view into one stack
    assert all(s.rotations.base is motion[0].rotations.base is not None for s in motion)


def test_sweep_samples_are_their_folded_states():
    pat, g = pattern_and_motion("dlm22")
    for s in sweep_motion(pat, None, [0.0, 0.3, 0.6], multipliers=g):
        state = propagate_fold(pat, s.fold_angles)
        assert np.array_equal(s.rotations, state.rotations) and s.residual == state.residual
        assert not (s.rotations.flags.writeable or s.translations.flags.writeable or s.fold_angles.flags.writeable)


def test_folding_topology_is_compiled_once(monkeypatch):
    pat = gen_dl_miura(2, 2, math.radians(60), math.pi / 2)
    modes = infer_modes(pat)
    g = network_multipliers(pat, modes)
    propagate_fold(pat, np.zeros(len(pat.creases)))
    fresh = CreasePattern.build(pat.vertices, pat.creases)

    def refuse(*args):
        raise AssertionError("folding topology rebuilt")

    for name, module in list(sys.modules.items()):
        if name.startswith("doubleline") and hasattr(module, "vertex_star"):
            monkeypatch.setattr(module, "vertex_star", refuse)
    for name in ("face_tree", "interior_stars", "_walks", "_ccw_creases"):
        prop = cached_property(refuse)
        prop.__set_name__(CreasePattern, name)
        monkeypatch.setattr(CreasePattern, name, prop)

    propagate_fold(pat, 2.0 * np.arctan(g * 0.5))
    sweep_motion(pat, modes, [0.0, 0.5])
    assert np.array_equal(network_multipliers(pat, modes), g)
    solve_fold_angles(pat, pat.interior_creases[0], 0.3)
    with pytest.raises(AssertionError, match="rebuilt"):  # a pattern not yet folded compiles
        propagate_fold(fresh, np.zeros(len(fresh.creases)))
