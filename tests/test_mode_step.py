"""The one mode step of every doubled pattern: corner branches, the motion
certificate, M/V labels and the record's mode fields (dl.write_mode)."""
import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from doubleline import (
    GENERIC_MODES,
    MODE_A1,
    Crease,
    CreasePattern,
    DlError,
    DLMode,
    DoubleLineParams,
    FoldMode,
    VertexStar,
    construct_dl,
    construct_symmetric_dl,
    flat_fold_parameter,
    load_fold,
    mode_vector,
    pattern_multipliers,
    propagate_fold,
    read_record,
    save_fold,
    sweep_motion,
    vertex_star,
)
from doubleline.dl import _certify, fix_mode, write_mode, write_record

import fix_mode_reference as ref
from conftest import deg, star_of


def _outcome(fn, *args):
    try:
        return save_fold(fn(*args))
    except DlError as exc:
        return type(exc)


def _degrees(lo, hi):
    return st.floats(min_value=math.radians(lo), max_value=math.radians(hi))


@settings(max_examples=80, deadline=None, derandomize=True)
@given(alpha=_degrees(5, 175), beta=_degrees(5, 175), theta=_degrees(5, 175),
       radii=st.tuples(*[st.floats(min_value=0.05, max_value=3.0)] * 4))
def test_fix_mode_writes_the_reference_bytes(alpha, beta, theta, radii):
    star = VertexStar.from_sectors([alpha, beta, math.pi - alpha, math.pi - beta])
    try:
        pat = construct_dl(star, DoubleLineParams(theta, radii))
    except DlError:  # a pair does not separate: radii too small for this theta
        return
    for mode in GENERIC_MODES:
        assert _outcome(fix_mode, pat, mode) == _outcome(ref.fix_mode, pat, mode), mode.label


def _doubled(star, n):
    return construct_dl(star, DoubleLineParams(math.pi / 2, (0.2,) * n))


@pytest.mark.parametrize("ray", ["plus", "minus"])
def test_a_multiplier_off_its_branch_is_refused_naming_the_crease(ray):
    pat = _doubled(star_of(deg(60, 80, 120, 100)), 4)
    rec = read_record(pat)
    g = pattern_multipliers(pat, MODE_A1)
    signs, scales = {0: "".join(MODE_A1.signs)}, {0: 1.0}
    assert read_record(write_mode(pat, rec, signs, scales)).multipliers == tuple(g.tolist())
    for original, plus, minus in rec.pairs:
        bad = g.copy()
        bad[plus if ray == "plus" else minus] *= 1.0 + 1e-4
        with pytest.raises(DlError, match=rf"^doubled pairs disagree at crease {original}: corner \d+ of vertex 0 "
                                          r"is off its branch by \d\.\d{3}e-\d\d$"):
            _certify(pat, rec, signs, bad)


def test_a_wrong_sign_is_refused_by_the_certificate():
    pat = _doubled(star_of(deg(60, 80, 120, 100)), 4)
    rec = read_record(pat)
    g = pattern_multipliers(pat, MODE_A1)
    with pytest.raises(DlError, match="^doubled pairs disagree at crease 0: corner 0 of vertex 0"):
        _certify(pat, rec, {0: "++--"}, g)


def test_a_vertex_whose_spokes_are_not_numbered_in_turn_folds_by_its_own_star():
    alpha, beta = deg(60, 80)
    azimuths = (0.0, alpha, alpha + beta, math.pi + beta)
    spokes = [Crease(0, 1 + k) for k in (0, 2, 1, 3)]  # counterclockwise the spokes read 0, 2, 1, 3
    ring = [Crease(1 + k, 1 + (k + 1) % 4, "B") for k in range(4)]
    single = CreasePattern.build([(0.0, 0.0)] + [(math.cos(a), math.sin(a)) for a in azimuths], spokes + ring)
    star = vertex_star(single, 0)
    assert star.crease_ids == (0, 2, 1, 3)
    pat = _doubled(star, 4)
    g = pattern_multipliers(pat, MODE_A1)
    folded = fix_mode(pat, MODE_A1)
    rec = read_record(folded)
    assert np.array_equal(np.array(rec.multipliers), g)
    # placement follows each pair's corners, not the order the record lists the pairs in
    shuffled = write_record(pat, replace(read_record(pat), pairs=tuple(sorted(rec.pairs))))
    assert np.array_equal(pattern_multipliers(shuffled, MODE_A1), g)
    ts = np.linspace(0.05, 0.97 * flat_fold_parameter(folded, g), 9)
    assert max(s.residual for s in sweep_motion(folded, None, ts, multipliers=g)) < 1e-9
    # the pair sums fold the original star along its branch a: tan(S_c / 2) = e_c * s
    e = np.array(mode_vector(star, FoldMode.A))
    pair_of = {c: (plus, minus) for c, plus, minus in rec.pairs}
    for t in ts:
        tans = np.array([math.tan(math.atan(g[pair_of[c][0]] * t) + math.atan(g[pair_of[c][1]] * t))
                         for c in star.crease_ids])
        assert np.max(np.abs(tans - (tans @ e) / (e @ e) * e)) < 1e-9 * np.max(np.abs(tans))


@pytest.mark.parametrize("signs", ["+-+-+-", "++-+--", "+++---", "+--+-+"])
def test_a_doubled_degree6_vertex_carries_a_certified_mode(signs):
    pat = fix_mode(construct_symmetric_dl(3), DLMode(signs, tuple(signs)))
    rec = read_record(load_fold(save_fold(pat)))
    (v,) = rec.corners
    assert rec.signs == {v: signs} and rec.scales == {v: 1.0}
    g = np.array(rec.multipliers)
    for i, corner in enumerate(rec.corners[v]):
        star = vertex_star(pat, corner)
        # the construction numbers every corner's star from its ray_i^+, so each corner takes its own sign's branch
        assert rec.corner_modes[corner].value == ("a" if signs[i] == "-" else "b")
        e = np.array(mode_vector(star, rec.corner_modes[corner]))
        k = g[list(star.crease_ids)] @ e / (e @ e)
        assert np.max(np.abs(g[list(star.crease_ids)] - k * e)) < 1e-12
    assert {c.assignment for c, m in zip(pat.creases, g) if m} == {"M", "V"}
    for t in (0.5, 2.0):
        assert propagate_fold(pat, 2.0 * np.arctan(g * t)).residual < 1e-9


def test_a_sequence_that_does_not_close_or_fit_is_refused():
    pat = construct_symmetric_dl(3)
    with pytest.raises(DlError, match=r"^mode \+----- does not close on this vertex$"):
        fix_mode(pat, DLMode("+-----", tuple("+-----")))
    with pytest.raises(DlError, match="^mode a-I has 4 signs, pattern degree 6$"):
        fix_mode(pat, MODE_A1)
