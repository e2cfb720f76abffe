"""The one mode step of every doubled pattern: corner branches, the per-corner
certificate, M/V labels and the record's mode fields (dl.write_mode)."""
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from doubleline import (
    GENERIC_MODES,
    MODE_A1,
    DlError,
    DLMode,
    DoubleLineParams,
    VertexStar,
    construct_dl,
    construct_symmetric_dl,
    load_fold,
    mode_vector,
    pattern_multipliers,
    propagate_fold,
    read_record,
    save_fold,
    vertex_star,
)
from doubleline.dl import fix_mode, write_mode

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
    except DlError:  # a corner inverts: radii too small for this theta
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
    assert read_record(write_mode(pat, rec, signs, scales, g)).multipliers == tuple(g.tolist())
    for original, plus, minus in rec.pairs:
        bad = g.copy()
        bad[plus if ray == "plus" else minus] *= 1.0 + 1e-4
        with pytest.raises(DlError, match=rf"^doubled pairs disagree at crease {original}: corner \d+ of vertex 0 "
                                          r"is off its branch by \d\.\d{3}e-\d\d$"):
            write_mode(pat, rec, signs, scales, bad)


def test_a_wrong_sign_is_refused_by_the_certificate():
    pat = _doubled(star_of(deg(60, 80, 120, 100)), 4)
    rec = read_record(pat)
    g = pattern_multipliers(pat, MODE_A1)
    with pytest.raises(DlError, match="^doubled pairs disagree at crease 0: corner 0 of vertex 0"):
        write_mode(pat, rec, {0: "++--"}, {0: 1.0}, g)


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
