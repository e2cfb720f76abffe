"""The one mode step of every doubled pattern: corner branches, the corners'
motion, M/V labels and the record's mode fields (dl.write_mode)."""
import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from doubleline import (
    ALL_MODES,
    GENERIC_MODES,
    MODE_A1,
    MODE_A2,
    MODE_B2,
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
    gen_single_deg4,
    load_fold,
    mode_vector,
    pattern_multipliers,
    propagate_fold,
    read_record,
    save_fold,
    sweep_motion,
    vertex_star,
)
from doubleline.dl import _closes, fix_mode, write_mode, write_record

import fix_mode_reference as ref
import mode_algebra_reference
import network_reference
from conftest import deg, star_of


def _outcome(fn, *args):
    """(recorded multipliers, the file's bytes without them), or the error type."""
    try:
        pat = fn(*args)
    except DlError as exc:
        return type(exc)
    rec = read_record(pat)
    return np.array(rec.multipliers), save_fold(write_record(pat, replace(rec, multipliers=None)))


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
        got, want = _outcome(fix_mode, pat, mode), _outcome(ref.fix_mode, pat, mode)
        if not (isinstance(got, tuple) and isinstance(want, tuple)):
            assert got is want, mode.label
            continue
        (g, rest), (h, want_rest) = got, want
        assert np.max(np.abs(g - h)) <= 1e-12 * np.max(np.abs(h)), mode.label
        assert rest == want_rest, mode.label


def _doubled(star, n):
    return construct_dl(star, DoubleLineParams(math.pi / 2, (0.2,) * n))


def test_a_wrong_sign_is_refused_by_the_certificate():
    # every one-sign flip of a-I, refused where the reference placement and its per-corner fit refuse it
    pat = _doubled(star_of(deg(60, 80, 120, 100)), 4)
    rec = read_record(pat)
    g = pattern_multipliers(pat, MODE_A1)
    signs = {0: "".join(MODE_A1.signs)}
    assert read_record(write_mode(pat, rec, signs)).multipliers == tuple(g.tolist())
    for corner in range(4):
        flipped = {0: "".join("+-"[s == "+"] if i == corner else s for i, s in enumerate(signs[0]))}
        mults = {0: mode_algebra_reference.dl_multipliers(rec.sectors[0], flipped[0], rec.thetas[0])[0]}
        with pytest.raises(DlError, match=r"^doubled pairs disagree at crease \d: corner \d of vertex 0 is off "):
            network_reference._certify(pat, rec, flipped, network_reference._placed(pat, rec, mults, {0: 1.0}))
        with pytest.raises(DlError, match=r"^polygon side \d+ disagrees: corner \d+ folds it at "):
            write_mode(pat, rec, flipped)


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
    assert rec.signs == {v: signs}
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


def _verdicts(star, signs, theta):
    """Whether fix_mode and pattern_multipliers take the doubled star in the signs; None where construct_dl refuses."""
    try:
        pat = construct_dl(star, DoubleLineParams(theta, (0.3,) * star.degree))
    except DlError:  # a pair does not separate
        return None
    mode, out = DLMode(signs, tuple(signs)), []
    for step in (fix_mode, pattern_multipliers):
        try:
            step(pat, mode)
            out.append(True)
        except DlError:
            out.append(False)
    return tuple(out)


@st.composite
def _lone_vertices(draw):
    """(sectors, signs, θ): a flat-foldable degree-4 or a centrally symmetric degree-6 star, θ often critical.

    Angles are drawn in degrees, often whole ones: there a pole's p(σ, θ) can
    round to exactly 0.
    """
    a, b = (draw(st.floats(20, 80) | st.integers(20, 80)) for _ in range(2))
    if draw(st.booleans()):
        degrees = [a, b, 180 - a, 180 - b]
        signs = draw(st.sampled_from([m.signs for m in ALL_MODES]) | st.tuples(*[st.sampled_from("+-")] * 4))
    else:
        degrees = [60] * 6 if draw(st.booleans()) else [a, b, 180 - a - b] * 2
        signs = draw(st.permutations("+++---") | st.tuples(*[st.sampled_from("+-")] * 6))
    sigma = draw(st.sampled_from(degrees))
    theta = draw(st.sampled_from([sigma, 180 - sigma]) | st.just(90) | st.floats(20, 160))
    return np.radians(degrees).tolist(), "".join(signs), math.radians(theta)


@settings(max_examples=100, deadline=None, derandomize=True)
@given(lone=_lone_vertices(), turn=st.integers(0, 5), ulps=st.lists(st.sampled_from([-1, 0, 1]), min_size=6,
                                                                     max_size=6))
def test_a_lone_vertex_takes_a_mode_by_the_product_rule_whatever_its_numbering_and_rounding(lone, turn, ulps):
    sectors, signs, theta = lone
    n, k = len(sectors), turn % len(sectors)
    moved = [float(np.nextafter(s, s + u)) if u else s for s, u in zip(sectors, ulps)]
    got = _verdicts(VertexStar.from_sectors(sectors), signs, theta)
    other = _verdicts(VertexStar.from_sectors(moved[k:] + moved[:k]), signs[k:] + signs[:k], theta)
    if got is None or other is None:
        return
    rule = _closes(signs, sectors, theta)
    assert got == other == (rule, rule), (n, k)


def test_a_critical_theta_refuses_a_mode_with_a_pole_however_the_star_was_built():
    # θ 150° = π − 30°: p(30°, θ) = 0 at corner 0, a '-' corner of a-I
    message = "^mode a-I has a pole at corner 0: theta 150 deg is critical for its sector 30 deg$"
    params = DoubleLineParams(math.radians(150), (0.3,) * 4)
    for star in (VertexStar.from_sectors(np.radians([30, 10, 150, 170])),
                 vertex_star(gen_single_deg4(math.radians(30), math.radians(10)), 0)):
        pat = construct_dl(star, params)
        for step in (fix_mode, pattern_multipliers):
            with pytest.raises(DlError, match=message):
                step(pat, MODE_A1)


@pytest.mark.parametrize("mode", [MODE_A2, MODE_B2], ids=lambda m: m.label)
def test_the_turned_critical_star_refuses_a_mode_with_a_pole_whatever_corner_is_numbered_first(mode):
    pat = construct_dl(VertexStar.from_sectors(np.radians([170, 30, 10, 150])),
                       DoubleLineParams(math.radians(150), (0.3,) * 4))
    for step in (fix_mode, pattern_multipliers):
        with pytest.raises(DlError, match=rf"^mode {mode.label} has a pole at corner 1: theta 150 deg is critical "
                                          r"for its sector 30 deg$"):
            step(pat, mode)
