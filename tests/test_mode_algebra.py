"""The generic-mode table and the branch rule against the hand-written
algebra they replaced, the recorded motion's doubled pairs against the
table, and the corner branches of doubled networks."""
import functools
import math

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import mode_algebra_reference as ref
from doubleline import (
    GENERIC_MODES,
    DlError,
    DoubleLineParams,
    DoubleLineRatio,
    KinematicsError,
    VertexStar,
    axis_class,
    connect_dl,
    construct_dl,
    corner_coefficients,
    critical_thetas,
    gen_dl_miura,
    gen_dl_yoshimura,
    gen_miura,
    pattern_multipliers,
    read_record,
)
from doubleline.dl import _closes, _mode_pairs, _ratio_polynomial

_ANGLE = st.floats(min_value=math.radians(1.0), max_value=math.radians(179.0))
_RATIO = st.floats(min_value=-10.0, max_value=10.0)


def _same(new, old, *args):
    """new(*args) == old(*args), or both raise the same error type."""
    try:
        want = old(*args)
    except (DlError, KinematicsError) as exc:
        with pytest.raises(type(exc)):
            new(*args)
        return
    assert new(*args) == want


@settings(max_examples=300, deadline=None, derandomize=True)
@given(mode=st.sampled_from(GENERIC_MODES), alpha=_ANGLE, beta=_ANGLE, theta=_ANGLE, f=_RATIO, s=_RATIO)
def test_table_equals_the_hand_written_algebra(mode, alpha, beta, theta, f, s):
    _same(_mode_pairs, ref.mode_pairs, mode, alpha, beta, theta)
    _same(critical_thetas, ref.critical_thetas, mode, alpha, beta)
    for axis in ("major", "minor"):
        _same(_ratio_polynomial, ref.ratio_polynomial, mode, axis, alpha, beta, f, s)
    sectors = (alpha, beta, math.pi - alpha, math.pi - beta)
    _same(corner_coefficients, ref.corner_coefficients, mode, alpha, beta, theta)
    try:
        closure = ref.dl_multipliers(sectors, mode.signs, theta)[1]
    except DlError:  # a corner's side coefficient vanishes: a pole
        return
    assert _closes(mode.signs, sectors, theta) == (closure <= 1e-9)


def _table_pair(mode, axis, alpha, beta, theta):
    """The (ray^+, ray^-) pair the mode table gives one star axis."""
    cls, reversed_ = axis_class(mode, axis)
    pair = dict(zip(("major", "minor"), _mode_pairs(mode, alpha, beta, theta)))[cls]
    return DoubleLineRatio(*pair[::-1]) if reversed_ else DoubleLineRatio(*pair)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(mode=st.sampled_from(GENERIC_MODES), alpha=_ANGLE, beta=_ANGLE, theta=_ANGLE)
def test_every_doubled_pair_is_its_table_pair(mode, alpha, beta, theta):
    star = VertexStar.from_sectors([alpha, beta, math.pi - alpha, math.pi - beta])
    try:
        pattern = construct_dl(star, DoubleLineParams(theta, (1.0,) * 4))
        g = pattern_multipliers(pattern, mode)
    except DlError:  # a pair does not separate, or the mode has a pole at this θ
        assume(False)
    for axis, (plus, minus) in enumerate(read_record(pattern).axes):
        want, got = _table_pair(mode, axis, alpha, beta, theta), (g[plus], g[minus])
        assume(any(got) and (want.first or want.second))
        assert DoubleLineRatio(*got).distance(want) <= 1e-12


@functools.cache
def _doubled_networks():
    """Doubled Miura and Yoshimura networks, built once for the tests that read them."""
    r = math.radians
    nets = [gen_dl_miura(rows, cols, r(angle), r(theta))
            for rows, cols in ((2, 2), (2, 3), (3, 3), (3, 4), (4, 4), (4, 5))
            for angle, theta in ((60, 90), (70, 90), (65, 80))]
    nets += [gen_dl_miura(3, 3, r(70), r(60)), gen_dl_miura(3, 3, r(70), r(120)),
             gen_dl_yoshimura(2, 4, 1.5, r(90)), gen_dl_yoshimura(3, 3, 1.5, r(90))]
    return tuple(nets + [connect_dl(gen_miura(2, cols, r(60)), r(90)) for cols in (3, 4, 5)])


def test_the_connector_matches_every_shared_pair_by_the_recorded_motion():
    # each end's table pair, at its recorded mode and θ, is the recorded pair: the owner's ray^+ is the far end's ray^-
    modes = {"".join(m.signs): m for m in GENERIC_MODES}
    shared = 0
    for pattern in _doubled_networks():
        rec = read_record(pattern)
        g = rec.multipliers
        corner_of = {cv: (v, i) for v, corners in rec.corners.items() for i, cv in enumerate(corners)}
        for _, plus, minus in rec.pairs:
            (u, i), far = corner_of[pattern.creases[plus].v0], corner_of.get(pattern.creases[plus].v1)
            if far is None:
                continue
            w, j = far[0], (far[1] + 1) % 4
            for v, axis, got in ((u, i, (g[plus], g[minus])), (w, j, (g[minus], g[plus]))):
                alpha, beta = rec.sectors[v][:2]
                want = _table_pair(modes[rec.signs[v]], axis, alpha, beta, rec.thetas[v])
                assert DoubleLineRatio(*got).distance(want) <= 1e-12
            shared += 1
    assert shared >= 150


def test_corner_branch_parity_rule_matches_the_projection():
    corners = 0
    for pattern in _doubled_networks():
        rec = read_record(pattern)
        assert ref.projected_corner_branches(pattern, rec) == dict(rec.corner_modes)
        corners += len(rec.corner_modes)
    assert corners >= 500
