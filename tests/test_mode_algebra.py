"""The generic-mode table and the branch rule against the hand-written
algebra they replaced, and the corner branches of doubled networks."""
import math

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import mode_algebra_reference as ref
from doubleline import (
    GENERIC_MODES,
    DlError,
    DoubleLineRatio,
    KinematicsError,
    axis_class,
    connect_dl,
    corner_coefficients,
    critical_thetas,
    dl_multipliers,
    gen_dl_miura,
    gen_dl_yoshimura,
    gen_miura,
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
    _same(dl_multipliers, lambda *args: ref.dl_multipliers(*args)[0], sectors, mode.signs, theta)
    _same(corner_coefficients, ref.corner_coefficients, mode, alpha, beta, theta)
    try:
        closure = ref.dl_multipliers(sectors, mode.signs, theta)[1]
    except DlError:  # a corner's side coefficient vanishes: a pole
        return
    assert _closes(mode.signs, sectors, theta) == (closure <= 1e-9)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(mode=st.sampled_from(GENERIC_MODES), alpha=_ANGLE, beta=_ANGLE, theta=_ANGLE)
def test_every_doubled_pair_is_its_table_pair(mode, alpha, beta, theta):
    try:
        mult = dl_multipliers((alpha, beta, math.pi - alpha, math.pi - beta), mode.signs, theta)
    except DlError:  # a corner's side coefficient vanishes at this θ
        assume(False)
    pairs = dict(zip(("major", "minor"), _mode_pairs(mode, alpha, beta, theta)))
    for axis in range(4):
        cls, reversed_ = axis_class(mode, axis)
        want = pairs[cls][::-1] if reversed_ else pairs[cls]
        got = (mult.rays_plus[axis], mult.rays_minus[axis])
        assume(any(want) and any(got))
        assert DoubleLineRatio(*got).distance(DoubleLineRatio(*want)) <= 1e-12


def _doubled_networks():
    r = math.radians
    for rows, cols in ((2, 2), (2, 3), (3, 3), (3, 4), (4, 4), (4, 5)):
        for angle, theta in ((60, 90), (70, 90), (65, 80)):
            yield gen_dl_miura(rows, cols, r(angle), r(theta))
    yield gen_dl_miura(3, 3, r(70), r(60))
    yield gen_dl_miura(3, 3, r(70), r(120))
    yield gen_dl_yoshimura(2, 4, 1.5, r(90))
    yield gen_dl_yoshimura(3, 3, 1.5, r(90))
    for cols in (3, 4, 5):
        yield connect_dl(gen_miura(2, cols, r(60)), r(90))


def test_corner_branch_parity_rule_matches_the_projection():
    corners = 0
    for pattern in _doubled_networks():
        rec = read_record(pattern)
        assert ref.projected_corner_branches(pattern, rec) == dict(rec.corner_modes)
        corners += len(rec.corner_modes)
    assert corners >= 500
