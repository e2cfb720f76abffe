"""One propagation of mode-vector scales (kinematics.crease_motion) serves
fold3d.network_multipliers and the motion every doubled pattern records
(dl.write_mode); both are held to the SVD, and to the placement and its
per-corner fit, that they replaced (network_reference)."""
import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from doubleline import (
    GENERIC_MODES,
    Crease,
    CreasePattern,
    DlError,
    DoubleLineParams,
    Fold3dError,
    FoldMode,
    VertexStar,
    construct_dl,
    gen_dl_miura,
    gen_dl_yoshimura,
    gen_miura,
    gen_yoshimura,
    infer_modes,
    network_multipliers,
    read_record,
)
from doubleline.dl import fix_mode, write_mode

import mode_algebra_reference
import network_reference as ref


def _degrees(lo, hi):
    return st.floats(min_value=math.radians(lo), max_value=math.radians(hi))


def _outcome(fn, *args):
    try:
        return fn(*args)
    except Fold3dError as exc:
        return type(exc)


_MIURA = st.builds(lambda r, c, a: gen_miura(r, c, a).pattern, st.integers(2, 6), st.integers(2, 6), _degrees(30, 85))
_YOSHIMURA = st.builds(lambda r, c, e: gen_yoshimura(r, c, e).pattern,
                       st.integers(1, 3), st.integers(2, 4), st.floats(min_value=1.2, max_value=3.0))


def _doubled(draw):
    """A doubled Miura or Yoshimura network in its recorded corner modes, or None where connect_dl refuses it."""
    rows, cols = draw(st.integers(2, 3)), draw(st.integers(2, 3))
    try:
        if draw(st.booleans()):
            return gen_dl_miura(rows, cols, draw(_degrees(40, 80)), draw(_degrees(70, 110)))
        return gen_dl_yoshimura(rows, cols, draw(st.floats(min_value=1.2, max_value=2.0)), math.pi / 2)
    except DlError:  # no workable radii, or a loop that does not close at this θ
        return None


@settings(max_examples=60, deadline=None, derandomize=True)
@given(data=st.data(), family=st.sampled_from(["miura", "yoshimura", "doubled"]))
def test_network_multipliers_equal_the_null_space_of_the_stacked_constraints(data, family):
    pattern = data.draw(_MIURA) if family == "miura" else data.draw(_YOSHIMURA) if family == "yoshimura" \
        else _doubled(data.draw)
    if pattern is None:
        return
    modes = infer_modes(pattern)
    got, want = _outcome(network_multipliers, pattern, modes), _outcome(ref.network_multipliers, pattern, modes)
    if not isinstance(want, np.ndarray):
        assert got is want
        return
    assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))
    moving = np.abs(want) > 1e-12
    assert np.array_equal(np.sign(got[moving]), np.sign(want[moving]))


def _written(pattern, record, signs):
    """write_mode's (multipliers, corner branches), or DlError where it refuses."""
    try:
        rec = read_record(write_mode(pattern, record, signs))
    except DlError:
        return DlError
    return np.array(rec.multipliers), dict(rec.corner_modes)


def _placed(pattern, record, signs):
    """The reference placement of the signs at their matched scales, certified by the per-corner fit, or DlError."""
    try:
        mults = {v: mode_algebra_reference.dl_multipliers(record.sectors[v], signs[v], record.thetas[v])[0]
                 for v in record.corners}
        g = ref._placed(pattern, record, mults, ref._matched_scales(pattern, record, mults))
        return g, ref._certify(pattern, record, signs, g)
    except DlError:
        return DlError


def _same_record(pattern, record, signs):
    """write_mode refuses exactly where the reference does; otherwise it records the reference placement."""
    got, want = _written(pattern, record, signs), _placed(pattern, record, signs)
    if want is DlError or got is DlError:
        assert got is want
        return
    (g, branches), (h, fitted) = got, want
    assert np.max(np.abs(g - h)) <= 1e-12 * np.max(np.abs(h))
    assert np.array_equal(np.sign(g), np.sign(h)) and np.array_equal(g == 0.0, h == 0.0)
    assert branches == fitted


def _single(draw):
    """A doubled degree-4 vertex in a generic mode, or None where construct_dl or fix_mode refuses it."""
    alpha, beta, theta = draw(_degrees(20, 160)), draw(_degrees(20, 160)), draw(_degrees(30, 150))
    star = VertexStar.from_sectors([alpha, beta, math.pi - alpha, math.pi - beta])
    try:
        return fix_mode(construct_dl(star, DoubleLineParams(theta, (0.3,) * 4)), draw(st.sampled_from(GENERIC_MODES)))
    except DlError:
        return None


@settings(max_examples=80, deadline=None, derandomize=True)
@given(data=st.data(), network=st.booleans(), flip=st.booleans())
def test_the_certificate_refuses_exactly_what_the_per_corner_fit_refuses(data, network, flip):
    pattern = _doubled(data.draw) if network else _single(data.draw)
    if pattern is None:
        return
    rec = read_record(pattern)
    signs = dict(rec.signs)
    if flip:
        v = data.draw(st.sampled_from(sorted(signs)))
        i = data.draw(st.integers(0, len(signs[v]) - 1))
        signs[v] = signs[v][:i] + "+-"[signs[v][i] == "+"] + signs[v][i + 1:]
    _same_record(pattern, rec, signs)


@pytest.mark.parametrize("build", [
    lambda: gen_dl_miura(3, 3, math.radians(60), math.pi / 2),
    lambda: gen_dl_yoshimura(2, 3, 1.5, math.pi / 2),
    lambda: fix_mode(construct_dl(VertexStar.from_sectors(np.radians([60, 80, 120, 100])),
                                  DoubleLineParams(math.pi / 2, (0.2,) * 4)), GENERIC_MODES[0]),
])
def test_the_certificate_gives_every_corner_the_branch_the_per_corner_fit_gave(build):
    pattern = build()
    rec = read_record(pattern)
    _same_record(pattern, rec, rec.signs)
    assert _written(pattern, rec, rec.signs)[1] == dict(rec.corner_modes)


@pytest.mark.parametrize("mode", GENERIC_MODES, ids=lambda m: m.label)
def test_a_corner_its_neighbours_hold_flat_stays_flat(mode):
    # θ = 150° is critical at corners 0 and 2 (p(30°, θ) = q(150°, θ) = 0): in a-I and b-II they hold both
    # sides of corner 3 flat, which corner 3 moves, so corner 3 stays flat, scale 0, as the SVD finds
    star = VertexStar.from_sectors(np.radians([30, 10, 150, 170]))
    laid = construct_dl(star, DoubleLineParams(math.radians(150), (0.3,) * 4))
    pattern = write_mode(laid, read_record(laid), {0: "".join(mode.signs)})
    modes = infer_modes(pattern)
    got, want = network_multipliers(pattern, modes), ref.network_multipliers(pattern, modes)
    assert np.max(np.abs(got - want)) <= 1e-12 and np.array_equal(got == 0.0, np.abs(want) <= 1e-12)
    g = np.array(read_record(pattern).multipliers)
    assert np.array_equal(g == 0.0, got == 0.0)


def _same_motion(pattern, modes):
    """network_multipliers' outcome, required to be the oracle's."""
    got, want = _outcome(network_multipliers, pattern, modes), _outcome(ref.network_multipliers, pattern, modes)
    if isinstance(want, np.ndarray):
        assert np.max(np.abs(got - want)) <= 1e-12 and np.array_equal(got == 0.0, np.abs(want) <= 1e-12)
    else:
        assert got is want
    return got


def test_a_held_flat_corner_numbered_first_stays_flat():
    # the star above turned by one sector: corner 0, the lowest vertex, is now the one its neighbours hold flat
    # in some branch assignments (a-II's and b-II's among them), so no spread from it would reach the other corners
    star = VertexStar.from_sectors(np.radians([170, 30, 10, 150]))
    pattern = construct_dl(star, DoubleLineParams(math.radians(150), (0.3,) * 4))
    lowest = pattern.interior_stars[0].crease_ids
    flat_lowest = 0
    for branches in itertools.product(FoldMode, repeat=4):
        g = _same_motion(pattern, dict(zip(pattern.interior_vertices, branches)))
        flat_lowest += isinstance(g, np.ndarray) and not g[list(lowest)].any()
    assert flat_lowest >= 2


def _two_crossings(first):
    """Two crossings of straight creases at (0, 0) and (1, 0), sharing the crease between them; vertex 0 is `first`."""
    ring = [(-1, -1), (0, -1), (1, -1), (2, -1), (2, 0), (2, 1), (1, 1), (0, 1), (-1, 1), (-1, 0)]
    at = {(0, 0): 0, (1, 0): 1} if first == (0, 0) else {(1, 0): 0, (0, 0): 1}
    at.update((p, 2 + k) for k, p in enumerate(ring))
    lines = [((0, 0), (1, 0)), ((0, 0), (-1, 0)), ((0, 0), (0, -1)), ((0, 0), (0, 1)),
             ((1, 0), (2, 0)), ((1, 0), (1, -1)), ((1, 0), (1, 1))]
    creases = [Crease(at[a], at[b]) for a, b in lines]
    creases += [Crease(at[p], at[q], "B") for p, q in zip(ring, ring[1:] + ring[:1])]
    return CreasePattern.build(sorted(at, key=at.get), creases)


@pytest.mark.parametrize("first", [(0, 0), (1, 0)])
def test_a_vertex_held_flat_by_its_neighbour_stays_flat_in_either_numbering(first):
    # each crossing folds one of its two lines; where one folds the shared line and the other holds it flat,
    # the first must stay flat and the second folds alone, whichever of them is numbered first
    pattern = _two_crossings(first)
    alone = 0
    for branches in itertools.product(FoldMode, repeat=2):
        g = _same_motion(pattern, dict(zip(pattern.interior_vertices, branches)))
        alone += isinstance(g, np.ndarray) and g[0] == 0.0 and np.count_nonzero(g) == 2
    assert alone == 2


def test_a_polygon_side_off_its_branch_is_refused_by_its_own_id():
    # a lone vertex whose signs do not close: the side that closes its loop is off its branch
    star = VertexStar.from_sectors(np.radians([60, 80, 120, 100]))
    pattern = construct_dl(star, DoubleLineParams(math.pi / 2, (0.2,) * 4))
    rec = read_record(pattern)
    side = r"^polygon side \d+ disagrees: corner \d+ folds it at \S+ and corner \d+ at \S+$"
    with pytest.raises(DlError, match=side) as err:
        write_mode(pattern, rec, {0: "--+-"})  # a-I with corner 1 flipped
    assert int(str(err.value).split()[2]) in rec.sides[0]
    a, b = (float(x.split()[0]) for x in str(err.value).split(" at ")[-2:])
    assert abs(a - b) > 1e-2 * max(abs(a), abs(b))
