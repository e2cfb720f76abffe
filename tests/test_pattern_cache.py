"""Facts kept per pattern instance: the record, the half-widths, the thick pipeline.

A pattern computes its record, crease half-widths, face outlines and
non-adjacent face pairs once and keeps them on the instance.  These tests
pin that a warm pattern answers exactly as a fresh copy does, that callers
cannot corrupt what is kept, and that the copies ``write_record`` and
``set_extra`` make answer for themselves.
"""
import copy
import dataclasses
import math
import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from doubleline import (
    MODE_A1,
    DoubleLineParams,
    DlError,
    ThickPanelParams,
    ThickenError,
    clearance_records,
    construct_dl,
    crease_half_widths,
    flat_fold_parameter,
    gen_dl_miura,
    gen_dl_yoshimura,
    gen_miura,
    network_multipliers,
    pattern_multipliers,
    read_record,
    set_extra,
    sweep_motion,
    thicken,
)
from doubleline.dl import NETWORK_KEY, write_record
from doubleline.patterns import infer_modes

from conftest import deg, star_of

EMPTY_RECORD = {"pairs": [], "corners": [], "sides": [], "thetas": [], "sectors": [], "radii": []}


@st.composite
def patterns(draw):
    """A pattern and the multipliers of its motion."""
    kind = draw(st.sampled_from(("dl-miura", "dl-yoshimura", "dl-single", "miura")))
    if kind == "dl-miura":
        n = draw(st.sampled_from((2, 3)))
        angle, theta = draw(st.floats(55.0, 65.0)), draw(st.floats(80.0, 100.0))
        pat = gen_dl_miura(n, n, math.radians(angle), math.radians(theta))
    elif kind == "dl-yoshimura":
        pat = gen_dl_yoshimura(2, 2, draw(st.floats(1.2, 2.0)), math.pi / 2)
    elif kind == "dl-single":
        radius = draw(st.floats(0.15, 0.3))
        pat = construct_dl(star_of(deg(60, 80, 120, 100)), DoubleLineParams(math.pi / 2, (radius,) * 4))
        return pat, pattern_multipliers(pat, MODE_A1)
    else:
        pat = gen_miura(2, 2, math.radians(draw(st.floats(50.0, 70.0)))).pattern
        return pat, network_multipliers(pat, infer_modes(pat))
    return pat, np.array(read_record(pat).multipliers)


def thick_outcome(pat, g):
    """Panels and clearance records at a third of the thinnest half-width, or the refusal."""
    t_flat = flat_fold_parameter(pat, g)
    t_max = 0.9 * t_flat if t_flat is not None else 0.5
    motion = sweep_motion(pat, None, np.linspace(0.0, t_max, 4), multipliers=g)
    tau = min(crease_half_widths(pat).values()) / 3.0
    try:
        solids = thicken(pat, motion, ThickPanelParams(tau, enforce_bound=False))
    except ThickenError as err:
        return str(err)
    arrays = [a.tobytes() for s in solids for a in (s.vertices, s.triangles)]
    arrays += [a.tobytes() for s in solids for p in s.pieces for a in (p.vertices, p.normals, p.directions)]
    return arrays, [(t, d.hex(), pair) for t, d, pair in clearance_records(solids, motion)]


@settings(max_examples=24, deadline=None, derandomize=True)
@given(case=patterns())
def test_a_warm_pattern_answers_as_a_fresh_copy(case):
    pat, g = case
    first = thick_outcome(pat, g)
    assert thick_outcome(pat, g) == first  # every fact now comes from the cache
    fresh = dataclasses.replace(pat)
    assert crease_half_widths(pat) == crease_half_widths(fresh)
    assert read_record(pat) == read_record(fresh)
    assert thick_outcome(fresh, g) == first


@settings(max_examples=12, deadline=None, derandomize=True)
@given(case=patterns())
def test_callers_cannot_corrupt_what_is_kept(case):
    pat, _ = case
    want = dict(crease_half_widths(pat))
    widths = crease_half_widths(pat)
    widths[next(iter(widths))] = -1.0
    widths[-1] = 0.0
    assert crease_half_widths(pat) == want
    rec = read_record(pat)
    if rec is not None:
        for name in ("corners", "sides", "thetas", "sectors", "radii", "signs", "corner_modes"):
            if getattr(rec, name) is not None:
                with pytest.raises(TypeError):
                    getattr(rec, name)[-1] = ()
        assert read_record(pat) == read_record(dataclasses.replace(pat))


@settings(max_examples=12, deadline=None, derandomize=True)
@given(case=patterns())
def test_copies_report_their_own_record(case):
    pat, _ = case
    rec, widths = read_record(pat), crease_half_widths(pat)
    emptied = set_extra(pat, NETWORK_KEY, EMPTY_RECORD)
    assert read_record(emptied).pairs == ()
    # with no doubled pairs every crease takes its face depth
    assert crease_half_widths(emptied) == crease_half_widths(dataclasses.replace(emptied))
    if rec is not None and rec.pairs:
        shorter = write_record(pat, dataclasses.replace(rec, pairs=rec.pairs[:-1]))
        assert read_record(shorter).pairs == rec.pairs[:-1]
        assert crease_half_widths(shorter) == crease_half_widths(dataclasses.replace(shorter))
    broken = set_extra(pat, NETWORK_KEY, {"pairs": "none"})
    for _ in range(2):  # a malformed record is never kept
        with pytest.raises(DlError):
            read_record(broken)
    assert read_record(pat) == rec and crease_half_widths(pat) == widths


@pytest.mark.parametrize("clone", [copy.copy, copy.deepcopy, lambda p: pickle.loads(pickle.dumps(p))],
                         ids=["copy", "deepcopy", "pickle"])
def test_a_warm_pattern_copies_and_pickles(clone):
    pat = gen_dl_miura(2, 2, math.radians(60), math.pi / 2)
    widths, rec = crease_half_widths(pat), read_record(pat)
    twin = clone(pat)
    assert twin == pat
    assert crease_half_widths(twin) == widths and read_record(twin) == rec
