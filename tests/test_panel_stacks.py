"""Stacked panel code against its per-piece and per-crease oracles, bit for bit,
and the memory a clearing thick op takes at its peak."""
import functools
import importlib
import math
import tracemalloc

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from doubleline import (
    ThickPanelParams,
    clearance_records,
    crease_half_widths,
    flat_fold_parameter,
    gen_dl_miura,
    gen_dl_yoshimura,
    max_thickness,
    read_record,
    sweep_motion,
    thicken,
    watertight_gap,
)
import panel_reference

thicken_module = importlib.import_module("doubleline.thicken")  # the package's `thicken` is the function

CASES = {
    **{f"dlm{n}{n}-{a}": (gen_dl_miura, (n, n, math.radians(a), math.pi / 2)) for n in (2, 3, 4) for a in (60, 70)},
    "dly22": (gen_dl_yoshimura, (2, 2, 1.5, math.pi / 2)),
    "dly24": (gen_dl_yoshimura, (2, 4, 1.5, math.pi / 2)),
}


@functools.lru_cache(maxsize=None)
def case(name):
    """A doubled pattern and its recorded motion to 0.97 of flat, six samples."""
    make, args = CASES[name]
    pattern = make(*args)
    g = np.array(read_record(pattern).multipliers)
    t_max = 0.97 * flat_fold_parameter(pattern, g)
    return pattern, sweep_motion(pattern, None, np.geomspace(t_max * 1e-3, t_max, 6), multipliers=g)


def bound(pattern, motion, side):
    """The thickness bound of the creases that fold toward the panel side."""
    sign = 1.0 if side == "above" else -1.0
    widths = crease_half_widths(pattern)
    rho = thicken_module._design_angles(pattern, motion, ThickPanelParams(1.0, side))
    return min(max_thickness(widths[ci], abs(r)) for ci, r in rho.items() if sign * r > 0.0)


def built(pattern, motion, params):
    """thicken's panels, and the parts and side its piece builder was given."""
    calls = []
    real = thicken_module._prismatoids

    def spy(parts, up):
        calls.append((parts, up))
        return real(parts, up)

    thicken_module._prismatoids = spy
    try:
        solids = thicken(pattern, motion, params)
    finally:
        thicken_module._prismatoids = real
    (parts, up), = calls
    return solids, parts, up


def same_bits(a, b) -> bool:
    return a.dtype == b.dtype and a.shape == b.shape and np.ascontiguousarray(a).tobytes() == np.ascontiguousarray(b).tobytes()


def same_piece(p, q) -> bool:
    fields = ("vertices", "normals", "directions", "edges", "loops")
    return all(same_bits(getattr(p, f), getattr(q, f)) for f in fields)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(name=st.sampled_from(sorted(CASES)), side=st.sampled_from(("above", "below")), factor=st.floats(0.05, 0.99))
def test_stacked_panels_equal_the_per_piece_and_per_crease_oracles(name, side, factor):
    pattern, motion = case(name)
    # the crease bound does not bound every face: a top can vanish below it, so lift the check
    params = ThickPanelParams(factor * bound(pattern, motion, side), side, enforce_bound=False)
    solids, parts, up = built(pattern, motion, params)
    pieces = [p for s in solids for p in s.pieces]
    assert len(pieces) == len(parts)
    for piece, (b, r, v, h) in zip(pieces, parts):
        assert same_piece(piece, panel_reference.convex_piece(b, b + h * v, r, up * h))
    # the stack pads quads, pentagons and the pieces of split faces alike
    for order in (pieces, pieces[::-1]):
        assert same_piece(thicken_module._stack(order), panel_reference.stack(order))
    assert watertight_gap(solids).hex() == panel_reference.watertight_gap(solids).hex()


def test_each_bevel_seals_as_its_own_crease_does():
    # two panels alone leave one beveled crease between them: the stacked
    # seal of that pair is the per-crease gap, bit for bit
    for name in ("dlm33-60", "dly22"):
        pattern, motion = case(name)
        for side in ("above", "below"):
            solids = thicken(pattern, motion, ThickPanelParams(0.5 * bound(pattern, motion, side), side))
            by_face = {s.face: s for s in solids}
            seals = 0
            for ci in pattern.interior_creases:
                pair = [by_face[f] for f in pattern.crease_faces[ci]]
                want = panel_reference.crease_seals(pair)
                assert watertight_gap(pair).hex() == max([0.0] + want).hex()
                seals += len(want)
            assert seals > 0, (name, side)


# tracemalloc's peak over thicken, clearance_records and watertight_gap on
# one clearing doubled Miura 3x3 op (60/90, six samples, 0.9 of the bound)
# when panels were built, stacked and sealed piece by piece: 667,406 bytes.
# The stacked code takes about 590,000; with batches of 12 piece pairs
# instead of NARROW_CHUNK = 8 it takes about 762,000, with 16 about 913,000.
PEAK_BYTES = 668_000


def test_a_clearing_thick_op_peaks_no_higher_than_before():
    pattern, motion = case("dlm33-60")
    params = ThickPanelParams(0.9 * bound(pattern, motion, "above"))

    def op():
        solids = thicken(pattern, motion, params)
        return min(r[1] for r in clearance_records(solids, motion)), watertight_gap(solids)

    clearance, gap = op()  # fills the pattern's caches
    assert clearance > 0.0 and gap < 1e-9
    tracemalloc.start()
    try:
        op()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= PEAK_BYTES
