"""One half-edge walk per embedding, shared by the copies that keep it.

``CreasePattern.build`` walks its embedding once, and the copies that keep
the vertices and crease endpoints (build's own face copy, ``set_extra`` and
so ``write_record``, ``fix_mode``'s relabel) share the embedding's tables.
These tests count the walks and require every shared table to equal what a
fresh pattern of the same vertices, creases, faces and extras computes.
The face/outer split reads the sign of ``geometry.polygon_area``, checked
here against the numpy shoelace it replaced.
"""
import json
import math
from functools import cached_property

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from doubleline import (
    MODE_A1,
    DLMode,
    DoubleLineParams,
    construct_dl,
    construct_symmetric_dl,
    gen_dl_miura,
    gen_dl_yoshimura,
    gen_miura,
    gen_single_deg4,
    gen_symmetric_vertex,
    gen_yoshimura,
    load_fold,
    pattern_multipliers,
    read_record,
    save_fold,
    set_extra,
    solve_fold_angles,
)
from doubleline.dl import fix_mode, write_record
from doubleline.geometry import polygon_area
from doubleline.pattern import _EMBEDDING, _FACE_TABLES, _MEMO, CreasePattern

from conftest import deg, star_of

SHARED = ("faces", "outer_cycle", "crease_faces", "face_creases", "interior_stars", "face_tree")


@pytest.fixture
def walks(monkeypatch):
    """The number of half-edge walks computed from now on."""
    count = [0]
    inner = CreasePattern.__dict__["_walks"].func

    def counted(pattern):
        count[0] += 1
        return inner(pattern)

    prop = cached_property(counted)
    prop.__set_name__(CreasePattern, "_walks")
    monkeypatch.setattr(CreasePattern, "_walks", prop)
    return count


def test_a_doubled_vertex_builds_and_solves_on_one_walk(walks):
    star = star_of(deg(60, 80, 120, 100))
    walks[0] = 0
    pat = construct_dl(star, DoubleLineParams(math.pi / 2, (0.2,) * 4))
    g = pattern_multipliers(pat, MODE_A1)
    solve_fold_angles(pat, int(np.argmax(np.abs(g))), math.radians(90.0), tol=1e-12)
    assert walks[0] == 1


@pytest.mark.parametrize("faces", [True, False], ids=["with-faces", "without-faces"])
def test_load_fold_walks_once(walks, faces):
    doc = json.loads(save_fold(gen_dl_miura(2, 2, math.radians(60), math.pi / 2)))
    if not faces:
        del doc["faces_vertices"]
    walks[0] = 0
    pat = load_fold(json.dumps(doc))
    assert pat.outer_cycle and pat.interior_stars and pat.face_tree
    assert walks[0] == 1


@st.composite
def patterns(draw):
    """A warm pattern: one of the kinds the kit builds, its tables computed."""
    kind = draw(st.sampled_from(("dl-miura", "dl-yoshimura", "dl-single", "miura", "symmetric-3")))
    if kind == "dl-miura":
        pat = gen_dl_miura(2, 2, math.radians(draw(st.floats(55.0, 65.0))), math.radians(draw(st.floats(80.0, 100.0))))
    elif kind == "dl-yoshimura":
        pat = gen_dl_yoshimura(2, 2, draw(st.floats(1.2, 2.0)), math.pi / 2)
    elif kind == "dl-single":
        pat = construct_dl(star_of(deg(60, 80, 120, 100)), DoubleLineParams(math.pi / 2, (draw(st.floats(0.15, 0.3)),) * 4))
    elif kind == "miura":
        pat = gen_miura(2, 2, math.radians(draw(st.floats(50.0, 70.0)))).pattern
    else:
        pat = construct_symmetric_dl(3)
    for name in SHARED:
        getattr(pat, name)
    return kind, pat


def copies(kind, pat):
    """The copies that keep the embedding: set_extra, write_record and, on a lone doubled vertex, fix_mode."""
    out = [set_extra(pat, "x_note", {"k": [1, 2]})]
    rec = read_record(pat)
    if rec is not None:
        out.append(write_record(pat, rec))
    if kind == "dl-single":
        out.append(fix_mode(pat, MODE_A1))
    elif kind == "symmetric-3":
        out.append(fix_mode(pat, DLMode("+-+-+-", tuple("+-+-+-"))))
    return out


@settings(max_examples=20, deadline=None, derandomize=True)
@given(case=patterns())
def test_copies_share_tables_that_equal_a_fresh_computation(case):
    kind, pat = case
    for copy in copies(kind, pat):
        assert copy._walks is pat._walks and copy.face_tree is pat.face_tree
        # the label-dependent and per-pattern facts are the copy's own
        assert "interior_creases" not in copy.__dict__ and _MEMO not in copy.__dict__
        fresh = CreasePattern(copy.vertices, copy.creases, copy.faces, copy.extras)
        for name in SHARED:
            assert getattr(copy, name) == getattr(fresh, name), name
        assert copy.interior_creases == fresh.interior_creases


def test_reordered_faces_get_their_own_face_tables():
    pat = gen_dl_miura(2, 2, math.radians(60), math.pi / 2)
    pat.face_tree, pat.interior_stars
    copy = pat._copy(faces=pat.faces[::-1])
    assert set(_EMBEDDING) <= set(copy.__dict__) and not set(_FACE_TABLES) & set(copy.__dict__)
    fresh = CreasePattern(copy.vertices, copy.creases, copy.faces, copy.extras)
    for name in SHARED:
        assert getattr(copy, name) == getattr(fresh, name), name
    assert copy.crease_faces != pat.crease_faces


# -- the shoelace -------------------------------------------------------------


def numpy_polygon_area(points):
    """The area as the kit computed it before the plain-float shoelace."""
    pts = np.asarray(points, dtype=float)
    x, y = pts[:, 0], pts[:, 1]
    return 0.5 * float(np.dot(x, np.roll(y, -1)) - np.dot(y, np.roll(x, -1)))


def cross_scale(points):
    """Half the sum of the shoelace's absolute cross terms: what both sums round against."""
    return 0.5 * sum(abs(x0 * y1) + abs(x1 * y0) for (x0, y0), (x1, y1) in zip(points, points[1:] + points[:1]))


coordinate = st.floats(-1e6, 1e6, allow_nan=False, allow_infinity=False)


@st.composite
def slivers(draw):
    """A polygon around the unit circle squashed along a random direction by up to 1e-8, either winding.

    Its corners are spread around the circle, and its centre lies within ten
    sizes of the origin, so its area stays well above the sums' rounding.
    """
    n = draw(st.integers(3, 9))
    jitter = draw(st.lists(st.floats(0.0, 0.5), min_size=n, max_size=n))
    thin = 10.0 ** -draw(st.integers(0, 8))
    size, phi = draw(st.floats(1e-3, 1e4)), draw(st.floats(0.0, math.tau))
    cx, cy = size * draw(st.floats(-10.0, 10.0)), size * draw(st.floats(-10.0, 10.0))
    c, s = math.cos(phi), math.sin(phi)
    pts = []
    for k, j in enumerate(jitter):
        u = math.tau * (k + j) / n
        a, b = size * math.cos(u), size * thin * math.sin(u)
        pts.append((cx + c * a - s * b, cy + s * a + c * b))
    return pts[::-1] if draw(st.booleans()) else pts


@settings(max_examples=300, deadline=None, derandomize=True)
@given(points=slivers())
def test_the_shoelace_keeps_the_sign_of_slivers(points):
    want, got = numpy_polygon_area(points), polygon_area(points)
    assert type(got) is float
    assert abs(got - want) <= 1e-12 * cross_scale(points)
    assert math.copysign(1.0, got) == math.copysign(1.0, want) and got != 0.0


@settings(max_examples=300, deadline=None, derandomize=True)
@given(points=st.lists(st.tuples(coordinate, coordinate), min_size=3, max_size=12))
def test_the_shoelace_agrees_with_the_numpy_area(points):
    want, got = numpy_polygon_area(points), polygon_area(points)
    bound = 1e-12 * cross_scale(points)
    assert abs(got - want) <= bound
    if abs(want) > bound:  # a sign within the sums' rounding is neither's to keep
        assert math.copysign(1.0, got) == math.copysign(1.0, want)
    assert polygon_area(np.array(points)) == got


GENERATED = {
    "single": lambda: gen_single_deg4(*deg(60, 80)),
    "symmetric-3": lambda: gen_symmetric_vertex(3),
    "miura-3x3": lambda: gen_miura(3, 3, math.radians(60)).pattern,
    "yoshimura-2x3": lambda: gen_yoshimura(2, 3, 1.5).pattern,
    "dl-miura-3x3": lambda: gen_dl_miura(3, 3, math.radians(60), math.pi / 2),
    "dl-yoshimura-2x2": lambda: gen_dl_yoshimura(2, 2, 1.5, math.pi / 2),
    "dl-single": lambda: construct_dl(star_of(deg(60, 80, 120, 100)), DoubleLineParams(math.pi / 2, (0.2,) * 4)),
    "symmetric-dl-3": lambda: construct_symmetric_dl(3),
}


@pytest.mark.parametrize("name", GENERATED)
def test_generated_patterns_keep_their_face_and_outer_split(name):
    pat = GENERATED[name]()
    cycle = lambda vs: [pat.vertices[v] for v in vs]
    assert all(numpy_polygon_area(cycle(f)) > 0 for f in pat.faces)
    assert len(pat._walks[1]) == 1 and numpy_polygon_area(cycle(pat.outer_cycle)) < 0
