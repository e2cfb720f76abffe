import math

import pytest

from conftest import star_of, star_pattern
from doubleline.pattern import (
    Crease,
    CreasePattern,
    PatternError,
    is_flat_foldable_deg4,
    kawasaki_residual,
    vertex_star,
)
from doubleline.patterns import gen_miura, gen_single_deg4, gen_symmetric_vertex


def test_plus_vertex_sectors():
    star = vertex_star(gen_single_deg4(math.pi / 2, math.pi / 2), 0)
    assert star.degree == 4
    assert all(abs(s - math.pi / 2) < 1e-12 for s in star.sectors)


def test_supplementary_sector_layout():
    star = vertex_star(gen_single_deg4(math.radians(60), math.radians(80)), 0)
    want = [60.0, 80.0, 120.0, 100.0]
    got = [math.degrees(s) for s in star.sectors]
    assert max(abs(a - b) for a, b in zip(got, want)) < 1e-9


def test_vertex_star_refuses_a_boundary_vertex():
    square = CreasePattern.build(
        [(0, 0), (1, 0), (1, 1), (0, 1)],
        [Crease(0, 1, "B"), Crease(1, 2, "B"), Crease(2, 3, "B"), Crease(3, 0, "B")],
    )
    for v in range(4):
        with pytest.raises(PatternError, match=f"^vertex {v} is not an interior vertex$"):
            vertex_star(square, v)
    single = gen_single_deg4(math.radians(60), math.radians(80))
    with pytest.raises(PatternError, match="^vertex 3 is not an interior vertex$"):
        vertex_star(single, 3)


def test_vertex_star_reads_the_one_table_of_interior_stars():
    pattern = gen_miura(3, 3, math.radians(60)).pattern
    assert len(pattern.interior_stars) == len(pattern.interior_vertices) == 4
    for v, star in zip(pattern.interior_vertices, pattern.interior_stars):
        assert vertex_star(pattern, v) is star and star.vertex == v


def test_flat_foldable_deg4():
    assert is_flat_foldable_deg4(star_of([math.radians(v) for v in (60, 80, 120, 100)]))
    assert is_flat_foldable_deg4(star_of([math.pi / 2] * 4))
    assert not is_flat_foldable_deg4(star_of([math.radians(v) for v in (60, 120, 60, 120)]))


def test_kawasaki_residual():
    assert kawasaki_residual(star_of([math.radians(v) for v in (60, 80, 120, 100)])) < 1e-12
    assert kawasaki_residual(star_of([math.pi / 3] * 6)) < 1e-12
    res = kawasaki_residual(star_of([math.radians(v) for v in (60, 120, 60, 120)]))
    assert abs(res - 2.0 * math.pi / 3.0) < 1e-9


def test_crossing_creases_rejected():
    with pytest.raises(PatternError):
        CreasePattern.build(
            [(0, 0), (1, 1), (1, 0), (0, 1)],
            [Crease(0, 1, "U"), Crease(2, 3, "U")],
        )


def _square(k, x=0.0, y=0.0, size=1.0):
    """Vertices and boundary creases of an axis-aligned square, ids from k."""
    pts = [(x, y), (x + size, y), (x + size, y + size), (x, y + size)]
    return pts, [Crease(k + i, k + (i + 1) % 4, "B") for i in range(4)]


@pytest.mark.parametrize("extra", [
    _square(4, x=2.0),  # a second square beside the first
    _square(4, x=0.25, y=0.25, size=0.5),  # a square inside the first
    ([(2.0, 0.0), (3.0, 0.0)], [Crease(4, 5, "B")]),  # a loose segment
], ids=["two-squares", "nested-square", "loose-segment"])
def test_disconnected_crease_graph_rejected(extra):
    pts, creases = _square(0)
    with pytest.raises(PatternError, match="crease graph is disconnected"):
        CreasePattern.build(pts + extra[0], creases + extra[1])


def test_isolated_vertex_accepted():
    pts, creases = _square(0)
    pat = CreasePattern.build(pts + [(5.0, 5.0)], creases)
    assert len(pat.faces) == 1 and pat.outer_cycle == (0, 3, 2, 1)


def test_an_isolated_vertex_has_no_star():
    # it is on no walk of the outer face, but no crease makes it a vertex star
    pts, creases = _square(0)
    pat = CreasePattern.build(pts + [(0.5, 0.5)], creases)
    assert pat.interior_vertices == () and pat.interior_stars == ()
    assert pat.boundary_vertices == frozenset(range(4))
    with pytest.raises(PatternError, match="^vertex 4 is not an interior vertex$"):
        vertex_star(pat, 4)
    assert CreasePattern.build(pts, []).boundary_vertices == frozenset()


def test_interior_bookkeeping():
    net = gen_miura(2, 2, math.radians(60))
    p = net.pattern
    assert len(p.vertices) == 9
    assert len(p.interior_vertices) == 1
    assert len(p.faces) == 4


def test_sector_sums():
    for pattern in (
        gen_single_deg4(math.radians(55), math.radians(75)),
        gen_symmetric_vertex(3),
        gen_miura(3, 3, math.radians(60)).pattern,
    ):
        for v in pattern.interior_vertices:
            star = vertex_star(pattern, v)
            assert abs(sum(star.sectors) - 2.0 * math.pi) < 1e-9


def test_star_sector_order_is_counterclockwise():
    star = star_of([math.radians(v) for v in (50, 70, 130, 110)])
    assert [round(math.degrees(s)) for s in star.sectors] == [50, 70, 130, 110]
