"""Faces, outer cycle and crease-face incidence against independent derivations.

The reference functions below derive the same facts the way each consumer
used to derive them for itself: propagate_fold's directed-edge map, an
edge-key lookup from face sides to crease ids, and the outer cycle as every
face walk minus the interior faces.  vertex_star reads interior stars only.
"""
import math

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from conftest import star_pattern
from doubleline import (
    DoubleLineParams,
    VertexStar,
    construct_dl,
    gen_dl_miura,
    gen_dl_yoshimura,
    gen_miura,
    gen_single_deg4,
    gen_symmetric_vertex,
    gen_yoshimura,
    load_fold,
    save_fold,
)
from doubleline.geometry import polygon_area
from doubleline.pattern import CreasePattern, PatternError, vertex_star


def _canon(cycle):
    cycle = tuple(cycle)
    k = cycle.index(min(cycle))
    return cycle[k:] + cycle[:k]


def ref_sorted_incidence(pattern):
    """Per vertex: (azimuth, crease id, neighbor), counterclockwise."""
    out = [[] for _ in pattern.vertices]
    for ci, c in enumerate(pattern.creases):
        for v, w in ((c.v0, c.v1), (c.v1, c.v0)):
            (x0, y0), (x1, y1) = pattern.vertices[v], pattern.vertices[w]
            out[v].append((math.atan2(y1 - y0, x1 - x0), ci, w))
    return [sorted(items) for items in out]


def ref_extract_faces(pattern, keep_outer):
    """Every face walk (interior ones, or all of them), canonical and sorted."""
    nxt = {}
    for v, items in enumerate(ref_sorted_incidence(pattern)):
        k = len(items)
        for j in range(k):
            nxt[(items[j][2], v)] = (v, items[(j - 1) % k][2])
    faces = []
    seen = set()
    for he in sorted(nxt):
        if he in seen:
            continue
        cycle = []
        cur = he
        while cur not in seen:
            seen.add(cur)
            cycle.append(cur[0])
            cur = nxt[cur]
        assert cur == he
        if polygon_area(pattern.vertices_array[cycle]) > 0 or keep_outer:
            faces.append(_canon(cycle))
    return tuple(sorted(faces))


def ref_outer_walks(pattern):
    interior = set(ref_extract_faces(pattern, keep_outer=False))
    return [f for f in ref_extract_faces(pattern, keep_outer=True) if f not in interior]


def ref_sides(pattern):
    """propagate_fold's maps: (left, right) face per crease, creases per face."""
    directed = {}
    for fi, f in enumerate(pattern.faces):
        for a, b in zip(f, f[1:] + f[:1]):
            directed[(a, b)] = fi
    sides = {ci: (directed.get((c.v0, c.v1)), directed.get((c.v1, c.v0)))
             for ci, c in enumerate(pattern.creases)}
    face_creases = [[] for _ in pattern.faces]
    for ci, (lf, rf) in sorted(sides.items()):
        if lf is not None:
            face_creases[lf].append(ci)
        if rf is not None:
            face_creases[rf].append(ci)
    return sides, face_creases


def ref_edge_key_sides(pattern):
    """Crease id of each face side through an undirected edge-key lookup."""
    edge_key = {(min(c.v0, c.v1), max(c.v0, c.v1)): i for i, c in enumerate(pattern.creases)}
    return tuple(
        tuple(edge_key[(min(a, b), max(a, b))] for a, b in zip(f, f[1:] + f[:1]))
        for f in pattern.faces
    )


def check_topology(pattern):
    assert sorted(pattern.faces) == list(ref_extract_faces(pattern, keep_outer=False))
    sides, face_creases = ref_sides(pattern)
    assert pattern.crease_faces == tuple(sides[ci] for ci in range(len(pattern.creases)))
    assert [sorted(fc) for fc in pattern.face_creases] == face_creases
    assert pattern.face_creases == ref_edge_key_sides(pattern)
    outer = ref_outer_walks(pattern)
    assert [pattern.outer_cycle] == outer
    assert pattern.boundary_vertices == frozenset(outer[0])
    for v in sorted(pattern.boundary_vertices):
        with pytest.raises(PatternError, match=f"^vertex {v} is not an interior vertex$"):
            vertex_star(pattern, v)


def _cases():
    deg = math.radians
    yield gen_single_deg4(deg(60), deg(80))
    yield gen_single_deg4(deg(35), deg(120))
    for n in range(2, 7):
        yield gen_symmetric_vertex(n)
    yield gen_miura(3, 3, deg(60)).pattern
    yield gen_miura(2, 4, deg(70)).pattern
    yield gen_yoshimura(2, 3, 1.5).pattern
    for n in (2, 3, 4):
        yield gen_dl_miura(n, n, deg(60), math.pi / 2)
    yield gen_dl_yoshimura(2, 2, 1.5, math.pi / 2)
    star = VertexStar.from_sectors([deg(a) for a in (60, 80, 120, 100)])
    yield construct_dl(star, DoubleLineParams(math.pi / 2, (0.2,) * 4))
    yield construct_dl(star, DoubleLineParams(deg(70), (0.1, 0.2, 0.15, 0.25)))
    yield construct_dl(vertex_star(gen_symmetric_vertex(3), 0), DoubleLineParams(deg(50), (0.2,) * 6))


def test_topology_matches_reference_derivations():
    for pattern in _cases():
        check_topology(pattern)
        check_topology(load_fold(save_fold(pattern)))
        shuffled = CreasePattern.build(
            pattern.vertices, pattern.creases, pattern.faces[::-1], dict(pattern.extras)
        )
        check_topology(shuffled)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(weights=st.lists(st.floats(min_value=1.0, max_value=3.0), min_size=3, max_size=8))
def test_topology_of_random_stars(weights):
    sectors = [2.0 * math.pi * w / sum(weights) for w in weights]
    assume(max(sectors) < math.pi - 1e-3)  # the tip chords must enclose the center
    sectors[-1] = 2.0 * math.pi - sum(sectors[:-1])
    check_topology(star_pattern(sectors))
