"""What the doubling connector guarantees, read back from its record.

The connector asserts each invariant once, where it is produced: the radii
LP's rows keep every distance, polygon side and pair separation positive
and line every shared pair up.  These tests read the finished record and
check the geometry those rows promise, together with the spanning tree the
connector walks.
"""
import math

import numpy as np
import pytest

from doubleline import (
    Crease,
    CreasePattern,
    DlError,
    FoldMode,
    VertexNetwork,
    axis_offsets,
    connect_tree_dl,
    connect_uniform_dl,
    gen_miura,
    gen_yoshimura,
    read_record,
)
from doubleline import patterns

from conftest import deg
from test_patterns import rowwise_miura

UNIFORM = [
    (f"miura-{n}x{n}-{a}-{th}", lambda n=n, a=a: gen_miura(n, n, deg(a)[0]), th)
    for a, th in ((60, 90), (70, 90), (55, 90), (65, 80))
    for n in (2, 3, 4)
] + [("yoshimura-2x4", lambda: gen_yoshimura(2, 4, 1.5), 90)]
TREE = [
    ("miura-2x3", lambda: gen_miura(2, 3, deg(60)[0]), 90),
    ("miura-2x4", lambda: gen_miura(2, 4, deg(60)[0]), 80),
    ("rowwise-3x2", lambda: rowwise_miura(3, 2, [0.5, 0.7, 0.9, 1.1]), 80),
]


def doubled(kind, make, theta):
    net = make()
    if kind == "tree":
        return net, connect_tree_dl(net, deg(theta)[0])[1]
    return net, connect_uniform_dl(net, deg(theta)[0])


@pytest.mark.parametrize(
    "kind, make, theta",
    [("uniform", make, th) for _, make, th in UNIFORM] + [("tree", make, th) for _, make, th in TREE],
    ids=[f"uniform-{name}" for name, _, _ in UNIFORM] + [f"tree-{name}" for name, _, _ in TREE],
)
def test_polygons_are_convex_and_shared_pairs_line_up(kind, make, theta):
    net, dl = doubled(kind, make, theta)
    rec = read_record(dl)
    pts = dl.vertices_array
    for v, ids in rec.corners.items():
        assert min(rec.radii[v]) > 0.0
        edges = np.roll(pts[list(ids)], -1, axis=0) - pts[list(ids)]
        nxt = np.roll(edges, -1, axis=0)
        # four left turns: a convex counterclockwise quadrilateral
        assert np.all(edges[:, 0] * nxt[:, 1] - edges[:, 1] * nxt[:, 0] > 0.0)

    axis = {star.vertex: star.crease_ids for star in net.pattern.interior_stars}
    doubled_pair = {ci: (plus, minus) for ci, plus, minus in rec.pairs}
    orig = net.pattern.vertices_array
    for ci in net.shared_creases:
        u, w = net.pattern.creases[ci].v0, net.pattern.creases[ci].v1
        op_u = axis_offsets(rec.sectors[u], rec.radii[u], rec.thetas[u])[axis[u].index(ci)]
        op_w = axis_offsets(rec.sectors[w], rec.radii[w], rec.thetas[w])[axis[w].index(ci)]
        # u's ray^+ and ray^- lines are w's ray^- and ray^+ lines
        scale = max(abs(op_u[0]), abs(op_u[1]))
        assert abs(op_u[0] + op_w[1]) <= 1e-9 * scale
        assert abs(op_u[1] + op_w[0]) <= 1e-9 * scale
        d = orig[w] - orig[u]
        d /= np.linalg.norm(d)
        for cj in doubled_pair[ci]:  # each doubled crease runs along the original one
            e = pts[dl.creases[cj].v1] - pts[dl.creases[cj].v0]
            assert abs(d[0] * e[1] - d[1] * e[0]) <= 1e-9 * np.linalg.norm(e)


def test_spanning_tree_is_breadth_first_from_the_lowest_vertex():
    net = gen_miura(3, 3, deg(60)[0])
    assert net.pattern.interior_vertices == (5, 6, 9, 10)
    # 5's neighbours (6 over crease 4, 9 over 16), then 6's unvisited one
    assert net.spanning_tree == ((6, 5, 4), (9, 5, 16), (10, 6, 19))
    assert net.spanning_tree is net.spanning_tree
    # with the crease ids reversed, neighbours still come in vertex order
    flipped = VertexNetwork.from_pattern(CreasePattern.build(net.pattern.vertices, net.pattern.creases[::-1]),
                                         net.modes)
    assert [row[:2] for row in flipped.spanning_tree] == [(6, 5), (9, 5), (10, 6)]
    assert not net.is_tree()  # crease 9-10 closes a loop
    assert gen_miura(2, 4, deg(60)[0]).is_tree()
    assert gen_miura(2, 2, deg(60)[0]).is_tree()  # one vertex
    empty = gen_miura(1, 3, deg(60)[0])
    assert empty.spanning_tree == () and not empty.is_tree()


def test_tree_connector_checks_the_network_before_doubling(monkeypatch):
    monkeypatch.setattr(patterns, "_connect_dl", lambda *a, **k: pytest.fail("doubling attempted"))
    with pytest.raises(DlError, match="^vertex adjacency is not a tree$"):
        connect_tree_dl(gen_miura(3, 3, deg(60)[0]), math.pi / 2)
    with pytest.raises(DlError, match="^network has no interior vertices to double$"):
        connect_tree_dl(gen_miura(1, 3, deg(60)[0]), math.pi / 2)


def test_disconnected_network_is_refused():
    # two interior vertices in a 4 x 2 sheet, each reaching the boundary only
    verts = [(0, 0), (1, 0), (2, 0), (3, 0), (4, 0), (4, 1), (4, 2), (3, 2), (2, 2), (1, 2), (0, 2), (0, 1),
             (1, 1), (3, 1)]
    ring = [Crease(k, (k + 1) % 12, "B") for k in range(12)]
    spokes = [Crease(12, k) for k in (11, 1, 9, 8)] + [Crease(13, k) for k in (5, 3, 7, 2)]
    net = VertexNetwork.from_pattern(CreasePattern.build(verts, ring + spokes), {12: FoldMode.A, 13: FoldMode.A})
    assert net.shared_creases == () and net.spanning_tree == ()
    assert not net.is_tree()
    with pytest.raises(DlError, match="interior vertices do not form a connected network"):
        connect_uniform_dl(net, math.pi / 2)
