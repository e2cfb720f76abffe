"""What the doubling connector guarantees, read back from its record.

The connector asserts each invariant once, where it is produced: the radii
LP's rows keep every distance, polygon side and pair separation positive
and line every shared pair up.  These tests read the finished record and
check the geometry those rows promise, together with the spanning tree the
connector walks, and pin the bytes of every network doubled at one θ.
"""
import hashlib
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
    connect_dl,
    gen_miura,
    gen_yoshimura,
    read_record,
    save_fold,
)

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

# SHA-256 of save_fold for each UNIFORM network.  Every vertex of these
# keeps the requested θ, so the digests pin the fixed-θ arithmetic: a change
# that moves a byte of them must say so by updating this table.
UNIFORM_DIGESTS = {
    "miura-2x2-60-90": "3a30dd4b60dbc24112180b24fa9478ca3a346499d121382db1ee74ac5f0f2742",
    "miura-3x3-60-90": "19d637f068fcba0dbeb1eac11e92523ed388e7c286700d8acb14d8f52598b4de",
    "miura-4x4-60-90": "e61d055062bf67e78347fc56eeeb41f2572f8e3505c585ae755e1892a877c89c",
    "miura-2x2-70-90": "20646db48d1798f3f3e0e61fa708bf8056c3b0fdd6b589525a292f904b0d5e68",
    "miura-3x3-70-90": "37a5db9d408b5ab49121988b694f7daab743e784fc556d86f9f38345ba5e5300",
    "miura-4x4-70-90": "81fb53b77e8c17531ed05501d8f2ff99108fb36d94e0a20236cf681d50c626b3",
    "miura-2x2-55-90": "da9d6b637882694c73cb544b3173f7568e3b97aba0285c45fce1e204019c4d0b",
    "miura-3x3-55-90": "c813e4ca82cf78cc600dfd0e536ae59f3bcf8e66e07bb205a8f334c5bd286271",
    "miura-4x4-55-90": "1680315236e5a99202729ef764a273071cf36f2a04366196a66435367ad64d85",
    "miura-2x2-65-80": "12a5669fa6cf2b1f077d575d4d2eeccd75ed48723e6f97f15c6505147bb4b56c",
    "miura-3x3-65-80": "597477e3a56ce600f9c6cbb3bc2837d270d6d2411f451698b59ac653fbc8edda",
    "miura-4x4-65-80": "7fc66ad5f7bf342232c8c80edc71a0a3277a9e8667fe7b169b0caa46bbdeeff0",
    "yoshimura-2x4": "80fe3ca56125639e008d9915cfb05ee2866c31ae53a8d6f1a64d6e013baeb569",
}


def doubled(make, theta):
    net = make()
    return net, connect_dl(net, deg(theta)[0])


@pytest.mark.parametrize(
    "make, theta",
    [(make, th) for _, make, th in UNIFORM + TREE],
    ids=[f"uniform-{name}" for name, _, _ in UNIFORM] + [f"tree-{name}" for name, _, _ in TREE],
)
def test_polygons_are_convex_and_shared_pairs_line_up(make, theta):
    net, dl = doubled(make, theta)
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


@pytest.mark.parametrize("name, make, theta", UNIFORM, ids=[name for name, _, _ in UNIFORM])
def test_networks_doubled_at_one_theta_keep_their_bytes(name, make, theta):
    _, dl = doubled(make, theta)
    assert {round(math.degrees(t), 9) for t in read_record(dl).thetas.values()} == {theta}
    assert hashlib.sha256(save_fold(dl)).hexdigest() == UNIFORM_DIGESTS[name]


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
    assert len(net.shared_creases) == 4  # crease 9-10 closes a loop off the tree
    assert gen_miura(2, 4, deg(60)[0]).spanning_tree == ((7, 6, 5), (8, 7, 6))
    assert gen_miura(2, 2, deg(60)[0]).spanning_tree == ()  # one vertex
    assert gen_miura(1, 3, deg(60)[0]).spanning_tree == ()


def test_tree_connector_checks_the_network_before_doubling():
    with pytest.raises(DlError, match="^network has no interior vertices to double$"):
        connect_dl(gen_miura(1, 3, deg(60)[0]), math.pi / 2)


def test_disconnected_network_is_refused():
    # two interior vertices in a 4 x 2 sheet, each reaching the boundary only
    verts = [(0, 0), (1, 0), (2, 0), (3, 0), (4, 0), (4, 1), (4, 2), (3, 2), (2, 2), (1, 2), (0, 2), (0, 1),
             (1, 1), (3, 1)]
    ring = [Crease(k, (k + 1) % 12, "B") for k in range(12)]
    spokes = [Crease(12, k) for k in (11, 1, 9, 8)] + [Crease(13, k) for k in (5, 3, 7, 2)]
    net = VertexNetwork.from_pattern(CreasePattern.build(verts, ring + spokes), {12: FoldMode.A, 13: FoldMode.A})
    assert net.shared_creases == () and net.spanning_tree == ()
    with pytest.raises(DlError, match="^interior vertices do not form a connected network$"):
        connect_dl(net, math.pi / 2)
