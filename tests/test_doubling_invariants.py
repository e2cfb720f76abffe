"""What the doubling connector guarantees, read back from its record.

The connector asserts each invariant once, where it is produced: the radii
LP's rows keep every distance, polygon side and pair separation positive
and line every shared pair up.  These tests read the finished record and
check the geometry those rows promise, together with the spanning tree the
connector walks, and pin the bytes of every network doubled at one θ and
the modes and angles of networks whose children solve their own θ.
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
    gen_dl_miura,
    gen_dl_yoshimura,
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
    "miura-2x2-60-90": "f2ed8aaafe899ab424f5c030c3bea395ecc652d4c5a9644b0e605df9c39bb5de",
    "miura-3x3-60-90": "7c4da02201d310b67b2cc2b74cb834fd66eb68ded74461e71410685b3d4e05b2",
    "miura-4x4-60-90": "293ebd1cc529f3cabbf4bbd728bd0f667e69f753f563dbf6e223730741052ca4",
    "miura-2x2-70-90": "f5bb3ae30abd3f0a67ef399622eef26d1abb6006ed65d9d4fe00be559d657f9f",
    "miura-3x3-70-90": "6f7e2f8027ef8a86cca33269a6949748c5d022b7e339448dc897c6ca851fb9e9",
    "miura-4x4-70-90": "2128e5ecfae08d38f0c3b255895f336180a9fef02dd974d6f7d9506e534d4c13",
    "miura-2x2-55-90": "bebda31408e95830040a80d4169c3b7dce5b42f75fa24470e2dacab5657c5681",
    "miura-3x3-55-90": "92c4c21963b0c6ffd4a7aca900678dea2b48784c727539144c89411556a7bd71",
    "miura-4x4-55-90": "7e173cb17e764f910c01f6610fb4322cf5e503f844162266be437c701439a6d2",
    "miura-2x2-65-80": "24c0d880c90279a89f74ad5be12171ad879a344bdefb94ceb56d8ad0a8213810",
    "miura-3x3-65-80": "068f36ce2206fa17af2f498c61d26b96feddfa6a46e0c2a83faafdab48c8a63e",
    "miura-4x4-65-80": "549a510039c411baa9d57e04ece15fd42d8be5e9c55d3853c6706d24cab558e6",
    "yoshimura-2x4": "6adb17337034100f4da8c2b5798133b4cffb91cf11ab960c4a6d9705abcd1e68",
}


# Each vertex's sign string and θ (degrees, rounded to 1e-9) in networks where
# some child solves its own θ for its parent's pair ratio, which UNIFORM_DIGESTS
# does not reach.
SOLVED = {
    "rowwise-3x2-80": (lambda: rowwise_miura(3, 2, [0.5, 0.7, 0.9, 1.1]), 80,
                       {4: ("-++-", 80.0), 7: ("-++-", 77.226607514)}),
    "rowwise-3x3-60": (lambda: rowwise_miura(3, 3, [0.5, 0.65, 0.8, 0.95]), 60,
                       {5: ("-++-", 60.0), 6: ("-++-", 60.0), 9: ("-++-", 54.602971896), 10: ("-++-", 54.602971896)}),
    "yoshimura-2x3-1.5-70": (lambda: gen_yoshimura(2, 3, 1.5), 70,
                             {2: ("-++-", 70.0), 6: ("-++-", 70.0), 7: ("++--", 110.0), 11: ("++--", 110.0)}),
    "yoshimura-2x4-2.0-110": (lambda: gen_yoshimura(2, 4, 2.0), 110,
                              {2: ("-++-", 110.0), 6: ("-++-", 110.0), 7: ("++--", 70.0), 10: ("-++-", 110.0),
                               11: ("++--", 70.0), 15: ("++--", 70.0)}),
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


@pytest.mark.parametrize("name", SOLVED)
def test_children_that_solve_their_own_theta_keep_their_modes_and_angles(name):
    make, theta, want = SOLVED[name]
    rec = read_record(doubled(make, theta)[1])
    assert {v: (rec.signs[v], round(math.degrees(t), 9)) for v, t in rec.thetas.items()} == want
    assert {t for _, t in want.values()} != {theta}


@pytest.mark.parametrize("pattern", [
    lambda: gen_dl_miura(3, 3, deg(60)[0], math.pi / 2), lambda: gen_dl_miura(2, 4, deg(70)[0], deg(80)[0]),
    lambda: gen_dl_yoshimura(2, 4, 1.5, math.pi / 2), lambda: gen_dl_yoshimura(2, 2, 2.0, deg(80)[0]),
], ids=["miura-3x3", "miura-2x4-80", "yoshimura-2x4", "yoshimura-2x2-80"])
def test_doubled_networks_number_their_rays_first(pattern):
    dl = pattern()
    rec = read_record(dl)
    rays = [c for _, plus, minus in rec.pairs for c in (plus, minus)]
    assert sorted(rays) == list(range(len(rays)))
    assert max(rays) < min(c for sides in rec.sides.values() for c in sides)
    # crease 0 is ray_0^+ of the lowest vertex: it leaves that vertex's corner c_0
    low = min(rec.corners)
    assert rec.pairs[0][1] == 0 and dl.creases[0].v0 == rec.corners[low][0]


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
