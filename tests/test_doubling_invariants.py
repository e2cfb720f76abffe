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
    "miura-2x2-60-90": "2ffd194bfda3f9e54fa4230b3b92d3faad1c10c1cddbfd7502ed71c78353f1f9",
    "miura-3x3-60-90": "bad96cccb39a7a553e5abfeb70b49c0ed628ac91611dee3190e1c883dcccc37c",
    "miura-4x4-60-90": "4eb5922dec71cf01f33abb4523d9ad2d6251b6ab39a3effa6c4f70c5f8620aa0",
    "miura-2x2-70-90": "b8106ec221d7baeff0cec1ae6dd0312773ffa2246d7f5b2dc24f99c7f08246db",
    "miura-3x3-70-90": "1c1cc6afec615925686d8b43048ff09efbe7adaf9763417fe3554bdde34ebfcf",
    "miura-4x4-70-90": "fe922ed56cab282faea4aea3fddf16c77f5cb52a0192431130ea7cc47503bba7",
    "miura-2x2-55-90": "8c5b611d804f0035219f138051db7ad6788b878c23c9ec77b60cffb03df5d50d",
    "miura-3x3-55-90": "0e9317bea3c836a0739eb0a27055a52b91874d12332fff2e5095051484e2ab20",
    "miura-4x4-55-90": "7e347c701965778b63d17c6d71c7f90e1e5c98202889dca8151428e72ca97fa9",
    "miura-2x2-65-80": "811041a9144f89ce2892f18bbe944768a50c4a15c5e360d9a60c240ed28e8e1a",
    "miura-3x3-65-80": "8821445173556347e98e930ff2722244ac376d75f9be003c61516b9da0f7a3bc",
    "miura-4x4-65-80": "4eb8b030c1fdc3f1bab62fa36ed9becab1966788214137014729d73959cc391e",
    "yoshimura-2x4": "d4e4d715b0ba996489ddd002b4287b76287553cb5291e7e2c94aa2e7f5519eff",
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
