"""Network generators and the doubling connector."""
import math
import re

import numpy as np
import pytest

from doubleline import fold3d, patterns
from doubleline import (
    Crease,
    CreasePattern,
    DlError,
    VertexNetwork,
    assign_mode_mv,
    connect_dl,
    gen_dl_miura,
    gen_dl_yoshimura,
    gen_miura,
    gen_single_deg4,
    gen_symmetric_vertex,
    gen_yoshimura,
    infer_modes,
    network_multipliers,
    read_record,
    sweep_motion,
    vertex_closure_residual,
    vertex_star,
)

from conftest import deg


def pair_sum_residual(orig_pattern, dl_pattern, ts):
    """Worst original-vertex closure residual of the doubled pair sums."""
    meta = read_record(dl_pattern)
    g = np.array(meta.multipliers)
    pair_of = {orig: (p, m) for orig, p, m in meta.pairs}
    worst = 0.0
    for t in ts:
        s_of = {
            ci: 2 * math.atan(g[p] * t) + 2 * math.atan(g[m] * t)
            for ci, (p, m) in pair_of.items()
        }
        for v in orig_pattern.interior_vertices:
            star = vertex_star(orig_pattern, v)
            angles = [s_of[ci] for ci in star.crease_ids]
            worst = max(worst, vertex_closure_residual(star, angles))
    return worst


def rowwise_miura(rows, cols, dzs):
    """Miura-like mesh whose zigzag drop varies per row."""
    assert len(dzs) == rows + 1

    def vid(i, j):
        return i * (cols + 1) + j

    verts = [
        (float(j), i + (j % 2) * dzs[i]) for i in range(rows + 1) for j in range(cols + 1)
    ]
    creases = []
    for i in range(rows + 1):
        for j in range(cols):
            creases.append(Crease(vid(i, j), vid(i, j + 1), "B" if i in (0, rows) else "U"))
    for j in range(cols + 1):
        for i in range(rows):
            creases.append(Crease(vid(i, j), vid(i + 1, j), "B" if j in (0, cols) else "U"))
    pat = CreasePattern.build(verts, creases)
    return VertexNetwork.from_pattern(pat, infer_modes(pat))


def test_gen_single_deg4():
    pat = gen_single_deg4(*deg(60, 80))
    assert len(pat.interior_vertices) == 1
    star = vertex_star(pat, 0)
    want = deg(60, 80, 120, 100)
    assert max(abs(a - b) for a, b in zip(star.sectors, want)) < 1e-12


def test_gen_symmetric_vertex():
    pat = gen_symmetric_vertex(3)
    star = vertex_star(pat, 0)
    assert star.degree == 6
    assert all(abs(s - math.pi / 3) < 1e-12 for s in star.sectors)
    with pytest.raises(Exception):
        gen_symmetric_vertex(1)


def test_gen_yoshimura_is_tree():
    net = gen_yoshimura(2, 4, 1.5)
    assert len(net.pattern.interior_vertices) == 6
    assert len(net.shared_creases) == len(net.spanning_tree) == 5


def test_gen_miura_has_loops():
    net = gen_miura(3, 3, math.radians(60))
    assert len(net.pattern.interior_vertices) == 4
    assert len(net.shared_creases) == 4 > len(net.spanning_tree)


def doubled_thetas(net, theta):
    """connect_dl's doubled pattern and its per-vertex θ in degrees, to 1e-9."""
    dl = connect_dl(net, theta)
    return {v: round(math.degrees(t), 9) for v, t in read_record(dl).thetas.items()}, dl


def test_connect_tree_chain_thetas():
    net = gen_miura(2, 3, math.radians(60))
    got, dl = doubled_thetas(net, math.pi / 2)
    assert got == {5: 90.0, 6: 90.0}
    assert pair_sum_residual(net.pattern, dl, (0.2, 0.6, 1.1)) < 1e-9
    # a child whose pair matches at the requested angle keeps it, rather
    # than taking the other root of its ratio quadratic (80 deg here)
    got, dl = doubled_thetas(net, deg(100)[0])
    assert got == {5: 100.0, 6: 100.0}
    assert pair_sum_residual(net.pattern, dl, (0.2, 0.6)) < 1e-9


def test_connect_tree_path_same_row():
    net = gen_miura(2, 4, math.radians(60))
    got, dl = doubled_thetas(net, deg(80)[0])
    assert set(got.values()) == {80.0}
    assert pair_sum_residual(net.pattern, dl, (0.4, 1.0)) < 1e-9


def test_connect_tree_asymmetric_rows():
    net = rowwise_miura(3, 2, [0.5, 0.7, 0.9, 1.1])
    assert net.pattern.interior_vertices == (4, 7)
    got, dl = doubled_thetas(net, deg(80)[0])
    assert got[4] == 80.0
    assert abs(got[7] - 80.0) > 1.0  # child solves its own angle
    assert pair_sum_residual(net.pattern, dl, (0.3, 0.8)) < 1e-9


def test_connect_tree_rejects_bad_root():
    net = gen_miura(2, 3, math.radians(60))
    for theta in (0.0, math.pi):
        with pytest.raises(DlError, match="^theta must lie strictly between 0 and pi$"):
            connect_dl(net, theta)
    # the root's critical angles are refused by number, not nudged away from
    for theta in deg(60, 120):
        with pytest.raises(DlError, match=r"^theta 1?[26]0 deg is critical for mode a-I on vertex 5, "
                                          r"whose critical values are 60 and 120 deg$"):
            connect_dl(net, theta)


def test_connect_dl_doubles_asymmetric_loop():
    net = rowwise_miura(3, 3, [0.5, 0.65, 0.8, 0.95])
    assert len(net.shared_creases) > len(net.spanning_tree)
    for theta in (80, 60, 100, 90):
        got, dl = doubled_thetas(net, deg(theta)[0])
        assert got[5] == theta
        assert pair_sum_residual(net.pattern, dl, (0.3, 0.9)) < 1e-9
    # at 90 deg every row's minor ratio is 1:1, so one angle closes the loop
    assert set(got.values()) == {90.0}


def test_second_root_mode_doubles_nothing_the_first_cannot(monkeypatch):
    nets = [
        gen_miura(2, 3, math.radians(60)),
        gen_miura(2, 4, math.radians(60)),
        rowwise_miura(3, 2, [0.5, 0.7, 0.9, 1.1]),
        rowwise_miura(3, 3, [0.5, 0.65, 0.8, 0.95]),
    ]

    def doubled():
        out = {}
        for k, net in enumerate(nets):
            for theta in deg(30, 60, 80, 100, 150):
                try:
                    out[k, theta] = read_record(connect_dl(net, theta)).corner_modes
                except DlError:
                    continue
        return out

    first = doubled()
    monkeypatch.setattr(
        patterns, "_FAMILY_MODES", {f: modes[::-1] for f, modes in patterns._FAMILY_MODES.items()}
    )
    second = doubled()
    assert second.keys() <= first.keys()
    assert any(second[key] != first[key] for key in second)  # the other root mode ran


def test_gen_dl_miura_shape_and_motion():
    net = gen_miura(3, 3, math.radians(60))
    dl = gen_dl_miura(3, 3, math.radians(60), math.pi / 2)
    assert len(dl.vertices) == 44
    assert len(dl.creases) == 68
    assert len(dl.faces) == 25
    meta = read_record(dl)
    assert set(meta.signs.values()) == {"-++-"}
    g = np.array(meta.multipliers)
    samples = sweep_motion(dl, None, np.linspace(0.0, 1.2, 7), multipliers=g)
    assert max(s.residual for s in samples) < 1e-9
    assert pair_sum_residual(net.pattern, dl, (0.2, 0.6, 1.1)) < 1e-9


def test_gen_dl_miura_other_theta():
    dl = gen_dl_miura(3, 3, math.radians(60), deg(80)[0])
    net = gen_miura(3, 3, math.radians(60))
    assert pair_sum_residual(net.pattern, dl, (0.4,)) < 1e-9


def test_gen_dl_yoshimura():
    dl = gen_dl_yoshimura(2, 4, 1.5, math.pi / 2)
    assert len(dl.vertices) == 70
    net = gen_yoshimura(2, 4, 1.5)
    assert pair_sum_residual(net.pattern, dl, (0.3, 0.8)) < 1e-9
    # away from 90 deg the split vertices alternate between θ and 180° - θ
    dl = gen_dl_yoshimura(2, 4, 1.5, deg(80)[0])
    assert {round(math.degrees(t), 9) for t in read_record(dl).thetas.values()} == {80.0, 100.0}
    assert pair_sum_residual(net.pattern, dl, (0.3, 0.8)) < 1e-9


@pytest.mark.parametrize("rows, cols, crease", [(3, 3, 22), (3, 2, 14)])
def test_dl_yoshimura_loops_off_90_are_refused_by_crease(rows, cols, crease):
    with pytest.raises(DlError, match=rf"^doubled pairs disagree at crease {crease}: "
                                      r"corner \d+ folds ray \d+ at \S+ and corner \d+ at \S+$") as err:
        gen_dl_yoshimura(rows, cols, 1.5, deg(80)[0])
    a, b = (float(x.split()[0]) for x in str(err.value).split(" at ")[-2:])
    assert abs(a - b) > 1e-2


def test_a_distance_the_alignment_forces_to_zero_is_refused_by_the_margin_and_its_row():
    # doubled Miura 3x3 at 30 deg: the shared pairs line up only with a distance of vertex 5 at 0
    with pytest.raises(DlError, match=r"^no workable polygon distances for these rotation angles: best margin \S+, "
                                      r"bound by the distance of vertex 5 on axis 0$") as err:
        gen_dl_miura(3, 3, deg(60)[0], deg(30)[0])
    assert abs(float(re.search(r"margin (\S+),", str(err.value)).group(1))) <= 1e-6


def test_alignment_equations_without_a_solution_are_refused_by_their_residual(monkeypatch):
    # offsets that add up a vertex's distances: Miura 2x3's one shared pair then asks both vertices' 8 distances
    # to sum to 0 and the program asks them to sum to 8, so least squares leaves 8/3 on each alignment row and
    # 16/3 on the sum
    monkeypatch.setattr(patterns, "axis_offsets", lambda sectors, radii, theta: ((sum(radii),) * 2,) * 4)
    with pytest.raises(DlError, match=r"^no workable polygon distances for these rotation angles: "
                                      r"alignment residual 5\.33333$"):
        connect_dl(gen_miura(2, 3, deg(60)[0]), math.pi / 2)


def test_the_doubled_build_runs_no_network_solve(monkeypatch):
    def no_solve(*args):
        raise AssertionError("the doubled build ran a network solve")

    for net in (gen_miura(3, 3, math.radians(60)), gen_yoshimura(2, 3, 1.5)):
        with monkeypatch.context() as m:
            m.setattr(fold3d, "network_multipliers", no_solve)
            dl = connect_dl(net, math.pi / 2)
        g = np.array(read_record(dl).multipliers)
        assert max(s.residual for s in sweep_motion(dl, None, (0.3, 0.9), multipliers=g)) < 1e-9


def test_infer_modes_uses_stored_branches():
    dl = gen_dl_miura(2, 2, math.radians(60), math.pi / 2)
    meta = read_record(dl)
    modes = infer_modes(dl)
    assert set(modes) == set(dl.interior_vertices)
    assert {v: m.value for v, m in modes.items()} == {v: m.value for v, m in meta.corner_modes.items()}


def test_assign_mode_mv_relabels_without_rebuilding(monkeypatch):
    cases = []
    for pat in (gen_miura(3, 3, deg(60)[0]).pattern, gen_yoshimura(2, 3, 1.5).pattern):
        cases.append((pat, network_multipliers(pat, infer_modes(pat))))
    for pat in (gen_dl_miura(3, 3, deg(60)[0], math.pi / 2), gen_dl_yoshimura(2, 2, 1.5, math.pi / 2)):
        cases.append((pat, np.array(read_record(pat).multipliers)))
    for pat, g in cases:
        with monkeypatch.context() as m:
            m.setattr(CreasePattern, "build", lambda *args, **kw: pytest.fail("rebuilt"))
            out = assign_mode_mv(pat, -g)  # every label flips
            with pytest.raises(DlError):
                assign_mode_mv(pat, g[:-1])
        assert out == CreasePattern.build(out.vertices, out.creases, out.faces, dict(out.extras))
        for c, new, x in zip(pat.creases, out.creases, g):
            assert (new.v0, new.v1, new.fold_angle) == (c.v0, c.v1, c.fold_angle)
            if c.assignment == "B":
                assert new.assignment == "B"
            else:
                assert new.assignment == ("M" if x > 0 else "V")


@pytest.mark.parametrize("seed", range(30))
def test_maximize_agrees_with_highs_on_degenerate_programs(seed):
    """Max-min programs shaped like the radii's (t below every row of g @ u + h,
    u in a box), with small integer data so that many rows meet at the optimum."""
    from scipy.optimize import linprog

    rng = np.random.default_rng(seed)
    d = int(rng.integers(1, 8))
    g = rng.integers(-2, 3, size=(int(rng.integers(d, 6 * d)), d)).astype(float)
    h = rng.integers(0, 3, size=len(g)).astype(float)
    box = np.vstack([np.eye(d), -np.eye(d)])
    a = np.vstack([np.hstack([-g, np.ones((len(g), 1))]), np.hstack([box, np.zeros((2 * d, 1))])])
    b = np.concatenate([h, np.ones(2 * d)])
    w = np.eye(d + 1)[-1]
    x = patterns._maximize(a, b, w, np.append(np.zeros(d), h.min()))
    ref = linprog(-w, A_ub=a, b_ub=b, bounds=[(None, None)] * (d + 1), method="highs")
    assert ref.status == 0
    assert np.all(a @ x <= b + 1e-9)
    assert x[-1] == pytest.approx(-ref.fun, abs=1e-9)


def test_maximize_reports_an_unbounded_program():
    # x >= 0, maximize x0 + x1
    assert patterns._maximize(-np.eye(2), np.zeros(2), np.ones(2), np.zeros(2)) is None
