"""Whole-package guarantees, one verdict line per criterion.

Each test prints ``criterion N: PASS/FAIL <summary>`` and the same lines
repeat in the terminal summary, so a plain pytest run doubles as the
sign-off report.
"""
import itertools
import math
from contextlib import contextmanager

import numpy as np
import pytest
from scipy.optimize import minimize_scalar

import conftest
from doubleline import (
    GENERIC_MODES,
    MODE_A1,
    MODE_SYM_MINUS,
    MODE_SYM_PLUS,
    DLMode,
    DlError,
    DoubleLineParams,
    DoubleLineRatio,
    FoldMode,
    ThickPanelParams,
    ThickenError,
    VertexStar,
    axis_sums,
    classify_theta,
    clearance_check,
    clearance_records,
    construct_dl,
    construct_symmetric_dl,
    corner_coefficients,
    count_modes,
    crease_half_widths,
    double_line_ratio,
    enumerate_mode_sequences,
    flat_fold_parameter,
    gen_dl_miura,
    gen_dl_yoshimura,
    gen_miura,
    gen_single_deg4,
    gen_yoshimura,
    infer_modes,
    load_fold,
    major_coefficient,
    max_thickness,
    mode_vector,
    network_multipliers,
    p_coeff,
    pattern_multipliers,
    quarter_angle_coefficient,
    read_record,
    save_fold,
    solve_fold_angles,
    sweep_motion,
    symmetric_fold_relation,
    theta_for_even_minor,
    theta_for_ratio,
    thicken,
    valid_modes,
    vertex_closure_residual,
    watertight_gap,
)
from doubleline.cli import main as cli_main
from doubleline.dl import CRITICAL, FINITE, FULL_RANGE

from conftest import deg, star_of


@contextmanager
def verdict(num, desc):
    try:
        yield
    except BaseException:
        line = f"criterion {num:2d}: FAIL {desc}"
        conftest.ACCEPTANCE_LINES.append(line)
        print(line)
        raise
    line = f"criterion {num:2d}: PASS {desc}"
    conftest.ACCEPTANCE_LINES.append(line)
    print(line)


def draw_band(rng):
    a = rng.uniform(0.05, math.pi / 2 - 0.06)
    b = rng.uniform(a + 0.02, math.pi / 2 - 0.02)
    return a, b


def draw_theta(rng, a, b):
    # keep clear of the four critical values where a multiplier vanishes
    poles = (a, b, math.pi - a, math.pi - b)
    while True:
        th = rng.uniform(0.05, math.pi - 0.05)
        if min(abs(th - p) for p in poles) > 0.01:
            return th


def test_01_mode_products_and_sign_scan():
    with verdict(1, "corner products equal 1; sign scan finds 4 generic + sym at 90 deg"):
        rng = np.random.default_rng(20250825)
        for _ in range(1000):
            a, b = draw_band(rng)
            th = draw_theta(rng, a, b)
            for mode in GENERIC_MODES:
                prod = math.prod(corner_coefficients(mode, a, b, th))
                assert abs(prod - 1.0) < 1e-12
        generic = {m.signs for m in GENERIC_MODES}
        special = generic | {MODE_SYM_PLUS.signs, MODE_SYM_MINUS.signs}
        for _ in range(50):
            a, b = draw_band(rng)
            th = draw_theta(rng, a, b)
            assert {m.signs for m in valid_modes(a, b, th)} == generic
        for a_deg in (30, 45, 60, 75):
            a = math.radians(a_deg)
            for b in (a, math.pi - a):
                assert {m.signs for m in valid_modes(a, b, math.pi / 2)} == special
                assert {m.signs for m in valid_modes(a, b, math.radians(77))} == generic
        assert {m.signs for m in valid_modes(*deg(50, 70, 90))} == generic


def test_02_axis_sum_tangent_identity():
    with verdict(2, "tan(S_minor/2)/tan(S_major/2) = p(alpha, beta) to 1e-9"):
        rng = np.random.default_rng(20250826)
        for _ in range(1000):
            a, b = draw_band(rng)
            th = draw_theta(rng, a, b)
            k = major_coefficient(MODE_A1, a, b, th)
            while True:
                t = rng.uniform(0.05, 2.5)
                # both axis sums share a pole at k*t^2 = 1
                if abs(1.0 - k * t * t) >= 0.05:
                    break
            s_major, s_minor = axis_sums(a, b, th, MODE_A1, t)
            ratio = math.tan(s_minor / 2.0) / math.tan(s_major / 2.0)
            assert abs(ratio - p_coeff(a, b)) < 1e-9


def test_03_regime_classification_against_sweep():
    with verdict(3, "classify_theta matches sweep oracle on 1 deg grid; M to 1e-6"):
        rng = np.random.default_rng(20250827)
        t_grid = np.geomspace(1e-6, 1e6, 1201)
        for _ in range(20):
            a, b = draw_band(rng)
            for mode in GENERIC_MODES:
                for th_deg in range(1, 180):
                    regime = classify_theta(mode, a, b, math.radians(th_deg))
                    assert regime.tag != CRITICAL
                    k = major_coefficient(mode, a, b, math.radians(th_deg))
                    s = np.abs(2.0 * np.arctan(t_grid) + 2.0 * np.arctan(k * t_grid))
                    if regime.tag == FULL_RANGE:
                        assert s.max() > math.pi
                        continue
                    assert regime.tag == FINITE
                    assert s.max() <= math.pi
                    j = int(s.argmax())
                    res = minimize_scalar(
                        lambda u: -abs(2.0 * math.atan(math.exp(u))
                                       + 2.0 * math.atan(k * math.exp(u))),
                        bounds=(math.log(t_grid[max(j - 1, 0)]),
                                math.log(t_grid[min(j + 1, len(t_grid) - 1)])),
                        method="bounded", options={"xatol": 1e-12})
                    assert abs(regime.extremum - (-res.fun)) < 1e-6


def test_04_ratio_targets():
    with verdict(4, "even-minor theta gives 1:1; ratio solver round-trips and rejects"):
        rng = np.random.default_rng(20250828)
        even = DoubleLineRatio(1.0, 1.0)
        for _ in range(20):
            a, b = draw_band(rng)
            for mode in GENERIC_MODES:
                th = theta_for_even_minor(mode, a, b)
                assert double_line_ratio(mode, "minor", a, b, th).distance(even) < 1e-9
        done = 0
        while done < 200:
            a, b = draw_band(rng)
            mode = GENERIC_MODES[int(rng.integers(4))]
            axis = ("major", "minor")[int(rng.integers(2))]
            th_true = rng.uniform(0.1, math.pi - 0.1)
            if min(abs(th_true - p) for p in (a, b, math.pi - a, math.pi - b)) < 0.05:
                continue
            target = double_line_ratio(mode, axis, a, b, th_true)
            solved = theta_for_ratio(mode, axis, a, b, target)
            assert double_line_ratio(mode, axis, a, b, solved).distance(target) < 1e-9
            done += 1
        a, b = deg(50, 70)
        for axis, tgt in (("major", (1.0, 1.0)), ("major", (1.0, -1.0)),
                          ("minor", (1.0, -1.0))):
            with pytest.raises(DlError):
                theta_for_ratio(MODE_A1, axis, a, b, DoubleLineRatio(*tgt))


def _capped_grid(pattern, multipliers, samples):
    t_flat = flat_fold_parameter(pattern, multipliers)
    hi = 0.97 * t_flat if t_flat is not None else 2.0
    return np.geomspace(hi * 1e-3, hi, samples)


def _pair_sum_mismatch(motion, pairs, reference):
    """Worst gap between doubled-pair sums and 2*atan(m*s) with s fitted."""
    ref = max(range(len(pairs)), key=lambda i: abs(reference[pairs[i][0]]))
    worst = 0.0
    for sample in motion:
        oc, pc, mc = pairs[ref]
        half = (sample.fold_angles[pc] + sample.fold_angles[mc]) / 2.0
        scale = math.tan(half) / reference[oc]
        for oc, pc, mc in pairs:
            s = sample.fold_angles[pc] + sample.fold_angles[mc]
            worst = max(worst, abs(s - 2.0 * math.atan(reference[oc] * scale)))
    return worst


def test_05_motion_closure_and_pair_sums():
    with verdict(5, "all sampled motions close to 1e-9 and match vertex fold angles"):
        # single flat-foldable vertex
        single = gen_single_deg4(*deg(60, 80))
        vid = single.interior_vertices[0]
        motion = sweep_motion(single, {vid: FoldMode.A}, np.geomspace(2e-3, 2.0, 40))
        assert max(s.residual for s in motion) < 1e-9

        # doubled vertex: pair sums reproduce the original mode vector
        star = star_of(deg(60, 80, 120, 100))
        dlp = construct_dl(star, DoubleLineParams(math.pi / 2, (0.2,) * 4))
        g = pattern_multipliers(dlp, MODE_A1)
        motion = sweep_motion(dlp, None, _capped_grid(dlp, g, 40), multipliers=g)
        assert max(s.residual for s in motion) < 1e-9
        axes = read_record(dlp).axes
        pairs = [(i, p, m) for i, (p, m) in enumerate(axes)]
        original = np.array(list(mode_vector(star, FoldMode.A)))
        assert _pair_sum_mismatch(motion, pairs, original) < 1e-9

        # doubled degree-6 vertex under the alternating sequence
        pat6 = construct_symmetric_dl(3)
        info6 = read_record(pat6)
        g6 = pattern_multipliers(pat6, DLMode("+-+-+-", tuple("+-+-+-")))
        motion = sweep_motion(pat6, None, _capped_grid(pat6, g6, 40), multipliers=g6)
        assert max(s.residual for s in motion) < 1e-9
        star6 = VertexStar.from_sectors([math.pi / 3] * 6)
        for sample in motion:
            s = [sample.fold_angles[p] + sample.fold_angles[m] for p, m in info6.axes]
            assert vertex_closure_residual(star6, s) < 1e-9
            assert max(abs(s[i] - s[0]) for i in (2, 4)) < 1e-9
            assert max(abs(s[i] - s[1]) for i in (3, 5)) < 1e-9
            assert abs(symmetric_fold_relation(3, s[1]) - s[0]) < 1e-9

        # doubled tessellations: pair sums reproduce the network multipliers
        networks = (
            (gen_dl_miura(3, 3, *deg(60, 90)), gen_miura(3, 3, *deg(60)).pattern),
            (gen_dl_yoshimura(2, 4, 1.5, math.pi / 2), gen_yoshimura(2, 4, 1.5).pattern),
        )
        for dl_pat, orig in networks:
            meta = read_record(dl_pat)
            gm = np.asarray(meta.multipliers, dtype=float)
            motion = sweep_motion(dl_pat, None, _capped_grid(dl_pat, gm, 25),
                                  multipliers=gm)
            assert max(s.residual for s in motion) < 1e-9
            go = network_multipliers(orig, infer_modes(orig))
            assert _pair_sum_mismatch(motion, meta.pairs, go) < 1e-9


def test_06_quarter_angle_law():
    with verdict(6, "alternating (rho_a, rho_b) closes degree-2n vertices to 1e-9"):
        rng = np.random.default_rng(20250830)
        for n in (2, 3, 4, 6):
            star = VertexStar.from_sectors([math.pi / n] * (2 * n))
            for _ in range(50):
                rho_a = rng.uniform(-2 * math.pi + 0.05, 2 * math.pi - 0.05)
                rho_b = symmetric_fold_relation(n, rho_a)
                assert vertex_closure_residual(star, [rho_a, rho_b] * n) < 1e-9
        assert abs(quarter_angle_coefficient(3) - (2.0 - math.sqrt(3.0))) < 1e-12


def test_07_mode_counts():
    with verdict(7, "count_modes matches enumeration for n=1..8, values 4/10/80"):
        expected = [1, 2, 4, 10, 26, 80, 246, 810]
        for n, want in zip(range(1, 9), expected):
            assert count_modes(n) == want
            assert len(enumerate_mode_sequences(n)) == want
        assert count_modes(3) == 4
        assert count_modes(4) == 10
        assert count_modes(6) == 80


def test_08_solver_matches_closed_form():
    with verdict(8, "Newton solver tracks tangent propagation over (-170, 170) deg"):
        pat = gen_miura(3, 3, math.radians(60)).pattern
        g = network_multipliers(pat, infer_modes(pat))
        driver = max(pat.interior_creases, key=lambda c: abs(g[c]))
        worst = 0.0
        for sign in (1.0, -1.0):
            # both branches meet at flat, so continue from a pinned seed
            prev = 2.0 * np.arctan(g * sign * 0.02)
            for tk in np.linspace(0.05, 11.4, 40):
                t = sign * tk
                target = 2.0 * math.atan(g[driver] * t)
                solved = solve_fold_angles(pat, driver, target,
                                           initial_guess=prev, tol=1e-12)
                worst = max(worst, np.max(np.abs(solved - 2.0 * np.arctan(g * t))))
                prev = solved
        assert worst < 1e-9


def test_09_thickness_bound_and_clearance():
    with verdict(9, "thickness bound exact; 0.9x clears, 2x penetrates on 50 samples"):
        for c in np.linspace(0.05, 2.0, 20):
            for rho in np.linspace(0.05, math.pi - 0.05, 40):
                assert max_thickness(c, rho) == c * math.tan((math.pi - rho) / 2.0)

        dlm = gen_dl_miura(3, 3, *deg(60, 90))
        meta = read_record(dlm)
        modes = dict(meta.corner_modes)
        gm = np.asarray(meta.multipliers, dtype=float)
        t_flat = flat_fold_parameter(dlm, gm)
        motion = sweep_motion(dlm, modes, np.geomspace(1e-3, 0.97 * t_flat, 50))
        widths = crease_half_widths(dlm)
        extremes = {}
        for sample in motion:
            for ci in dlm.interior_creases:
                v = sample.fold_angles[ci]
                if abs(v) > abs(extremes.get(ci, 0.0)):
                    extremes[ci] = v
        rho_design = {ci: v + math.copysign(0.002, v) for ci, v in extremes.items()}
        bound = min(max_thickness(widths[ci], abs(r))
                    for ci, r in rho_design.items() if r > 0 and ci in widths)

        solids = thicken(dlm, motion, ThickPanelParams(tau=0.9 * bound, side="above",
                                                       rho_max=rho_design))
        records = clearance_records(solids, motion)
        assert min(r[1] for r in records) >= 0.0
        assert watertight_gap(solids) < 1e-6

        loose = ThickPanelParams(tau=2.0 * bound, side="above", rho_max=rho_design,
                                 enforce_bound=False)
        assert clearance_check(thicken(dlm, motion, loose), motion) < 0.0
        with pytest.raises(ThickenError):
            thicken(dlm, motion, ThickPanelParams(tau=2.0 * bound, side="above",
                                                  rho_max=rho_design))


def test_10_determinism_and_io(tmp_path, capsysbinary):
    with verdict(10, "FOLD round-trip identity; CLI reruns are byte-identical"):
        for pat in (gen_dl_miura(2, 2, *deg(60, 90)), gen_miura(3, 3, *deg(60)).pattern):
            blob = save_fold(pat)
            assert save_fold(load_fold(blob)) == blob

        def run(*argv):
            code = cli_main(list(argv))
            captured = capsysbinary.readouterr()
            assert code == 0, captured.err
            return captured.out

        def rerun_identical(*argv):
            assert run(*argv) == run(*argv)

        single = tmp_path / "single.fold"
        doubled = tmp_path / "dl.fold"
        dlm = tmp_path / "dlm.fold"
        for stem, argv in (("a", ("gen", "single", "--alpha", "60", "--beta", "80")),
                           ("b", ("gen", "dl-miura", "--rows", "2", "--cols", "2",
                                  "--angle", "60", "--theta", "90"))):
            out1, out2 = tmp_path / f"{stem}1.fold", tmp_path / f"{stem}2.fold"
            run(*argv, "--out", str(out1))
            run(*argv, "--out", str(out2))
            assert out1.read_bytes() == out2.read_bytes()
        run("gen", "single", "--alpha", "60", "--beta", "80", "--out", str(single))
        run("gen", "dl-miura", "--rows", "2", "--cols", "2", "--angle", "60",
            "--theta", "90", "--out", str(dlm))
        run("doubleline", str(single), "--theta", "90", "--radii", "0.2,0.2,0.2,0.2",
            "--mode", "a-I", "--out", str(doubled))

        rerun_identical("analyze", str(single))
        rerun_identical("doubleline", str(single), "--theta", "90",
                        "--radii", "0.2,0.2,0.2,0.2", "--mode", "a-I")
        rerun_identical("classify", "--alpha", "50", "--beta", "70", "--grid", "30")
        rerun_identical("modes", "--n", "6", "--check")
        rerun_identical("sweep", str(doubled), "--samples", "9")
        rerun_identical("fold", str(doubled), "--t", "0.5", "--format", "obj")
        rerun_identical("solve", str(doubled), "--driver", "0", "--target", "25")
        rerun_identical("thicken", str(doubled), "--tau", "0.01", "--samples", "8",
                        "--format", "csv")
        rerun_identical("export", str(dlm))
