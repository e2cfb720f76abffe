"""Output checks that do not trust the program's own arithmetic.

Each check recomputes a property the method must have from the raw
outputs (coordinates, fold angles, bytes, counts) with the benchmark's own
formulas, and raises CheckFailed when the property does not hold.  Every
check also has a self-test: ``expect_failure`` feeds it a corrupted copy
of a real output and insists that it fails, so a check that passes
vacuously is caught on every run.
"""
from __future__ import annotations

import math

import numpy as np

CLOSURE_TOL = 1e-9
PAIR_SUM_TOL = 1e-9
KAWASAKI_TOL = 1e-9
RATIO_TOL = 1e-9
NEWTON_TOL = 1e-9
REGIME_M_TOL = 1e-6
GAP_TOL = 1e-6
MODE_COUNTS = {1: 1, 2: 2, 3: 4, 4: 10, 5: 26, 6: 80, 7: 246, 8: 810}


class CheckFailed(AssertionError):
    """An output contradicts a property the method guarantees."""


def require(ok: bool, what: str) -> None:
    if not ok:
        raise CheckFailed(what)


def expect_failure(name: str, check, *args) -> None:
    """Self-test: a corrupted output must make ``check`` fail."""
    try:
        check(*args)
    except CheckFailed:
        return
    raise CheckFailed(f"self-test: check {name} accepted a corrupted output")


# -- geometry of a flat crease pattern -------------------------------------


def vertex_rings(vertices, creases) -> list[tuple[int, list[int], list[float]]]:
    """Counterclockwise (vertex, crease ids, sector angles) of interior vertices.

    ``creases`` holds (v0, v1, assignment) triples; a vertex touching a
    boundary crease ("B") is not interior.
    """
    pts = np.asarray(vertices, dtype=float)
    incident: dict[int, list[int]] = {}
    boundary: set[int] = set()
    for ci, (a, b, kind) in enumerate(creases):
        incident.setdefault(a, []).append(ci)
        incident.setdefault(b, []).append(ci)
        if kind == "B":
            boundary.update((a, b))
    rings = []
    for v in sorted(incident):
        if v in boundary:
            continue
        rays = []
        for ci in incident[v]:
            a, b, _ = creases[ci]
            d = pts[b if a == v else a] - pts[v]
            rays.append((math.atan2(d[1], d[0]), ci))
        rays.sort()
        ids = [ci for _, ci in rays]
        az = [a for a, _ in rays]
        sectors = [(az[(k + 1) % len(az)] - az[k]) % (2.0 * math.pi) for k in range(len(az))]
        rings.append((v, ids, sectors))
    return rings


def _rot_x(rho: np.ndarray) -> np.ndarray:
    c, s = np.cos(rho), np.sin(rho)
    out = np.zeros(rho.shape + (3, 3))
    out[..., 0, 0] = 1.0
    out[..., 1, 1], out[..., 1, 2] = c, -s
    out[..., 2, 1], out[..., 2, 2] = s, c
    return out


def _rot_z(sigma: float) -> np.ndarray:
    c, s = math.cos(sigma), math.sin(sigma)
    return np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]])


def check_closure(rings, angles) -> float:
    """Vertex closure of every state: ||prod rot_x(rho_i) rot_z(sigma_i) - I|| < 1e-9.

    ``angles`` is (states x creases).  Returns the worst residual.
    """
    angles = np.atleast_2d(np.asarray(angles, dtype=float))
    worst = 0.0
    for _, ids, sectors in rings:
        loop = np.broadcast_to(np.eye(3), (len(angles), 3, 3))
        for ci, sigma in zip(ids, sectors):
            loop = loop @ _rot_x(angles[:, ci]) @ _rot_z(sigma)
        res = np.linalg.norm(loop - np.eye(3), axis=(1, 2))
        worst = max(worst, float(res.max()))
    require(worst < CLOSURE_TOL, f"vertex closure residual {worst:.3e}")
    return worst


def check_kawasaki(rings) -> None:
    """Every degree-4 corner: sigma_0 + sigma_2 = sigma_1 + sigma_3 = pi."""
    corners = [s for _, ids, s in rings if len(ids) == 4]
    require(bool(corners), "pattern has no degree-4 corner")
    for s in corners:
        for total in (s[0] + s[2], s[1] + s[3]):
            require(abs(total - math.pi) < KAWASAKI_TOL, f"Kawasaki sum {total!r} != pi")


def check_pair_sums(pairs, angles, g_orig) -> float:
    """Doubled pair (o, p, m): rho_p + rho_m = 2 atan(g_o s) for one s per state.

    ``g_orig`` are the tan-half multipliers of the undoubled network; s is
    fitted on the pair with the largest |g_o| and must then fit them all.
    """
    angles = np.atleast_2d(np.asarray(angles, dtype=float))
    ref = max(pairs, key=lambda t: abs(g_orig[t[0]]))
    worst = 0.0
    for row in angles:
        o, p, m = ref
        s = math.tan((row[p] + row[m]) / 2.0) / g_orig[o]
        for o, p, m in pairs:
            worst = max(worst, abs(row[p] + row[m] - 2.0 * math.atan(g_orig[o] * s)))
    require(worst < PAIR_SUM_TOL, f"doubled pair sum off by {worst:.3e}")
    return worst


def check_same_bytes(first: bytes, second: bytes, what: str) -> None:
    require(first == second, f"{what}: bytes differ")


def check_svg(svg: bytes, creases: int) -> None:
    """A whole SVG document with one path per crease."""
    require(svg.startswith(b"<?xml") and svg.endswith(b"</svg>\n"), "SVG document is cut")
    require(svg.count(b"<path") == creases, f"SVG has {svg.count(b'<path')} paths for {creases} creases")


# -- thick panels ----------------------------------------------------------


def check_thickness_bound(entries) -> None:
    """max_thickness(w, rho) equals w tan((pi - rho)/2); entries are (w, rho, value)."""
    for w, rho, value in entries:
        want = w * math.tan((math.pi - rho) / 2.0)
        require(abs(value - want) <= 1e-12 * max(1.0, abs(want)),
                f"thickness bound {value!r} != {want!r} at w={w!r}, rho={rho!r}")


def check_clears(clearances, gap) -> None:
    worst = min(clearances)
    require(worst >= 0.0, f"panels below the bound penetrate (clearance {worst:.3e})")
    require(gap < GAP_TOL, f"watertight gap {gap:.3e}")


def check_penetrates(clearances) -> None:
    worst = min(clearances)
    require(worst < 0.0, f"panels at twice the bound clear (clearance {worst:.3e})")


def check_raised(raised: bool) -> None:
    require(raised, "thickness above the enforced bound was accepted")


def check_exports(obj: str, csv: str, panels: int, samples: int) -> None:
    """One OBJ group per panel and one CSV row per motion sample."""
    require(obj.count("\ng face") == panels, f"OBJ has {obj.count(chr(10) + 'g face')} groups for {panels} panels")
    require(csv.count("\n") == samples + 1, f"clearance CSV has {csv.count(chr(10)) - 1} rows for {samples} samples")


# -- single doubled vertex: ratios, regimes, modes ---------------------------


def p_coef(a: float, b: float) -> float:
    return math.cos((a + b) / 2.0) / math.cos((a - b) / 2.0)


def q_coef(a: float, b: float) -> float:
    return math.sin((b - a) / 2.0) / math.sin((a + b) / 2.0)


def mode_pairs(label: str, alpha: float, beta: float, theta: float):
    """(major, minor) tan-half multiplier pairs of the four generic modes."""
    pa, pb = p_coef(alpha, theta), p_coef(beta, theta)
    qa, qb = q_coef(alpha, theta), q_coef(beta, theta)
    return {
        "a-I": ((1.0, pa * qb), (pa, qb)),
        "a-II": ((1.0, qa * pb), (pb, qa)),
        "b-I": ((1.0, -qa * qb), (-qa, qb)),
        "b-II": ((1.0, -pa * pb), (pb, -pa)),
    }[label]


def ratio_distance(u, v) -> float:
    return abs(u[0] * v[1] - u[1] * v[0]) / (math.hypot(*u) * math.hypot(*v))


def check_ratio(label, axis, alpha, beta, theta, target) -> None:
    """theta reproduces the target pair ratio (projective distance < 1e-9)."""
    pair = mode_pairs(label, alpha, beta, theta)[0 if axis == "major" else 1]
    d = ratio_distance(pair, target)
    require(d < RATIO_TOL, f"{label} {axis} ratio off target by {d:.3e}")


def sweep_extremum(k: float) -> float:
    """max |2 atan t + 2 atan(k t)| over 1e-6 <= t <= 1e6: a dense sweep, refined twice."""
    lo, hi = math.log(1e-6), math.log(1e6)
    for _ in range(3):
        u = np.linspace(lo, hi, 1201)
        t = np.exp(u)
        s = np.abs(2.0 * np.arctan(t) + 2.0 * np.arctan(k * t))
        j = int(s.argmax())
        lo, hi = u[max(j - 1, 0)], u[min(j + 1, len(u) - 1)]
    return float(s.max())


def check_regime(label, alpha, beta, theta, tag, extremum) -> None:
    """classify_theta agrees with the sweep: FullRange iff |S| exceeds pi."""
    k = mode_pairs(label, alpha, beta, theta)[0][1]
    top = sweep_extremum(k)
    if tag == "FullRange":
        require(top > math.pi, f"{label} at {theta!r}: FullRange but max |S| = {top!r}")
        return
    require(tag == "Finite", f"{label} at {theta!r}: unexpected regime {tag}")
    require(top <= math.pi, f"{label} at {theta!r}: Finite but max |S| = {top!r}")
    require(abs(extremum - top) < REGIME_M_TOL,
            f"{label} at {theta!r}: M = {extremum!r}, sweep gives {top!r}")


def check_mode_sequences(n: int, seqs) -> None:
    """Balanced +/- necklaces of length 2n: known count, canonical, distinct."""
    require(len(seqs) == MODE_COUNTS[n], f"n={n}: {len(seqs)} sequences, want {MODE_COUNTS[n]}")
    for s in seqs:
        require(len(s) == 2 * n and s.count("+") == n, f"n={n}: unbalanced sequence {s}")
        require(s == min(s[k:] + s[:k] for k in range(len(s))), f"n={n}: {s} not canonical")


def check_newton(solved, g, t) -> float:
    """Newton fold angles equal the closed form 2 atan(g t) to 1e-9."""
    err = float(np.max(np.abs(np.asarray(solved) - 2.0 * np.arctan(np.asarray(g) * t))))
    require(err < NEWTON_TOL, f"Newton solution off the closed form by {err:.3e}")
    return err
