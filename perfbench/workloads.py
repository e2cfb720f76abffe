"""The four workloads: what one op is, the fixed mix of a round, the checks.

A workload is a class with

- ``setup()``: build inputs (untimed, counted in setup_s);
- ``round(rng)``: the specs of one round.  Every round holds the same
  multiset of op kinds and sizes; the seed only shuffles their order and
  draws continuous parameters inside narrow ranges;
- ``warmup(rng)``: one spec of each op kind, run untimed before timing;
- ``run(spec)``: one timed op, returning its raw outputs;
- ``check(spec, out)``: raises checks.CheckFailed on a wrong output;
- ``selftest(spec, out)``: corrupts a real output and requires that the
  matching check fails.

Program functions are always looked up on the package or its modules at
call time, so the tracer's wrappers see every call.
"""
from __future__ import annotations

import hashlib
import math
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

import checks
from checks import expect_failure

R = math.radians


def pkg():
    return sys.modules["doubleline"]


def mod(name: str):
    return sys.modules["doubleline." + name]


def _perturb(a, k: int, eps: float = 1e-6) -> np.ndarray:
    out = np.array(a, dtype=float, copy=True)
    out.flat[k] += eps
    return out


def _flip_byte(blob: bytes) -> bytes:
    b = bytearray(blob)
    b[len(b) // 2] ^= 0x01
    return bytes(b)


def _geometry(pattern):
    return pattern.vertices, [(c.v0, c.v1, c.assignment) for c in pattern.creases]


# -- design -------------------------------------------------------------------

# (family, rows, cols, nominal parameter, theta in degrees).  Miura entries
# give the parallelogram angle, Yoshimura entries the elongation.  Sorted by
# op time the mix is 2x2 | four 3x3 | two 4x4 and the 2x4 Yoshimura, so the
# median op falls inside the 3x3 class and the 11th-slowest op of a run
# inside the top class (3/8 of the ops) for any run of more than 27 ops.
DESIGN_MIX = (
    ("miura", 2, 2, 60.0, 90.0),
    ("miura", 3, 3, 60.0, 90.0),
    ("miura", 3, 3, 70.0, 60.0),
    ("miura", 3, 3, 70.0, 90.0),
    ("miura", 3, 3, 70.0, 120.0),
    ("miura", 4, 4, 60.0, 90.0),
    ("miura", 4, 4, 70.0, 90.0),
    ("yoshimura", 2, 4, 1.5, 90.0),
)
DESIGN_SAMPLES = 10


class Design:
    def setup(self):
        pass  # every op generates its own pattern

    def _spec(self, rng, entry):
        family, rows, cols, param, theta = entry
        if family == "miura":
            return (family, rows, cols, param + rng.uniform(-0.5, 0.5), theta + rng.uniform(-0.5, 0.5))
        # only theta = 90 deg closes a doubled Yoshimura network
        return (family, rows, cols, param + rng.uniform(-0.02, 0.02), theta)

    def round(self, rng):
        specs = [self._spec(rng, e) for e in DESIGN_MIX]
        rng.shuffle(specs)
        return specs

    def warmup(self, rng):
        return [self._spec(rng, DESIGN_MIX[0]), self._spec(rng, DESIGN_MIX[-1])]

    def run(self, spec):
        dl = pkg()
        family, rows, cols, param, theta = spec
        if family == "miura":
            pattern = dl.gen_dl_miura(rows, cols, R(param), R(theta))
        else:
            pattern = dl.gen_dl_yoshimura(rows, cols, param, R(theta))
        blob = dl.save_fold(pattern)
        loaded = dl.load_fold(blob)
        again = dl.save_fold(loaded)
        meta = dl.get_extra(loaded, mod("patterns").NETWORK_KEY)
        g = np.asarray(meta["multipliers"], dtype=float)
        t_flat = dl.flat_fold_parameter(loaded, g)
        # the CLI's sweep limit: 1.0 when no doubled pair folds toward flat
        t_max = 0.97 * t_flat if t_flat is not None else 1.0
        motion = dl.sweep_motion(loaded, None, np.linspace(0.0, t_max, DESIGN_SAMPLES), multipliers=g)
        svg = dl.save_svg(loaded)
        return {
            "pattern": loaded,
            "blobs": (blob, again),
            "pairs": [tuple(p) for p in meta["pairs"]],
            "angles": np.array([s.fold_angles for s in motion]),
            "svg": svg,
        }

    @staticmethod
    def _orig_multipliers(spec):
        """Tan-half multipliers of the undoubled network."""
        dl = pkg()
        family, rows, cols, param, _ = spec
        net = dl.gen_miura(rows, cols, R(param)) if family == "miura" else dl.gen_yoshimura(rows, cols, param)
        return dl.network_multipliers(net.pattern, dl.infer_modes(net.pattern))

    def check(self, spec, out):
        rings = checks.vertex_rings(*_geometry(out["pattern"]))
        checks.check_same_bytes(*out["blobs"], "FOLD write-read-write")
        checks.check_kawasaki(rings)
        checks.check_closure(rings, out["angles"])
        checks.check_pair_sums(out["pairs"], out["angles"], self._orig_multipliers(spec))
        checks.check_svg(out["svg"], len(out["pattern"].creases))

    def selftest(self, spec, out):
        vertices, creases = _geometry(out["pattern"])
        rings = checks.vertex_rings(vertices, creases)
        blob, again = out["blobs"]
        expect_failure("fold-roundtrip", checks.check_same_bytes, blob, _flip_byte(again), "FOLD")
        expect_failure("svg", checks.check_svg, out["svg"][:-8], len(creases))
        v = rings[0][0]
        moved = [tuple(p) if i != v else (p[0] + 1e-6, p[1]) for i, p in enumerate(vertices)]
        expect_failure("kawasaki", checks.check_kawasaki, checks.vertex_rings(moved, creases))
        k = rings[0][1][0]
        expect_failure("closure", checks.check_closure, rings, _perturb(out["angles"], out["angles"].shape[1] + k))
        p = out["pairs"][0][1]
        expect_failure("pair-sums", checks.check_pair_sums, out["pairs"],
                       _perturb(out["angles"], out["angles"].shape[1] + p), self._orig_multipliers(spec))


# -- thick --------------------------------------------------------------------

# (pattern, kind, low and high tau factor relative to the thickness bound).
# Clearing ops sit below the bound, penetrating ops far above it with the
# bound lifted, strict ops above it with the bound enforced (must raise).
# Only the 3x3 pattern penetrates at twice the bound.  Sorted by op time the
# mix is two 2x2 strict | three 2x2 clearing | two 3x3 clearing and one 3x3
# penetrating: the median op is a 2x2 clearing op and the 11th-slowest op
# of a run a 3x3 op, clearing or penetrating, for any run of more than 27
# ops.
THICK_MIX = (
    ("dlm33", "clearing", 0.88, 0.92),
    ("dlm33", "clearing", 0.88, 0.92),
    ("dlm33", "penetrating", 1.95, 2.05),
    ("dlm22", "clearing", 0.88, 0.92),
    ("dlm22", "clearing", 0.88, 0.92),
    ("dlm22", "clearing", 0.88, 0.92),
    ("dlm22", "strict", 1.95, 2.05),
    ("dlm22", "strict", 1.95, 2.05),
)
THICK_SAMPLES = 8
TRIM_MARGIN = 0.002


class Thick:
    def setup(self):
        dl = pkg()
        self.patterns = {
            "dlm33": dl.gen_dl_miura(3, 3, R(60), R(90)),
            "dlm22": dl.gen_dl_miura(2, 2, R(60), R(90)),
        }
        self.rings = {k: checks.vertex_rings(*_geometry(p)) for k, p in self.patterns.items()}

    def _spec(self, rng, entry):
        key, kind, lo, hi = entry
        return (key, kind, rng.uniform(lo, hi), rng.uniform(0.968, 0.972))

    def round(self, rng):
        specs = [self._spec(rng, e) for e in THICK_MIX]
        rng.shuffle(specs)
        return specs

    def warmup(self, rng):
        return [self._spec(rng, THICK_MIX[k]) for k in (3, 2, 6)]

    def run(self, spec):
        dl = pkg()
        key, kind, factor, reach = spec
        pattern = self.patterns[key]
        meta = dl.get_extra(pattern, mod("patterns").NETWORK_KEY)
        g = np.asarray(meta["multipliers"], dtype=float)
        t_max = reach * dl.flat_fold_parameter(pattern, g)
        motion = dl.sweep_motion(pattern, None, np.geomspace(t_max * 1e-3, t_max, THICK_SAMPLES), multipliers=g)
        widths = dl.crease_half_widths(pattern)
        extremes = {}
        for sample in motion:
            for ci in pattern.interior_creases:
                v = float(sample.fold_angles[ci])
                if abs(v) > abs(extremes.get(ci, 0.0)):
                    extremes[ci] = v
        rho = {ci: v + math.copysign(TRIM_MARGIN, v) for ci, v in extremes.items()}
        bounds = [(widths[ci], r, dl.max_thickness(widths[ci], r)) for ci, r in rho.items() if r > 0 and ci in widths]
        tau = factor * min(b for _, _, b in bounds)
        params = dl.ThickPanelParams(tau=tau, side="above", rho_max=rho, enforce_bound=kind != "penetrating")
        out = {"angles": np.array([s.fold_angles for s in motion]), "bounds": bounds, "raised": False}
        try:
            solids = dl.thicken(pattern, motion, params)
        except dl.ThickenError:
            out["raised"] = True
            return out
        records = dl.clearance_records(solids, motion)
        out["clearances"] = [r[1] for r in records]
        out["gap"] = dl.watertight_gap(solids)
        out["obj"] = dl.export_solids_obj(solids)
        out["csv"] = dl.export_clearance_csv(records)
        return out

    def check(self, spec, out):
        key, kind = spec[:2]
        checks.check_closure(self.rings[key], out["angles"])
        checks.check_thickness_bound(out["bounds"])
        if kind == "strict":
            checks.check_raised(out["raised"])
            return
        checks.require(not out["raised"], f"{kind} panels were rejected")
        if kind == "clearing":
            checks.check_clears(out["clearances"], out["gap"])
        else:
            checks.check_penetrates(out["clearances"])
        checks.check_exports(out["obj"], out["csv"], len(self.patterns[key].faces), THICK_SAMPLES)

    def selftest(self, spec, out):
        key, kind = spec[:2]
        k = self.rings[key][0][1][0]
        expect_failure("closure", checks.check_closure, self.rings[key], _perturb(out["angles"], k))
        w, r, b = out["bounds"][0]
        expect_failure("thickness-bound", checks.check_thickness_bound, [(w, r, b * (1 + 1e-6))])
        if kind == "strict":
            expect_failure("strict-raises", checks.check_raised, False)
        elif kind == "clearing":
            expect_failure("clears", checks.check_clears, out["clearances"] + [-1e-9], out["gap"])
            expect_failure("watertight", checks.check_clears, out["clearances"], 2 * checks.GAP_TOL)
        else:
            expect_failure("penetrates", checks.check_penetrates, [abs(c) for c in out["clearances"]])
        if kind != "strict":
            panels = len(self.patterns[key].faces)
            expect_failure("exports", checks.check_exports, out["obj"], out["csv"].rstrip("\n").rsplit("\n", 1)[0] + "\n",
                           panels, THICK_SAMPLES)


# -- analyze ------------------------------------------------------------------

# Sorted by op time: regimes | ratios | enumerate | three doubled-vertex
# solves | two Miura solves, so the median op is a doubled-vertex solve and
# the 11th-slowest op of a run a Miura solve.
ANALYZE_MIX = ("regimes", "ratios", "enumerate", "solve_dl", "solve_dl", "solve_dl",
               "solve_miura", "solve_miura")
SOLVE_TOL = 1e-12


def _band(rng):
    return R(rng.uniform(48.0, 52.0)), R(rng.uniform(68.0, 72.0))


class Analyze:
    def setup(self):
        dl = pkg()
        self.miura = dl.gen_miura(3, 3, R(60)).pattern
        g = dl.network_multipliers(self.miura, dl.infer_modes(self.miura))
        self.miura_g = (g, max(self.miura.interior_creases, key=lambda c: abs(g[c])))
        self.miura_rings = checks.vertex_rings(*_geometry(self.miura))
        self.star = dl.VertexStar.from_sectors([R(a) for a in (60, 80, 120, 100)])

    def _spec(self, rng, kind):
        # the continuation takes one Newton solve per 0.05 rad of target, so
        # the target ranges are narrow to keep each kind's op time narrow
        if kind == "solve_miura":
            return (kind, R(rng.uniform(113.0, 117.0)))
        if kind == "solve_dl":  # target angle, polygon radius
            return (kind, R(rng.uniform(88.0, 92.0)), rng.uniform(0.18, 0.22))
        if kind == "ratios":
            alpha, beta = _band(rng)
            # theta_for_ratio misses the a-I major root for theta near 100-105
            # deg (see CHANGES.md), so round trips start from 86-94 deg
            return (kind, alpha, beta, tuple(R(rng.uniform(86.0, 94.0)) for _ in range(4)))
        if kind == "regimes":
            return (kind, *_band(rng))
        return (kind,)

    def round(self, rng):
        specs = [self._spec(rng, k) for k in ANALYZE_MIX]
        rng.shuffle(specs)
        return specs

    def warmup(self, rng):
        return [self._spec(rng, k) for k in dict.fromkeys(ANALYZE_MIX)]

    def run(self, spec):
        dl = pkg()
        kind = spec[0]
        if kind == "regimes":
            _, alpha, beta = spec
            table = [
                (m.label, th, dl.classify_theta(m, alpha, beta, R(th)))
                for m in dl.GENERIC_MODES for th in range(1, 180)
            ]
            even = [(m.label, dl.theta_for_even_minor(m, alpha, beta)) for m in dl.GENERIC_MODES]
            return {"table": [(lb, th, r.tag, r.extremum) for lb, th, r in table], "even": even}
        if kind == "ratios":
            _, alpha, beta, thetas = spec
            out = []
            for m, th, axis in zip(dl.GENERIC_MODES, thetas, ("major", "minor", "major", "minor")):
                target = dl.double_line_ratio(m, axis, alpha, beta, th)
                solved = dl.theta_for_ratio(m, axis, alpha, beta, target)
                out.append((m.label, axis, (target.first, target.second), solved))
            return {"trips": out}
        if kind == "enumerate":
            return {"seqs": {n: dl.enumerate_mode_sequences(n) for n in checks.MODE_COUNTS}}
        target = spec[1]
        if kind == "solve_miura":
            pattern, (g, pinned) = self.miura, self.miura_g
        else:
            pattern = dl.construct_dl(self.star, dl.DoubleLineParams(math.pi / 2, (spec[2],) * 4))
            g = dl.pattern_multipliers(pattern, dl.MODE_A1)
            pinned = int(np.argmax(np.abs(g)))
        solved = dl.solve_fold_angles(pattern, pinned, target, tol=SOLVE_TOL)
        return {"pattern": pattern, "g": g, "t": math.tan(target / 2.0) / g[pinned], "solved": solved}

    def _rings(self, kind, out):
        return self.miura_rings if kind == "solve_miura" else checks.vertex_rings(*_geometry(out["pattern"]))

    def check(self, spec, out):
        kind = spec[0]
        if kind == "regimes":
            _, alpha, beta = spec
            for label, th, tag, m in out["table"]:
                checks.check_regime(label, alpha, beta, R(th), tag, m)
            for label, th in out["even"]:
                checks.check_ratio(label, "minor", alpha, beta, th, (1.0, 1.0))
        elif kind == "ratios":
            _, alpha, beta, _ = spec
            for label, axis, target, solved in out["trips"]:
                checks.check_ratio(label, axis, alpha, beta, solved, target)
        elif kind == "enumerate":
            for n, seqs in out["seqs"].items():
                checks.check_mode_sequences(n, seqs)
        else:
            checks.check_newton(out["solved"], out["g"], out["t"])
            checks.check_closure(self._rings(kind, out), out["solved"])

    def selftest(self, spec, out):
        kind = spec[0]
        if kind == "regimes":
            _, alpha, beta = spec
            label, th, tag, m = next(row for row in out["table"] if row[2] == "Finite")
            expect_failure("regime-extremum", checks.check_regime, label, alpha, beta, R(th), tag, m + 1e-5)
            expect_failure("regime-tag", checks.check_regime, label, alpha, beta, R(th), "FullRange", None)
            label, th = out["even"][0]
            expect_failure("even-minor", checks.check_ratio, label, "minor", alpha, beta, th + 1e-6, (1.0, 1.0))
        elif kind == "ratios":
            _, alpha, beta, _ = spec
            label, axis, target, solved = out["trips"][0]
            expect_failure("ratio", checks.check_ratio, label, axis, alpha, beta, solved + 1e-6, target)
        elif kind == "enumerate":
            seqs = out["seqs"][8]
            expect_failure("mode-count", checks.check_mode_sequences, 8, set(list(seqs)[1:]))
            expect_failure("mode-canonical", checks.check_mode_sequences, 3,
                           {s[1:] + s[0] for s in out["seqs"][3]})
        else:
            expect_failure("newton", checks.check_newton, _perturb(out["solved"], 0), out["g"], out["t"])
            rings = self._rings(kind, out)
            expect_failure("closure", checks.check_closure, rings, _perturb(out["solved"], rings[0][1][0]))


# -- cli ----------------------------------------------------------------------

# The command list of scripts/reproduce.sh, pinned here so that a change to
# the script does not silently change the workload.  Paths are relative to
# the pass directory.
CLI_COMMANDS = (
    ("gen", "single", "--alpha", "60", "--beta", "80", "--out", "single.fold"),
    ("gen", "dl-miura", "--rows", "3", "--cols", "3", "--angle", "60", "--theta", "90",
     "--out", "dl_miura.fold"),
    ("doubleline", "single.fold", "--theta", "90", "--radii", "0.2,0.2,0.2,0.2", "--mode", "a-I",
     "--out", "dl_single.fold"),
    ("classify", "--alpha", "50", "--beta", "70", "--grid", "5", "--out", "regimes.csv"),
    ("sweep", "dl_single.fold", "--samples", "25", "--out", "motion.csv"),
    ("fold", "dl_single.fold", "--t", "0.5", "--format", "obj", "--out", "state.obj"),
    ("thicken", "dl_single.fold", "--tau", "0.01", "--samples", "12", "--out", "panels.obj"),
    ("thicken", "dl_single.fold", "--tau", "0.01", "--samples", "12", "--format", "csv",
     "--out", "clearance.csv"),
    ("export", "dl_miura.fold", "--out", "dl_miura.svg"),
)
CLI_TIMEOUT_S = 60


def artifact_digest(directory: Path) -> dict[str, str]:
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in sorted(directory.iterdir())}


class Cli:
    """Each op is one fresh ``python -m doubleline`` process (commands keep
    the script's order, which their file dependencies need, so the seed
    changes nothing here)."""

    traced = False  # set by the worker: run children under cli_child.py

    def __init__(self, scratch: Path):
        self.scratch = scratch
        self.passes = 0
        self.first_digest = None

    def setup(self):
        self.scratch.mkdir(parents=True, exist_ok=True)

    def _new_pass(self) -> Path:
        d = Path(tempfile.mkdtemp(prefix=f"pass{self.passes}-", dir=self.scratch))
        self.passes += 1
        return d

    def round(self, rng):
        d = self._new_pass()
        return [(d, argv) for argv in CLI_COMMANDS]

    def warmup(self, rng):
        return [(self._new_pass(), CLI_COMMANDS[0])]

    def run(self, spec):
        directory, argv = spec
        here = Path(__file__).resolve().parent
        if self.traced:
            timing = directory / ".timing.json"
            cmd = [sys.executable, str(here / "cli_child.py"), str(timing), *argv]
        else:
            cmd = [sys.executable, "-m", "doubleline", *argv]
        proc = subprocess.run(cmd, cwd=directory, capture_output=True, timeout=CLI_TIMEOUT_S)
        out = {"code": proc.returncode, "stderr": proc.stderr[-500:]}
        if self.traced:
            out["timing"] = (directory / ".timing.json").read_text()
            os.unlink(directory / ".timing.json")
        return out

    def check(self, spec, out):
        directory, argv = spec
        checks.require(out["code"] == 0, f"doubleline {' '.join(argv)} exited {out['code']}: "
                       f"{out['stderr'].decode(errors='replace')}")
        if argv is CLI_COMMANDS[-1]:
            digest = artifact_digest(directory)
            checks.require(len(digest) == len(CLI_COMMANDS), f"pass wrote {sorted(digest)}")
            if self.first_digest is None:
                self.first_digest = digest
            self.check_digest(self.first_digest, digest)

    @staticmethod
    def check_digest(first, digest):
        for name in first:
            checks.require(first[name] == digest.get(name), f"artifact {name} differs between passes")

    def selftest(self, spec, out):
        expect_failure("exit-code", self.check, spec, {"code": 1, "stderr": b""})
        digest = artifact_digest(spec[0])
        name = next(iter(digest))
        expect_failure("artifact-bytes", self.check_digest, digest, {**digest, name: digest[name][::-1]})

    def cleanup(self):
        shutil.rmtree(self.scratch, ignore_errors=True)
