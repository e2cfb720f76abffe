"""Command-line surface over the pattern, folding and thickening modules.

Angles are degrees on the command line and radians inside the library.
CSV output uses '.' decimals, ',' separators and 12 significant digits.
No subcommand consults the clock or global RNG, so repeated runs on the
same inputs write byte-identical files.  Each subcommand imports the
package modules it runs, so a process loads only those.
"""
from __future__ import annotations

import argparse
import math
import sys
from pathlib import Path
from typing import TYPE_CHECKING, Sequence

import numpy as np

if TYPE_CHECKING:
    from .pattern import CreasePattern

# The flags each gen shape takes; it requires all of them and refuses the rest.
GEN_SHAPE_FLAGS = {
    "miura": ("rows", "cols", "angle"),
    "yoshimura": ("rows", "cols", "elongation"),
    "dl-miura": ("rows", "cols", "angle", "theta"),
    "dl-yoshimura": ("rows", "cols", "elongation", "theta"),
    "single": ("alpha", "beta"),
    "symmetric": ("n",),
}
GEN_FLAGS = tuple(dict.fromkeys(name for names in GEN_SHAPE_FLAGS.values() for name in names))

# Caps on the size arguments, so that no call asks for unbounded rows or samples.
GRID_STEP_RANGE = (0.01, 90.0)  # classify --grid, degrees: at most 17,999 rows per mode
SAMPLES_RANGE = (1, 10_000)  # sweep --samples
# thicken --samples: its grid runs geometrically from t_max / 1000 to t_max, and one sample would be only the start
THICKEN_SAMPLES_RANGE = (2, 10_000)
MODES_N_RANGE = (1, 1_000)  # modes --n
# gen --rows and --cols: the slowest admitted build, dl-yoshimura 12x12 at 1.5 and 90 deg, takes about 56 s
GEN_SIZE_RANGE = (1, 12)
# gen --angle, degrees: a 12x12 Miura builds at 0.01 and fails at 1e-6; gen_miura refuses 90
GEN_ANGLE_RANGE = (0.01, 90.0)
# gen --elongation: a 12x12 Yoshimura builds at 1000 and fails at 1e4; gen_yoshimura refuses 1
GEN_ELONGATION_RANGE = (1.0, 1000.0)
# doubleline --radii: with equal radii at 90 deg the 60/80 vertex builds from
# about 1.3e-6 to 4e7, where rounding starts to merge or cross its creases
RADII_RANGE = (1e-5, 1e6)
SYMMETRIC_N_RANGE = (2, 100)  # gen symmetric --n: n = 100 builds in about 1.3 s
TARGET_RANGE = (-180.0, 180.0)  # solve --target, degrees: a fold angle
# solve: doubled Miura 8x8 at 70/90 deg (420 interior creases) solves from
# flat to 170 deg in about 4 s, under 1 s of it in the solver
SOLVE_CREASES_MAX = 500


def _fmt(x: float) -> str:
    return format(float(x), ".12g")


def _check_range(flag: str, value: float, bounds: tuple[float, float]) -> None:
    lo, hi = bounds
    if not lo <= value <= hi:
        raise ValueError(f"{flag} must lie in [{lo:g}, {hi:g}], got {value:g}")


def _load(path: str) -> CreasePattern:
    from .fold_io import load_fold

    return load_fold(Path(path).read_bytes())


def _save(pattern: CreasePattern, fmt: str) -> bytes:
    """The pattern as a FOLD file, or as SVG when fmt is 'svg'."""
    if fmt == "svg":
        from .svg import save_svg

        return save_svg(pattern)
    from .fold_io import save_fold

    return save_fold(pattern)


def _motion_multipliers(pattern: CreasePattern) -> np.ndarray:
    """Per-crease speed multipliers: the record's when it fixes a mode, else from the branches."""
    from .dl import read_record

    rec = read_record(pattern)
    if rec is not None and rec.multipliers is not None:
        return np.array(rec.multipliers)
    from .fold3d import network_multipliers
    from .patterns import infer_modes

    return network_multipliers(pattern, infer_modes(pattern))


def _motion_end(pattern: CreasePattern, multipliers: np.ndarray, flag: str, t: float | None) -> float:
    """The motion's end: t when given, else just short of the flat state for doubled patterns.

    A doubled pattern's motion ends at its flat state t_flat (flat_fold_parameter);
    a t beyond it, either way, is refused, naming t_flat.
    """
    from .dl import flat_fold_parameter

    t_flat = flat_fold_parameter(pattern, multipliers)
    if t is None:
        return 0.97 * t_flat if t_flat is not None else 1.0
    if t_flat is not None and abs(t) > t_flat:
        raise ValueError(f"{flag} {_fmt(t)} lies beyond the flat state at t_flat {_fmt(t_flat)}")
    return t


def _cmd_analyze(args) -> bytes:
    from .kinematics import KinematicsError
    from .pattern import PatternError, is_flat_foldable_deg4
    from .patterns import infer_modes

    pattern = _load(args.pattern)
    counts = {"M": 0, "V": 0, "B": 0, "U": 0}
    for c in pattern.creases:
        counts[c.assignment] += 1
    lines = [
        f"vertices: {len(pattern.vertices)}",
        "creases: {} (M {}, V {}, B {}, U {})".format(len(pattern.creases), *counts.values()),
        f"interior vertices: {len(pattern.interior_vertices)}",
        f"faces: {len(pattern.faces)}",
    ]
    try:
        modes = infer_modes(pattern)
    except (PatternError, KinematicsError):  # some vertex has no unique branch
        modes = {}
    for star in pattern.interior_stars:
        v = star.vertex
        flat = is_flat_foldable_deg4(star)
        branch = modes[v].value if v in modes else "?"
        lines.append(
            f"vertex {v}: degree {star.degree}, "
            f"flat-foldable deg-4 {'yes' if flat else 'no'}, branch {branch}"
        )
    return ("\n".join(lines) + "\n").encode()


def _cmd_doubleline(args) -> bytes:
    from .dl import DLMode, DoubleLineParams, construct_dl, fix_mode, mode_from_label
    from .pattern import PatternError, vertex_star

    pattern = _load(args.pattern)
    interior = pattern.interior_vertices
    if not interior:
        raise PatternError("pattern has no interior vertex to double")
    vid = args.vertex if args.vertex is not None else interior[0]
    if vid not in interior:
        raise PatternError(f"--vertex {vid} is not an interior vertex id")
    star = vertex_star(pattern, vid)
    radii = tuple(float(x) for x in args.radii.split(",")) if args.radii else (1.0,) * star.degree
    for r in radii:
        _check_range("--radii", r, RADII_RANGE)
    params = DoubleLineParams(math.radians(args.theta), radii)
    doubled = construct_dl(star, params)
    if args.mode:
        mode = DLMode(args.mode, tuple(args.mode)) if set(args.mode) <= {"+", "-"} else mode_from_label(args.mode)
        doubled = fix_mode(doubled, mode)
    return _save(doubled, args.format)


def _cmd_classify(args) -> bytes:
    from .dl import FINITE, GENERIC_MODES, classify_theta, mode_from_label

    alpha, beta = math.radians(args.alpha), math.radians(args.beta)
    if args.theta is not None:
        regime = classify_theta(mode_from_label(args.mode or "a-I"), alpha, beta, math.radians(args.theta))
        return (str(regime) + "\n").encode()
    modes = [mode_from_label(args.mode)] if args.mode else list(GENERIC_MODES)
    step = args.grid
    _check_range("--grid", step, GRID_STEP_RANGE)
    thetas = []
    th = step
    while th < 180.0 - 1e-9:
        thetas.append(th)
        th += step
    rows = ["mode,theta_deg,regime,M_deg"]
    for mode in modes:
        for th in thetas:
            regime = classify_theta(mode, alpha, beta, math.radians(th))
            extremum = _fmt(math.degrees(regime.extremum)) if regime.tag == FINITE else ""
            rows.append(f"{mode.label},{_fmt(th)},{regime.tag},{extremum}")
    return ("\n".join(rows) + "\n").encode()


def _cmd_modes(args) -> bytes:
    from .symmetric import count_modes, enumerate_mode_sequences

    _check_range("--n", args.n, MODES_N_RANGE)
    lines = [str(count_modes(args.n))]
    if args.sequences or args.check:
        seqs = enumerate_mode_sequences(args.n)
        if args.sequences:
            lines.extend(sorted(seqs))
        if args.check:
            verdict = "agree" if len(seqs) == count_modes(args.n) else "DISAGREE"
            lines.append(f"enumeration: {len(seqs)} ({verdict})")
    return ("\n".join(lines) + "\n").encode()


def _motion_csv(pattern: CreasePattern, samples) -> bytes:
    header = "t," + ",".join(f"rho_{i}" for i in range(len(pattern.creases))) + ",residual"
    rows = [header]
    for s in samples:
        angles = ",".join(_fmt(math.degrees(a)) for a in s.fold_angles)
        rows.append(f"{_fmt(s.t)},{angles},{_fmt(s.residual)}")
    return ("\n".join(rows) + "\n").encode()


def _cmd_sweep(args) -> bytes:
    from .fold3d import require_closing, sweep_motion

    _check_range("--samples", args.samples, SAMPLES_RANGE)
    pattern = _load(args.pattern)
    mult = _motion_multipliers(pattern)
    t_max = _motion_end(pattern, mult, "--t-max", args.t_max)
    motion = sweep_motion(pattern, None, np.linspace(0.0, t_max, args.samples), multipliers=mult)
    require_closing(motion)
    return _motion_csv(pattern, motion)


def _cmd_fold(args) -> bytes:
    from .fold3d import export_obj, require_closing, sweep_motion
    from .fold_io import save_fold

    pattern = _load(args.pattern)
    mult = _motion_multipliers(pattern)
    motion = sweep_motion(pattern, None, [_motion_end(pattern, mult, "--t", args.t)], multipliers=mult)
    require_closing(motion)
    if args.format == "obj":
        return export_obj(motion[0]).encode()
    if args.format == "csv":
        return _motion_csv(pattern, motion)
    return save_fold(pattern, motion[0].fold_angles)


def _cmd_solve(args) -> bytes:
    from .fold3d import RESIDUAL_TOL, solve_fold_angles
    from .fold_io import parse_fold, save_fold
    from .pattern import CreasePattern

    _check_range("--target", args.target, TARGET_RANGE)
    if args.tolerance <= 0.0:
        raise ValueError(f"--tolerance must be positive, got {args.tolerance:g}")
    # a looser tolerance would accept angles that sweep refuses as not closing
    _check_range("--tolerance", args.tolerance, (0.0, RESIDUAL_TOL))
    vertices, creases, faces, extras = parse_fold(Path(args.pattern).read_bytes())
    # counted before the build: a pattern at the cap takes seconds to validate
    interior = sum(c.assignment != "B" for c in creases)
    if interior > SOLVE_CREASES_MAX:
        raise ValueError(f"solve takes at most {SOLVE_CREASES_MAX} interior creases, "
                         f"the pattern has {interior}")
    pattern = CreasePattern.build(vertices, creases, faces=faces, extras=extras)
    angles = solve_fold_angles(pattern, args.driver, math.radians(args.target), tol=args.tolerance)
    if args.format == "fold":
        return save_fold(pattern, angles)
    rows = ["crease,rho_deg"]
    rows.extend(f"{i},{_fmt(math.degrees(a))}" for i, a in enumerate(angles))
    return ("\n".join(rows) + "\n").encode()


def _cmd_thicken(args) -> bytes:
    from .fold3d import sweep_motion
    from .thicken import (
        ThickPanelParams,
        clearance_records,
        export_clearance_csv,
        export_solids_obj,
        thicken,
    )

    _check_range("--samples", args.samples, THICKEN_SAMPLES_RANGE)
    if args.t_max is not None and args.t_max <= 0.0:
        raise ValueError(f"--t-max must be positive, got {args.t_max:g}")
    pattern = _load(args.pattern)
    mult = _motion_multipliers(pattern)
    t_max = _motion_end(pattern, mult, "--t-max", args.t_max)
    grid = np.geomspace(t_max * 1e-3, t_max, args.samples)
    motion = sweep_motion(pattern, None, grid, multipliers=mult)
    params = ThickPanelParams(tau=args.tau, side=args.side)
    solids = thicken(pattern, motion, params)
    if args.format == "csv":
        records = clearance_records(solids, motion)
        t, least, pair = min(records, key=lambda r: r[1])
        if least < 0.0:
            a, b = pair
            print(f"warning: panels penetrate: least clearance {_fmt(least)} at t {_fmt(t)}, faces {a} and {b}",
                  file=sys.stderr)
        return export_clearance_csv(records).encode()
    return export_solids_obj(solids).encode()


def _cmd_gen(args) -> bytes:
    from .patterns import (
        gen_dl_miura,
        gen_dl_yoshimura,
        gen_miura,
        gen_single_deg4,
        gen_symmetric_vertex,
        gen_yoshimura,
    )

    shape = args.shape
    for name in GEN_FLAGS:
        given, takes = getattr(args, name) is not None, name in GEN_SHAPE_FLAGS[shape]
        if given != takes:
            args.parser.error(f"shape {shape} does not take --{name}" if given
                              else f"--{name} is required for shape {shape}")
    if shape == "single":
        pattern = gen_single_deg4(math.radians(args.alpha), math.radians(args.beta))
    elif shape == "symmetric":
        _check_range("--n", args.n, SYMMETRIC_N_RANGE)
        pattern = gen_symmetric_vertex(args.n)
    else:
        _check_range("--rows", args.rows, GEN_SIZE_RANGE)
        _check_range("--cols", args.cols, GEN_SIZE_RANGE)
        if args.angle is not None:
            _check_range("--angle", args.angle, GEN_ANGLE_RANGE)
        else:
            _check_range("--elongation", args.elongation, GEN_ELONGATION_RANGE)
        if shape == "miura":
            pattern = gen_miura(args.rows, args.cols, math.radians(args.angle)).pattern
        elif shape == "yoshimura":
            pattern = gen_yoshimura(args.rows, args.cols, args.elongation).pattern
        elif shape == "dl-miura":
            pattern = gen_dl_miura(args.rows, args.cols, math.radians(args.angle), math.radians(args.theta))
        else:
            pattern = gen_dl_yoshimura(args.rows, args.cols, args.elongation, math.radians(args.theta))
    return _save(pattern, args.format)


def _cmd_export(args) -> bytes:
    pattern = _load(args.pattern)
    if args.format != "obj":
        return _save(pattern, args.format)
    from .fold3d import RESIDUAL_TOL, Fold3dError, export_obj, propagate_fold

    state = propagate_fold(pattern, [c.fold_angle if c.fold_angle is not None else 0.0 for c in pattern.creases])
    if not state.valid:
        raise Fold3dError(f"stored fold angles do not close: residual {state.residual:.3e} >= {RESIDUAL_TOL:g}")
    return export_obj(state).encode()


def _add_format(p: argparse.ArgumentParser, *choices: str) -> None:
    """--format taking only the formats this subcommand writes; the first is the default."""
    p.add_argument("--format", choices=choices, default=choices[0],
                   help=f"output format (default: {choices[0]})")


def _build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--out", help="output path (default: stdout)")

    parser = argparse.ArgumentParser(prog="doubleline", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("analyze", parents=[common], help="summarize a crease pattern")
    p.add_argument("pattern", help="FOLD file")
    p.set_defaults(handler=_cmd_analyze)

    p = sub.add_parser("doubleline", parents=[common], help="double one interior vertex")
    p.add_argument("pattern", help="FOLD file")
    _add_format(p, "fold", "svg")
    p.add_argument("--vertex", type=int, help="interior vertex id (default: lowest)")
    p.add_argument("--theta", type=float, required=True, help="rotation angle in degrees")
    p.add_argument("--radii", help="comma-separated polygon distances r_i")
    p.add_argument("--mode", help="folding mode for M/V labels and the record: a label (a-I, a-II, b-I, b-II) "
                                  "or one + or - per crease of the vertex, as --mode -+-+-+")
    p.set_defaults(handler=_cmd_doubleline)

    p = sub.add_parser("classify", parents=[common], help="theta regime of a doubled vertex")
    p.add_argument("--alpha", type=float, required=True, help="first sector angle in degrees")
    p.add_argument("--beta", type=float, required=True, help="second sector angle in degrees")
    p.add_argument("--mode", help="folding mode label (default: a-I, or all four in a table)")
    p.add_argument("--theta", type=float, help="single theta in degrees (prints its regime)")
    p.add_argument("--grid", type=float, default=1.0,
                   help="theta grid step in degrees for the table (0.01 to 90)")
    p.set_defaults(handler=_cmd_classify)

    p = sub.add_parser("modes", parents=[common], help="count symmetric-vertex folding modes")
    p.add_argument("--n", type=int, required=True, help="half the vertex degree (1 to 1000)")
    p.add_argument("--sequences", action="store_true", help="list canonical sign sequences")
    p.add_argument("--check", action="store_true", help="compare count against enumeration")
    p.set_defaults(handler=_cmd_modes)

    p = sub.add_parser("sweep", parents=[common], help="sample the one-parameter motion to CSV")
    p.add_argument("pattern", help="FOLD file")
    p.add_argument("--t-max", type=float, help="largest motion parameter (default: near flat)")
    p.add_argument("--samples", type=int, default=50, help="number of samples (1 to 10000)")
    p.set_defaults(handler=_cmd_sweep)

    p = sub.add_parser("fold", parents=[common], help="fold angles at one motion parameter")
    p.add_argument("pattern", help="FOLD file")
    _add_format(p, "fold", "obj", "csv")
    p.add_argument("--t", type=float, required=True, help="motion parameter")
    p.set_defaults(handler=_cmd_fold)

    p = sub.add_parser("solve", parents=[common], help="fold by pinning one crease angle")
    p.add_argument("pattern", help="FOLD file")
    _add_format(p, "csv", "fold")
    p.add_argument("--tolerance", type=float, default=1e-10, help="Newton residual tolerance")
    p.add_argument("--driver", type=int, required=True, help="driver crease id")
    p.add_argument("--target", type=float, required=True, help="driver fold angle in degrees")
    p.set_defaults(handler=_cmd_solve)

    p = sub.add_parser("thicken", parents=[common], help="thick panels and clearance log")
    p.add_argument("pattern", help="FOLD file")
    _add_format(p, "obj", "csv")
    p.add_argument("--tau", type=float, required=True, help="panel thickness")
    p.add_argument("--side", choices=("above", "below"), default="above", help="panel side")
    p.add_argument("--t-max", type=float, help="largest motion parameter (default: near flat)")
    p.add_argument("--samples", type=int, default=50, help="number of motion samples (2 to 10000)")
    p.set_defaults(handler=_cmd_thicken)

    p = sub.add_parser("gen", parents=[common], help="generate a standard pattern")
    p.add_argument("shape", choices=tuple(GEN_SHAPE_FLAGS))
    _add_format(p, "fold", "svg")
    p.add_argument("--rows", type=int, help="tessellation rows")
    p.add_argument("--cols", type=int, help="tessellation columns")
    p.add_argument("--angle", type=float, help="parallelogram angle in degrees (miura)")
    p.add_argument("--elongation", type=float, help="stretch factor > 1 (yoshimura)")
    p.add_argument("--theta", type=float,
                   help="doubling rotation angle in degrees (dl-*): θ of the lowest interior vertex; "
                        "others keep it where their shared pair allows")
    p.add_argument("--alpha", type=float, help="first sector angle in degrees (single)")
    p.add_argument("--beta", type=float, help="second sector angle in degrees (single)")
    p.add_argument("--n", type=int, help="half the vertex degree (symmetric)")
    p.set_defaults(handler=_cmd_gen, parser=p)

    p = sub.add_parser("export", parents=[common], help="convert a pattern file")
    p.add_argument("pattern", help="FOLD file")
    _add_format(p, "svg", "fold", "obj")
    p.set_defaults(handler=_cmd_export)

    return parser


def _join_mode_sequence(argv: Sequence[str]) -> list[str]:
    """argv with "--mode SEQ" as "--mode=SEQ" for a sign sequence, which argparse would read as a flag."""
    out: list[str] = []
    for arg in argv:
        if out and out[-1] == "--mode" and arg and set(arg) <= {"+", "-"}:
            out[-1] = f"--mode={arg}"
        else:
            out.append(arg)
    return out


def main(argv: Sequence[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(_join_mode_sequence(sys.argv[1:] if argv is None else argv))
        for name, value in vars(args).items():
            if isinstance(value, float) and not math.isfinite(value):
                raise ValueError(f"--{name.replace('_', '-')} must be finite, got {value}")
        payload = args.handler(args)
    except SystemExit as exit_:  # argparse exits on usage errors and --help
        return int(exit_.code or 0)
    except (ValueError, OSError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 1
    if args.out:
        Path(args.out).write_bytes(payload)
    else:
        sys.stdout.buffer.write(payload)
        sys.stdout.buffer.flush()
    return 0
