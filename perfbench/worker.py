"""One workload process: set up, warm up, time whole rounds, then check.

Usage (from run.py): python worker.py WORKLOAD SEED PART BUDGET_S TRACE SCRATCH

Prints one JSON object on its last stdout line.  Timing stops at a round
boundary: another round starts only while the rounds so far predict that
at least half of it fits in BUDGET_S.  Outputs are kept and checked after the timed
phase, so checking costs no op time.  Between ops, a few times a second,
the worker runs the reference kernel (reference.py); each op is reported
with the scale that the kernel samples around it give.  With TRACE=1 rounds alternate
untraced and traced (at least one of each; odd-numbered workers start with
a traced round), which gives the per-layer self times and the tracing
overhead from the same processes.
"""
from __future__ import annotations

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"  # before numpy loads; see README, "Thread pinning"

import json
import random
import resource
import sys
import time
import traceback
import types
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def import_program():
    """Import doubleline from this checkout's src, timed; refuse any other copy."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    t0 = time.perf_counter()
    import doubleline
    import_s = time.perf_counter() - t0
    if not Path(doubleline.__file__).resolve().is_relative_to(src.resolve()):
        raise SystemExit(f"doubleline imported from {doubleline.__file__}, not from {src}")
    return doubleline, import_s, int("scipy.optimize" in sys.modules)


def main(argv: list[str]) -> int:
    name, seed, part, budget, trace, scratch = argv
    budget, trace = float(budget), trace == "1"
    report = {"import_s": None, "scipy_optimize_loaded": None}
    if name != "cli":  # first, so that the timed import includes numpy and scipy
        program, report["import_s"], report["scipy_optimize_loaded"] = import_program()
    sys.path.insert(0, str(HERE))
    import reference
    import tracing
    import workloads

    if name == "cli":
        workload = workloads.Cli(Path(scratch))
    else:
        workload = {"design": workloads.Design, "thick": workloads.Thick,
                    "analyze": workloads.Analyze}[name]()
    rng = random.Random(f"{name}:{seed}:{part}")
    workload.setup()
    errors = []
    for spec in workload.warmup(rng):
        out = workload.run(spec)
        try:
            workload.check(spec, out)
            workload.selftest(spec, out)
        except AssertionError as exc:
            errors.append(f"warm-up {spec!r}: {exc}")
            report["correct"] = False

    tracer = None
    if trace and name != "cli":
        tracer = tracing.Tracer()
        tracer.install(program)
        unnamed = [(k, v) for k, v in vars(program).items()
                   if isinstance(v, types.FunctionType) and not hasattr(v, "__wrapped__")]
        for k, fn in unnamed:
            setattr(program, k, tracer.unnamed(fn))

    ops = []  # (spec, output or None, seconds, traced, start)
    reference.kernel()  # untimed: the kernel's first call is cold
    report["first_op_monotonic"] = time.monotonic()
    clock = reference.Clock()
    t_loop = time.perf_counter()
    rounds = 0
    while True:
        # workers alternate which kind of round comes first, so neither kind
        # gets all the first (coldest) rounds
        traced = trace and (rounds + int(part)) % 2 == 1
        if tracer is not None:
            tracer.active = traced
        if name == "cli":
            workload.traced = traced
        for spec in workload.round(rng):
            clock.maybe_sample()
            if tracer is not None:
                tracer.op = len(ops)
            t0 = time.perf_counter()
            try:
                out = workload.run(spec)
            except Exception:  # counted as a failed op; the run goes on
                out = None
                errors.append(traceback.format_exc(limit=3))
            ops.append((spec, out, time.perf_counter() - t0, traced, t0))
        rounds += 1
        elapsed = time.perf_counter() - t_loop
        if trace and rounds < 2:
            continue
        if elapsed * (rounds + 0.5) / rounds > budget:
            break
    if tracer is not None:
        tracer.active = False
    clock.maybe_sample(force=True)  # so that the last ops have samples after them too
    report["timed_wall_s"] = elapsed
    report["rounds"] = rounds

    for spec, out, *_ in ops:
        if out is None:
            continue
        try:
            workload.check(spec, out)
        except AssertionError as exc:
            errors.append(f"check failed on {spec!r}: {exc}")
            report["correct"] = False
    report.setdefault("correct", True)
    report["attempted"] = len(ops)
    report["failed"] = sum(out is None for _, out, *_ in ops)
    report["errors"] = errors[:5]
    # (seconds, traced, scale): scale turns seconds into normalized seconds
    report["ops"] = [(dt, traced, clock.scale(t0, dt)) for _, _, dt, traced, t0 in ops]
    report["kernel_ms"] = clock.ms
    report["setup_kernel_ms"] = clock.near(t_loop, t_loop + reference.SETUP_WINDOW_S, 0.0)
    report["rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    report["child_rss_mb"] = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0
    if name == "cli":
        report["artifacts"] = workload.first_digest
        if trace:
            report["cli_timing"] = [{**json.loads(out["timing"]), "scale": scale}
                                    for (_, out, *_), (_, tr, scale) in zip(ops, report["ops"]) if tr and out]
        workload.cleanup()
    elif tracer is not None:
        report["layers"] = layer_summary(tracer, report["ops"])
        tracer.write(Path(scratch) / "trace.json")
    print(json.dumps(report))
    return 0


def layer_summary(tracer, ops) -> dict:
    """Per traced op: normalized self seconds per layer, calls per counted
    layer, and the rest.  ``ops`` holds (seconds, traced, scale)."""
    traced = [k for k, op in enumerate(ops) if op[1]]
    per_op = tracer.self_times()
    totals = {name: 0.0 for name in tracer.names}
    spans = wall = 0.0
    for k in traced:
        row = per_op.get(k, {})
        dt, _, scale = ops[k]
        wall += dt * scale
        spans += row.get(-1, 0.0) * scale
        for layer, secs in row.items():
            if layer >= 0:
                totals[tracer.names[layer]] += secs * scale
    n = len(traced)
    return {
        "traced_ops": n,
        "ms": {name: 1e3 * v / n for name, v in totals.items()},
        "calls": {name: c / n for name, c in tracer.calls.items()},
        "bench_ms": 1e3 * (wall - spans) / n,
        "op_ms": 1e3 * wall / n,
        "missing": tracer.missing,
    }


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
