"""Benchmark for doubleline: one workload, end-to-end or per-layer metrics.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload {design,thick,analyze,cli} \\
        --seed N --seconds S --trace {0,1}

The run starts PARTS worker processes one after another, each with S/PARTS
seconds of timed rounds (at least one round), and pools their ops: the
median of one process drifts by about 10% from the next, and pooling three
shrinks that drift.  Load is one process, one op at a time.

Every time is normalized for the host's speed (reference.py): each op's
time is scaled by NOMINAL_MS over the reference kernel's time around it,
and set-up time by NOMINAL_MS over the kernel's mean time in the 0.3 s
before the worker starts and the 3 s after its set-up.  The measured
times are printed too, as ``raw`` lines.  Prints one line per metric, then the result as a
JSON object on the last line.  --trace 0 gives the
end-to-end metrics, --trace 1 the per-layer ones.  Exits 1 without a
result when the program's source is missing or a worker fails.
"""
from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

PINNED = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
          "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
os.environ.update({var: "1" for var in PINNED})  # before reference.py loads numpy

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
WORKLOADS = ("design", "thick", "analyze", "cli")
PARTS = 3
DEADLINE_S = 170.0
SETUP_KERNEL_S = 0.3  # kernel sampling before each worker starts
TAIL_MIN_OPS = 40  # below this a run has no tail (see README)

sys.path.insert(0, str(HERE))
import reference  # noqa: E402
from tracing import LAYER_CALLS, LAYER_MS  # noqa: E402


def child_env() -> dict[str, str]:
    env = dict(os.environ)  # PINNED already set above
    env["PYTHONPATH"] = str(ROOT / "src")
    return env


def run_part(args, part: int, budget: float, deadline: float) -> dict:
    scratch = OUT / f"{args.workload}-s{args.seed}-t{args.trace}-p{part}"
    shutil.rmtree(scratch, ignore_errors=True)
    cmd = [sys.executable, str(HERE / "worker.py"), args.workload, str(args.seed), str(part),
           repr(budget), str(args.trace), str(scratch)]
    before = reference.sample_for(SETUP_KERNEL_S)
    spawned = time.monotonic()
    proc = subprocess.run(cmd, cwd=ROOT, env=child_env(), capture_output=True, text=True,
                          timeout=max(1.0, deadline - spawned))
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"worker {part} of {args.workload} exited {proc.returncode}")
    report = json.loads(proc.stdout.strip().splitlines()[-1])
    report["setup_raw_s"] = report["first_op_monotonic"] - spawned
    report["setup_scale"] = reference.NOMINAL_MS / ((statistics.fmean(before) + report["setup_kernel_ms"]) / 2)
    report["setup_s"] = report["setup_raw_s"] * report["setup_scale"]
    if report["errors"]:
        sys.stderr.write("".join(f"worker {part}: {e}\n" for e in report["errors"]))
    return report


def tail(samples: list[float]) -> float:
    """Highest percentile with at least ten samples beyond it: the 11th largest."""
    return sorted(samples)[-11]


def op_times(parts: list[dict], traced: bool, normalized: bool = True) -> list[float]:
    return [dt * (scale if normalized else 1.0) for p in parts for dt, tr, scale in p["ops"] if tr == traced]


def end_to_end(workload: str, parts: list[dict]) -> dict:
    ops = op_times(parts, False)
    rss = max(p["child_rss_mb"] if workload == "cli" else p["rss_mb"] for p in parts)
    return {
        "setup_s": (statistics.median(p["setup_s"] for p in parts), "s"),
        "ops_per_s": (len(ops) / sum(ops), "1/s"),
        "op_p50_ms": (1e3 * statistics.median(ops), "ms"),
        "op_tail_ms": (1e3 * tail(ops), "ms"),
        "peak_rss_mb": (rss, "MB"),
    }


def raw_figures(parts: list[dict]) -> dict:
    """The same timings before normalization, and the kernel's own times."""
    ops = op_times(parts, False, normalized=False)
    kernel = [ms for p in parts for ms in p["kernel_ms"]]
    return {
        "raw.setup_s": (statistics.median(p["setup_raw_s"] for p in parts), "s"),
        "raw.ops_per_s": (len(ops) / sum(ops), "1/s"),
        "raw.op_p50_ms": (1e3 * statistics.median(ops), "ms"),
        "raw.wall_ops_per_s": (sum(len(p["ops"]) for p in parts) / sum(p["timed_wall_s"] for p in parts), "1/s"),
        "raw.kernel_ms": (statistics.fmean(kernel), "ms"),
    }


def per_layer(workload: str, parts: list[dict]) -> dict:
    untraced = op_times(parts, False)
    traced = op_times(parts, True)
    out = {name: (0.0, "ms") for name in LAYER_MS}
    out.update({name: (0.0, "count") for name in LAYER_CALLS})
    if workload == "cli":
        timing = [t for p in parts for t in p["cli_timing"]]
        imp = statistics.fmean(1e3 * (t["import_s"] + t["cli_import_s"]) * t["scale"] for t in timing)
        main = statistics.fmean(1e3 * t["main_s"] * t["scale"] for t in timing)
        out["import.doubleline_ms"] = (imp, "ms")
        out["import.scipy_optimize_loaded"] = (max(t["scipy_optimize_loaded"] for t in timing), "count")
        out["cli.main_ms"] = (main, "ms")
        out["bench.self_ms"] = (0.0, "ms")
        # interpreter start and exit: neither the import nor main
        out["trace.gap_ms"] = (1e3 * statistics.fmean(traced) - imp - main, "ms")
    else:
        n = sum(p["layers"]["traced_ops"] for p in parts)

        def mean(get) -> float:
            return sum(get(p["layers"]) * p["layers"]["traced_ops"] for p in parts) / n

        for name in LAYER_MS:
            out[name] = (mean(lambda lay: lay["ms"][name[:-3]]), "ms")
        for name in LAYER_CALLS:
            out[name] = (mean(lambda lay: lay["calls"][name[:-6]]), "count")
        out["import.doubleline_ms"] = (1e3 * statistics.median(p["import_s"] * p["setup_scale"] for p in parts), "ms")
        out["import.scipy_optimize_loaded"] = (max(p["scipy_optimize_loaded"] for p in parts), "count")
        out["cli.main_ms"] = (0.0, "ms")
        named = sum(out[name][0] for name in LAYER_MS)
        bench = mean(lambda lay: lay["bench_ms"])
        out["bench.self_ms"] = (bench, "ms")
        # program time in functions no layer names (e.g. flat_fold_parameter)
        out["trace.gap_ms"] = (mean(lambda lay: lay["op_ms"]) - named - bench, "ms")
        missing = sorted({m for p in parts for m in p["layers"]["missing"]})
        if missing:
            print(f"trace: wrapped names missing from the program: {', '.join(missing)}", file=sys.stderr)
    out["trace.overhead_pct"] = (100.0 * (statistics.fmean(traced) / statistics.fmean(untraced) - 1.0), "%")
    # the host's speed during the run: mean time of the reference kernel
    out["machine.kernel_ms"] = (statistics.fmean(ms for p in parts for ms in p["kernel_ms"]), "ms")
    return out


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if not (ROOT / "src" / "doubleline" / "__init__.py").is_file():
        print(f"error: no program source at {ROOT / 'src' / 'doubleline'}", file=sys.stderr)
        return 1

    deadline = time.monotonic() + DEADLINE_S
    OUT.mkdir(exist_ok=True)
    parts = [run_part(args, k, args.seconds / PARTS, deadline) for k in range(PARTS)]
    attempted = sum(p["attempted"] for p in parts)
    failed = sum(p["failed"] for p in parts)
    correct = all(p["correct"] for p in parts)
    if args.workload == "cli":
        digests = [p["artifacts"] for p in parts]
        same = all(d == digests[0] for d in digests)
        if not same:
            print("cli: artifacts differ between worker processes", file=sys.stderr)
        correct = correct and same

    metrics = per_layer(args.workload, parts) if args.trace else end_to_end(args.workload, parts)
    timed = len(op_times(parts, False))
    for name, (value, unit) in {**metrics, **raw_figures(parts)}.items():
        print(f"{args.workload:8s} {name:34s} {value:14.6f} {unit}")
    print(f"{args.workload:8s} attempted {attempted} failed {failed} correct {correct} "
          f"timed-untraced {timed} rounds {[p['rounds'] for p in parts]}")
    if not args.trace and timed < TAIL_MIN_OPS:
        print(f"{args.workload:8s} note: {timed} timed ops < {TAIL_MIN_OPS}; op_tail_ms is the "
              f"{100 * (1 - 10 / timed):.0f}th percentile, not a tail")
    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    (OUT / f"result-{args.workload}-s{args.seed}-t{args.trace}.json").write_text(
        json.dumps({**result, "parts": [{k: v for k, v in p.items() if k != "ops"} for p in parts]}, indent=1))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
