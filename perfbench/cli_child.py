"""Traced stand-in for ``python -m doubleline ARGS``.

Usage: python cli_child.py TIMING_JSON ARGS...

Runs the same ``doubleline.cli.main`` as ``python -m doubleline`` and
writes to TIMING_JSON how long ``import doubleline`` and ``main`` took and
whether the import loaded scipy.optimize.  The program source is found on
PYTHONPATH, which the benchmark sets to the checkout's src directory.
"""
import json
import sys
import time

if __name__ == "__main__":
    timing_path, argv = sys.argv[1], sys.argv[2:]
    t0 = time.perf_counter()
    import doubleline  # noqa: F401  (timed: the import a user pays)
    t1 = time.perf_counter()
    scipy_loaded = "scipy.optimize" in sys.modules
    from doubleline.cli import main

    t2 = time.perf_counter()
    code = main(argv)
    t3 = time.perf_counter()
    with open(timing_path, "w") as fh:
        json.dump({"import_s": t1 - t0, "cli_import_s": t2 - t1, "main_s": t3 - t2,
                   "scipy_optimize_loaded": int(scipy_loaded)}, fh)
    sys.exit(code)
