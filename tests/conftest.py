import math
import os

# One BLAS thread, set before anything imports numpy: the suite's small
# solves run slower, and much slower on a busy host, with a thread pool.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

from doubleline.pattern import Crease, CreasePattern, vertex_star  # noqa: E402  (after the thread pins)

# one "criterion N: PASS/FAIL" line per acceptance criterion, printed after
# the run so the verdicts survive pytest's output capture
ACCEPTANCE_LINES = []


def pytest_terminal_summary(terminalreporter):
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)


def star_pattern(sectors):
    """One interior vertex with the given sector angles, tips chord-bounded."""
    azimuths = []
    acc = 0.0
    for s in sectors:
        azimuths.append(acc)
        acc += s
    assert abs(acc - 2.0 * math.pi) < 1e-9
    n = len(azimuths)
    vertices = [(0.0, 0.0)] + [(math.cos(a), math.sin(a)) for a in azimuths]
    creases = [Crease(0, i + 1, "U") for i in range(n)]
    creases += [Crease(i + 1, (i + 1) % n + 1, "B") for i in range(n)]
    return CreasePattern.build(vertices, creases)


def star_of(sectors):
    return vertex_star(star_pattern(sectors), 0)


def deg(*values):
    return tuple(math.radians(v) for v in values)
