"""Reference copy of the Newton solver as the kit wrote it before the coloured
Jacobian: one closure call for the base point and one more per free crease,
each column a forward difference that perturbs its crease by ``+h`` and then
takes the ``h`` back off in place.

The tests require ``fold3d.solve_fold_angles`` to agree with this exactly:
``array_equal`` on every solved angle vector.
"""
import math

import numpy as np

from doubleline.fold3d import NEWTON_MAX_ITER, Fold3dError, SolveError, _closure_defects
from doubleline.pattern import PatternError

H = 1e-7


def jacobian(stars, free, x, r):
    """Per-column forward differences at x; leaves each free angle at (x + h) - h, as the solver did."""
    jac = np.empty((len(r), len(free)))
    for j, ci in enumerate(free):
        x[ci] += H
        jac[:, j] = (_closure_defects(stars, x[None]).ravel() - r) / H
        x[ci] -= H
    return jac


def solve_fold_angles(pattern, driver_crease, target_angle, initial_guess=None, tol=1e-10):
    if not abs(target_angle) <= math.pi:
        raise Fold3dError(f"target angle {target_angle:.6g} rad lies outside [-pi, pi]")
    if not 0 <= driver_crease < len(pattern.creases):
        raise Fold3dError(f"driver crease {driver_crease} is not among the {len(pattern.creases)} creases")
    if pattern.creases[driver_crease].assignment == "B":
        raise Fold3dError("driver crease must be interior")
    stars = pattern.interior_stars
    if not stars:
        raise Fold3dError("pattern has no interior vertices to constrain")
    free = [ci for ci in pattern.interior_creases if ci != driver_crease]

    def newton(x0, driver):
        x = x0.copy()
        x[driver_crease] = driver
        for _ in range(NEWTON_MAX_ITER):
            r = _closure_defects(stars, x[None]).ravel()
            if float(np.max(np.abs(r))) < tol:
                return x
            jac = jacobian(stars, free, x, r)
            delta, _, rank, sv = np.linalg.lstsq(jac, -r, rcond=None)
            if rank < len(free):
                raise SolveError(
                    f"singular Jacobian at driver {driver:.6f} rad "
                    f"(condition number {sv[0] / max(sv[-1], 1e-300):.3e})"
                )
            step = float(np.max(np.abs(delta)))
            if step > 1.0:
                delta *= 1.0 / step
            for j, ci in enumerate(free):
                x[ci] += delta[j]
        r = _closure_defects(stars, x[None]).ravel()
        raise SolveError(
            f"no convergence after {NEWTON_MAX_ITER} iterations at driver {driver:.6f} rad "
            f"(residual {float(np.max(np.abs(r))):.3e})"
        )

    if initial_guess is not None:
        x0 = np.asarray(initial_guess, dtype=float).copy()
        if x0.shape != (len(pattern.creases),):
            raise PatternError("initial guess must cover every crease")
        return newton(x0, target_angle)

    x = np.zeros(len(pattern.creases))
    if abs(target_angle) < 1e-12:
        return x
    step = 0.05
    n_steps = max(1, int(math.ceil(abs(target_angle) / step)))
    for k in range(1, n_steps + 1):
        driver = target_angle * k / n_steps
        x = newton(x, driver)
    return x
