"""Reference copy of the Newton solver as the kit wrote it before the coloured
Jacobian: one closure call for the base point and one more per free crease,
each column a forward difference that perturbs its crease by ``+h`` and then
takes the ``h`` back off in place.

``solve_fold_angles`` cold-starts as the kit does: the first continuation
step, then the tan-half seed polished at the target and kept when its path
closes at every continuation driver, meets the first step and leaves the
driver no second motion; else the remaining continuation steps, whose last
state must leave the driver no second motion either.
``continuation`` is the step-by-step walk from flat that the kit used
before the tan-half seed.

The tests require ``fold3d.solve_fold_angles`` to agree with
``solve_fold_angles`` here exactly: ``array_equal`` on every solved angle
vector.
"""
import math

import numpy as np

from doubleline.fold3d import NEWTON_MAX_ITER, ONE_MOTION_COND, RESIDUAL_TOL, Fold3dError, SolveError, _closure_defects
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


def _newton_for(pattern, driver_crease, target_angle, tol):
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
                return x, jacobian(stars, free, x.copy(), r)
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

    return stars, newton


def _drivers(target_angle):
    n_steps = max(1, int(math.ceil(abs(target_angle) / 0.05)))
    return [target_angle * k / n_steps for k in range(1, n_steps + 1)]


def solve_fold_angles(pattern, driver_crease, target_angle, initial_guess=None, tol=1e-10):
    stars, newton = _newton_for(pattern, driver_crease, target_angle, tol)
    if initial_guess is not None:
        x0 = np.asarray(initial_guess, dtype=float).copy()
        if x0.shape != (len(pattern.creases),):
            raise PatternError("initial guess must cover every crease")
        return newton(x0, target_angle)[0]

    x = np.zeros(len(pattern.creases))
    if abs(target_angle) < 1e-12:
        return x
    drivers = _drivers(target_angle)
    x = first = newton(x, drivers[0])[0]
    if len(drivers) == 1:
        return x
    try:
        u = np.tan(first / 2.0) / math.tan(drivers[0] / 2.0)
        end, jac = newton(2.0 * np.arctan(u * math.tan(target_angle / 2.0)), target_angle)
    except SolveError:
        pass
    else:
        u = np.tan(end / 2.0) / math.tan(target_angle / 2.0)
        path = 2.0 * np.arctan(u * np.tan(np.array(drivers)[:, None] / 2.0))
        sv = np.linalg.svd(jac, compute_uv=False)
        closes = np.linalg.norm(_closure_defects(stars, path), axis=-1).max() < RESIDUAL_TOL
        if closes and np.max(np.abs(path[0] - first)) < RESIDUAL_TOL and sv[0] < ONE_MOTION_COND * sv[-1]:
            return end
    for driver in drivers[1:]:
        x, jac = newton(x, driver)
    sv = np.linalg.svd(jac, compute_uv=False)
    if not sv[0] < ONE_MOTION_COND * sv[-1]:
        raise SolveError(f"the driver leaves a second motion free (condition number {sv[0] / sv[-1]:.3e})")
    return x


def continuation(pattern, driver_crease, target_angle, tol=1e-10):
    """The cold start before the tan-half seed: Newton at every driver from flat to the target."""
    _, newton = _newton_for(pattern, driver_crease, target_angle, tol)
    x = np.zeros(len(pattern.creases))
    if abs(target_angle) < 1e-12:
        return x
    for driver in _drivers(target_angle):
        x = newton(x, driver)[0]
    return x
