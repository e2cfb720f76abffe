import math

import numpy as np
import pytest

from conftest import star_of
from doubleline.kinematics import (
    FoldMode,
    fold_angles_at,
    mode_vector,
    p_coeff,
    q_coeff,
)

SQ3 = math.sqrt(3.0)


def test_p_coeff_values():
    assert abs(p_coeff(math.radians(60), math.radians(60)) - 0.5) < 1e-15
    assert abs(p_coeff(math.radians(37), 0.0) - 1.0) < 1e-15
    assert abs(p_coeff(math.radians(60), math.radians(90)) - (2.0 - SQ3)) < 1e-15


def test_q_coeff_values():
    assert abs(q_coeff(math.radians(41), math.radians(41))) < 1e-15
    assert abs(q_coeff(math.radians(30), math.radians(60)) - (SQ3 - 1.0) / 2.0) < 1e-15
    assert abs(q_coeff(math.radians(60), math.radians(90)) - (2.0 - SQ3)) < 1e-15


def test_p_cosine_identity():
    rng = np.random.default_rng(7)
    for _ in range(200):
        a, b = rng.uniform(0.05, math.pi / 2 - 0.05, size=2)
        want = math.cos((a + b) / 2.0) / math.cos((a - b) / 2.0)
        assert abs(p_coeff(a, b) - want) < 1e-12


def test_mode_vectors():
    star = star_of([math.radians(v) for v in (60, 60, 120, 120)])
    a = mode_vector(star, FoldMode.A)
    assert np.allclose(a.multipliers, (1.0, -0.5, 1.0, 0.5), atol=1e-12)
    assert not a.degenerate
    b = mode_vector(star, FoldMode.B)
    assert np.allclose(b.multipliers, (0.0, 1.0, 0.0, 1.0), atol=1e-12)
    assert b.degenerate

    square = mode_vector(star_of([math.pi / 2] * 4), FoldMode.A)
    assert np.allclose(square.multipliers, (1.0, 0.0, 1.0, 0.0), atol=1e-12)
    assert square.degenerate


def test_mode_vector_sign_split():
    # one crease folds against the other three whenever no multiplier vanishes
    rng = np.random.default_rng(11)
    for _ in range(50):
        a, b = rng.uniform(0.1, math.pi / 2 - 0.1, size=2)
        if abs(a - b) < 0.05:
            continue
        star = star_of([a, b, math.pi - a, math.pi - b])
        for mode in (FoldMode.A, FoldMode.B):
            m = mode_vector(star, mode).multipliers
            assert int(np.sum(np.sign(m) < 0)) in (1, 3)


def test_fold_angles_at():
    star = star_of([math.radians(v) for v in (60, 60, 120, 120)])
    assert np.allclose(fold_angles_at(star, FoldMode.A, 0.0), 0.0)
    got = np.degrees(fold_angles_at(star, FoldMode.A, 1.0))
    minor = 2.0 * math.degrees(math.atan(0.5))
    assert np.allclose(got, (90.0, -minor, 90.0, minor), atol=1e-9)
    assert abs(minor - 53.13010235415598) < 1e-9

    square = star_of([math.pi / 2] * 4)
    got = np.degrees(fold_angles_at(square, FoldMode.A, 1.0))
    assert np.allclose(got, (90.0, 0.0, 90.0, 0.0), atol=1e-9)
