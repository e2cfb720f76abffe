"""Doubled fully-symmetric vertices: mode counting and the alternating fold law."""
import math

import pytest

from doubleline import (
    DLMode,
    DlError,
    VertexStar,
    construct_symmetric_dl,
    count_modes,
    enumerate_mode_sequences,
    is_flat_foldable_deg4,
    pattern_multipliers,
    quarter_angle_coefficient,
    read_record,
    symmetric_fold_relation,
    vertex_closure_residual,
    vertex_star,
)
from doubleline.dl import _closes
from doubleline.symmetric import canonical_sequence

SQ3 = math.sqrt(3.0)

# balanced binary necklaces of length 2n (n = 1..8)
NECKLACE_COUNTS = [1, 2, 4, 10, 26, 80, 246, 810]


def test_construct_symmetric_dl_shape():
    pat = construct_symmetric_dl(3)
    assert len(pat.vertices) == 18
    assert len(pat.creases) == 30
    assert len(pat.faces) == 13
    info = read_record(pat)
    assert len(info.sectors[0]) == 6
    assert all(abs(s - math.pi / 3) < 1e-12 for s in info.sectors[0])
    assert abs(info.thetas[0] - math.pi / 2) < 1e-12
    for v in info.corners[0]:
        assert is_flat_foldable_deg4(vertex_star(pat, v))
    with pytest.raises(DlError):
        construct_symmetric_dl(1)


def test_quarter_angle_coefficient_values():
    assert abs(quarter_angle_coefficient(3) - (2 - SQ3)) < 1e-12
    assert abs(quarter_angle_coefficient(2)) < 1e-12
    assert abs(quarter_angle_coefficient(6) - math.tan(math.pi / 6)) < 1e-12
    # closed form: (1 - tan(pi/2n)) / (1 + tan(pi/2n))
    for n in (3, 4, 5, 8):
        t = math.tan(math.pi / (2 * n))
        assert abs(quarter_angle_coefficient(n) - (1 - t) / (1 + t)) < 1e-12
    with pytest.raises(DlError):
        quarter_angle_coefficient(1)


def test_symmetric_fold_relation_values():
    assert symmetric_fold_relation(3, 0.0) == 0.0
    assert abs(symmetric_fold_relation(3, 2 * math.pi) + 2 * math.pi) < 1e-12
    got = math.degrees(symmetric_fold_relation(3, math.radians(120.0)))
    assert abs(got - (-35.175907547987556)) < 1e-9
    with pytest.raises(DlError):
        symmetric_fold_relation(3, 7.0)


def test_symmetric_fold_relation_closes_original_vertex():
    for n in (2, 3, 4, 6):
        star = VertexStar.from_sectors([math.pi / n] * (2 * n))
        for rho_a in (0.3, 1.0, 2.2, -1.7):
            rho_b = symmetric_fold_relation(n, rho_a)
            angles = [rho_a, rho_b] * n
            assert vertex_closure_residual(star, angles) < 1e-9


def test_enumerate_small_sequences():
    assert enumerate_mode_sequences(1) == frozenset({"+-"})
    assert enumerate_mode_sequences(3) == frozenset(
        {"+++---", "++-+--", "++--+-", "+-+-+-"}
    )
    assert "++++--" not in enumerate_mode_sequences(3)
    with pytest.raises(DlError):
        enumerate_mode_sequences(0)
    with pytest.raises(DlError):
        enumerate_mode_sequences(99)


def test_enumerations_share_their_strings():
    first, again = enumerate_mode_sequences(6), enumerate_mode_sequences(6)
    assert first == again
    kept = {s: s for s in first}
    assert all(kept[s] is s for s in again)


def test_counts_match_enumeration():
    for n, want in enumerate(NECKLACE_COUNTS, start=1):
        assert count_modes(n) == want
        assert len(enumerate_mode_sequences(n)) == want


def test_canonical_sequence_rotation_invariant():
    s = "++-+--"
    for k in range(6):
        assert canonical_sequence(s[k:] + s[:k]) == s


def test_sequence_multipliers_alternating():
    pat = construct_symmetric_dl(3)
    axes = read_record(pat).axes
    mult = pattern_multipliers(pat, DLMode("+-+-+-", tuple("+-+-+-")))
    assert _closes(tuple("+-+-+-"), [math.pi / 3] * 6, math.pi / 2)
    mags = {1.0, 2 - SQ3}
    for plus, minus in axes:
        # each doubled pair is even: the two rays share one magnitude
        assert abs(abs(mult[plus]) - abs(mult[minus])) < 1e-12
        assert any(abs(abs(mult[plus]) - m) < 1e-12 for m in mags)
    other = pattern_multipliers(pat, DLMode("+++---", tuple("+++---")))
    assert any(
        abs(mult[plus] - other[plus]) > 1e-9 for plus, _ in axes
    )
    with pytest.raises(DlError):
        pattern_multipliers(pat, DLMode("+-", tuple("+-")))
