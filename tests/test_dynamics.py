"""Quantized torus maps and the chord-basis superoperator matrix."""

import numpy as np
import pytest
from numpy.testing import assert_allclose

from chordnoise import (
    LinearMapSpec,
    TorusGeometry,
    composition_phase,
    nonlinear_kick,
    quantize_linear_map,
    translation_operator,
    wedge,
)
from chordnoise.oracles import ORACLE_N_CAP, chord_supermatrix

CAT = LinearMapSpec(1, 1, 1, 2)


def test_map_spec_validation():
    with pytest.raises(ValueError, match="determinant"):
        LinearMapSpec(1, 1, 1, 3)
    m = LinearMapSpec(2, 1, 3, 2)
    assert m.apply((3, 4), 10) == (0, 7)


def test_identity_map_quantizes_to_identity():
    g = TorusGeometry(12)
    u = quantize_linear_map(g, LinearMapSpec(1, 0, 0, 1))
    assert_allclose(u, np.eye(12), atol=1e-14)


@pytest.mark.parametrize("n", [50, 100])
def test_cat_map_unitary(n):
    u = quantize_linear_map(TorusGeometry(n), CAT)
    assert_allclose(u.conj().T @ u, np.eye(n), atol=1e-12)


def test_cat_map_covariance_spot():
    g = TorusGeometry(100)
    u = quantize_linear_map(g, CAT)
    t10 = translation_operator(g, (1, 0))
    t11 = translation_operator(g, (1, 1))
    lhs = u @ t10 @ u.conj().T
    phase = np.trace(t11.conj().T @ lhs) / 100
    assert abs(abs(phase) - 1) < 1e-12
    assert np.abs(lhs - phase * t11).max() < 1e-10


def test_cat_map_covariance_full_grid():
    g = TorusGeometry(10)
    u = quantize_linear_map(g, CAT)
    worst = 0.0
    for q in range(10):
        for p in range(10):
            t = translation_operator(g, (q, p))
            target = translation_operator(g, CAT.apply((q, p), 10))
            lhs = u @ t @ u.conj().T
            phase = np.trace(target.conj().T @ lhs) / 10
            worst = max(worst, np.abs(lhs - phase * target).max())
    assert worst < 1e-10


def test_covariance_residual_is_the_frobenius_distance():
    # ||U T - c T' U||_F equals ||U T U^dag - c T'||_F for unitary U, with
    # c = Tr(T'^dag U T U^dag)/N; the kick breaks covariance, the cat map keeps it
    from chordnoise.dynamics import _covariance_residual

    g = TorusGeometry(12)
    for u, covariant in ((quantize_linear_map(g, CAT), True), (quantize_linear_map(g, CAT) @ nonlinear_kick(g, 0.7), False)):
        for alpha in ((1, 0), (3, 5), (5, 2)):  # q != 0, so the kick does not commute
            lhs = u @ translation_operator(g, alpha) @ u.conj().T
            target = translation_operator(g, CAT.apply(alpha, 12))
            c = np.trace(target.conj().T @ lhs) / 12
            dense = np.linalg.norm(lhs - c * target)
            res = _covariance_residual(g, u, CAT, alpha)
            assert res == pytest.approx(dense, rel=1e-9, abs=1e-13)
            assert (res < 1e-10) == covariant


def test_odd_dimension_rejected():
    with pytest.raises(ValueError, match="covariance"):
        quantize_linear_map(TorusGeometry(5), CAT)


def test_shear_parity_rules():
    # odd N only admits even shear strengths; even N admits all
    u = quantize_linear_map(TorusGeometry(5), LinearMapSpec(1, 0, 2, 1))
    assert_allclose(np.abs(np.diag(u)), np.ones(5), atol=1e-14)
    with pytest.raises(ValueError, match="covariance"):
        quantize_linear_map(TorusGeometry(5), LinearMapSpec(1, 0, 1, 1))
    for c in (1, 2, 3):
        quantize_linear_map(TorusGeometry(10), LinearMapSpec(1, 0, c, 1))


def test_non_shear_axis_map_rejected():
    with pytest.raises(ValueError, match="shears"):
        quantize_linear_map(TorusGeometry(10), LinearMapSpec(-1, 0, 3, -1))


def test_kick_basics():
    g = TorusGeometry(16)
    assert_allclose(nonlinear_kick(g, 0.0), np.eye(16), atol=1e-15)
    k = nonlinear_kick(g, 0.3)
    assert_allclose(np.abs(np.diag(k)), np.ones(16), atol=1e-14)
    assert np.count_nonzero(k - np.diag(np.diag(k))) == 0
    # diagonal kicks commute with pure momentum translations
    t = translation_operator(g, (0, 3))
    assert_allclose(k @ t, t @ k, atol=1e-14)


def test_supermatrix_identity():
    g = TorusGeometry(6)
    s = chord_supermatrix(g, np.eye(6, dtype=complex))
    assert_allclose(s, np.eye(36), atol=1e-13)


def test_supermatrix_unitary():
    g = TorusGeometry(8)
    u = quantize_linear_map(g, CAT) @ nonlinear_kick(g, 0.4)
    s = chord_supermatrix(g, u)
    assert_allclose(s.conj().T @ s, np.eye(64), atol=1e-11)


def test_supermatrix_of_translation_is_diagonal_phase():
    g = TorusGeometry(8)
    beta = (2, 3)
    s = chord_supermatrix(g, translation_operator(g, beta))
    off = s - np.diag(np.diag(s))
    assert np.abs(off).max() < 1e-12
    for q in range(8):
        for p in range(8):
            expect = np.exp(2j * np.pi * wedge((q, p), beta) / 8)
            assert abs(s[q * 8 + p, q * 8 + p] - expect) < 1e-12


def test_supermatrix_matches_trace_formula():
    rng = np.random.default_rng(11)
    g = TorusGeometry(5)
    h = rng.normal(size=(5, 5)) + 1j * rng.normal(size=(5, 5))
    h = h + h.conj().T
    w, v = np.linalg.eigh(h)
    u = v @ np.diag(np.exp(1j * w)) @ v.conj().T
    s = chord_supermatrix(g, u)
    for qp in range(5):
        for pp in range(5):
            for q in range(5):
                for p in range(5):
                    tp = translation_operator(g, (qp, pp))
                    t = translation_operator(g, (q, p))
                    direct = np.trace(tp.conj().T @ u @ t @ u.conj().T) / 5
                    assert abs(s[qp * 5 + pp, q * 5 + p] - direct) < 1e-12


def test_supermatrix_composition():
    g = TorusGeometry(6)
    u1 = quantize_linear_map(g, LinearMapSpec(1, 0, 2, 1))
    u2 = nonlinear_kick(g, 0.7)
    s12 = chord_supermatrix(g, u1 @ u2)
    assert_allclose(s12, chord_supermatrix(g, u1) @ chord_supermatrix(g, u2), atol=1e-11)


def test_supermatrix_of_cat_is_permutation_with_phases():
    # a quantized symplectic map permutes chords: one unimodular entry per column
    g = TorusGeometry(8)
    s = chord_supermatrix(g, quantize_linear_map(g, CAT))
    mags = np.abs(s)
    assert_allclose(np.sort(mags, axis=0)[-1], np.ones(64), atol=1e-12)
    assert np.abs(np.sort(mags, axis=0)[:-1]).max() < 1e-12
    for q in range(8):
        for p in range(8):
            img = CAT.apply((q, p), 8)
            assert mags[img[0] * 8 + img[1], q * 8 + p] > 0.999


def test_supermatrix_scale_guard():
    n = ORACLE_N_CAP + 1
    with pytest.raises(ValueError, match="capped"):
        chord_supermatrix(TorusGeometry(n), np.eye(n, dtype=complex))


def test_composition_phase_consistency():
    # T_a T_b agrees with the recorded phase times the reduced-label operator
    g = TorusGeometry(6)
    a, b = (4, 5), (3, 4)
    lhs = translation_operator(g, a) @ translation_operator(g, b)
    reduced = ((a[0] + b[0]) % 6, (a[1] + b[1]) % 6)
    rhs = composition_phase(g, a, b) * translation_operator(g, reduced)
    assert_allclose(lhs, rhs, atol=1e-13)
