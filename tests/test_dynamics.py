"""Quantized torus maps and the chord-basis superoperator matrix."""

import itertools

import numpy as np
import pytest
from numpy.testing import assert_allclose

from chordnoise import (
    DiagonalChordChannel,
    KickedMap,
    LinearMapSpec,
    TorusGeometry,
    composition_phase,
    line_points,
    make_depolarizing,
    make_gaussian,
    make_phase_damping_line,
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


@pytest.mark.parametrize(
    "build",
    [
        lambda: LinearMapSpec(0.5, 1, -0.5, 1),  # det 1, but apply((1, 2), 4) would give (2.5, 1.5)
        lambda: line_points(TorusGeometry(40), 1.5, 1, 0),
        lambda: make_phase_damping_line(TorusGeometry(40), (1.5, 1, 0), 0.3),
    ],
)
def test_non_integer_map_and_line_refused(build):
    with pytest.raises(ValueError, match="must be an integer"):
        build()


_G4 = TorusGeometry(4)
_W4 = np.full((4, 4), 0.25)


@pytest.mark.parametrize(
    "build",
    [
        lambda: DiagonalChordChannel(_G4, "0.5", _W4),
        lambda: make_depolarizing(_G4, "0.5"),
        lambda: make_gaussian(_G4, "0.5"),
        lambda: DiagonalChordChannel(_G4, 0.5, _W4, "0.1"),
        lambda: DiagonalChordChannel(_G4, 0.5, _W4.astype(object)),
        lambda: KickedMap(CAT, "0.1"),
        lambda: make_phase_damping_line(_G4, (0, 1, 0), "0.3"),
    ],
)
def test_non_real_numbers_refused(build):
    # each of these once failed with a TypeError from a comparison or np.isfinite
    with pytest.raises(ValueError, match="must be real, got"):
        build()


def test_real_numbers_may_be_numpy_scalars():
    ch = DiagonalChordChannel(_G4, np.float32(0.5), _W4.astype(np.float32), np.int64(1))
    assert (ch.epsilon, ch.sigma) == (0.5, 1.0) and type(ch.epsilon) is float and type(ch.sigma) is float
    assert ch.weights.dtype == np.float64
    assert KickedMap(CAT, np.float16(0.5)).kick == 0.5


def test_integer_entries_may_be_numpy_ints():
    m = LinearMapSpec(*np.array([2, 1, 3, 2]))
    assert m == LinearMapSpec(2, 1, 3, 2) and type(m.a) is int
    assert np.array_equal(line_points(TorusGeometry(8), *np.array([1, 1, 0])), line_points(TorusGeometry(8), 1, 1, 0))


def _kernel(m, n):
    """The two kernels as formulas, applied to any map; None where neither applies."""
    k = np.arange(n)
    if m.b != 0:
        return np.exp(1j * np.pi * (m.a * k[None, :] ** 2 - 2 * np.outer(k, k) + m.d * k[:, None] ** 2) / (n * m.b)) / np.sqrt(n)
    if (m.a, m.d) == (1, 1):
        return np.diag(np.exp(1j * np.pi * m.c * k**2 / n))
    return None


def _is_covariant(g, u, m, alpha):
    lhs = u @ translation_operator(g, alpha) @ u.conj().T
    target = translation_operator(g, m.apply(alpha, g.n))
    phase = np.vdot(target, lhs) / g.n
    return np.abs(lhs - phase * target).max() < 1e-10


def test_quantization_rule_matches_the_kernel():
    # quantize_linear_map decides from (a, b, c, d, N) alone; here the kernels are
    # measured instead: unitary, and covariant on the two generating translations
    verdicts = []
    for a, b, c, d in itertools.product(range(-3, 4), repeat=4):
        if a * d - b * c != 1:
            continue
        m = LinearMapSpec(a, b, c, d)
        for n in range(2, 26):
            g = TorusGeometry(n)
            u = _kernel(m, n)
            works = (
                u is not None
                and np.abs(u @ u.conj().T - np.eye(n)).max() <= 1e-12
                and all(_is_covariant(g, u, m, alpha) for alpha in ((1, 0), (0, 1)))
            )
            try:
                got = quantize_linear_map(g, m)
            except ValueError:
                got = None
            assert (got is not None) == works, (m, n)
            if works:
                assert_allclose(got, u, rtol=0, atol=1e-15)
            verdicts.append(works)
    assert (len(verdicts), sum(verdicts)) == (2784, 1032)


@pytest.mark.parametrize(
    "m, n, reason",
    [
        (CAT, 5, r"a\*N = 5 is odd"),
        (LinearMapSpec(2, 1, 1, 1), 5, r"d\*N = 5 is odd"),
        (LinearMapSpec(1, 0, 3, 1), 7, r"c\*N = 21 is odd"),
        (LinearMapSpec(1, 2, 0, 1), 12, r"unitary only for \|b\| = 1"),
    ],
)
def test_refusal_names_the_failing_condition(m, n, reason):
    with pytest.raises(ValueError, match=reason):
        quantize_linear_map(TorusGeometry(n), m)


def test_covariance_phase_is_one_on_unreduced_labels():
    # U_M T_mu U_M^dag = T_{M mu} with no phase, the sign of the reduction
    # coming from translation_operator; the KickedMap build relies on it
    accepted = 0
    for a, b, c, d in itertools.product(range(-3, 4), repeat=4):
        if a * d - b * c != 1:
            continue
        m = LinearMapSpec(a, b, c, d)
        for n in range(2, 13):
            g = TorusGeometry(n)
            try:
                u = quantize_linear_map(g, m)
            except ValueError:
                continue
            accepted += 1
            for q, p in ((1, 0), (0, 1), (n - 1, 2), (3, n - 2)):
                lhs = u @ translation_operator(g, (q, p)) @ u.conj().T
                assert np.abs(lhs - translation_operator(g, (a * q + b * p, c * q + d * p))).max() < 1e-12, (m, n)
    assert accepted > 400


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
