"""Translation algebra, conjugation phases and the chord transform."""

import numpy as np
import pytest
from numpy.testing import assert_allclose

from chordnoise import (
    LinearMapSpec,
    TorusGeometry,
    chord_inverse,
    chord_transform,
    composition_phase,
    make_depolarizing,
    make_gaussian,
    translation_operator,
    wedge,
)
from chordnoise.phasespace import _reduction_sign


def test_geometry_validation():
    with pytest.raises(ValueError):
        TorusGeometry(1)


@pytest.mark.parametrize("n", [10.0, 10.5, "10", None])
def test_geometry_requires_integer_n(n):
    with pytest.raises(ValueError, match="must be an integer"):
        TorusGeometry(n)


def test_geometry_takes_numpy_ints_as_int():
    g = TorusGeometry(np.int64(10))
    assert type(g.n) is int and g == TorusGeometry(10)
    for ch in (make_gaussian(g, 0.3), make_depolarizing(g, 0.5)):
        assert type(ch.geometry.n) is int and ch.weights.shape == (10, 10)


def test_translations_unitary():
    for n in (4, 7):
        g = TorusGeometry(n)
        for alpha in [(0, 0), (1, 0), (0, 1), (3, 2), (n - 1, n - 1), (-1, 5)]:
            t = translation_operator(g, alpha)
            assert_allclose(t @ t.conj().T, np.eye(n), atol=1e-14)


def test_label_shift_signs():
    # T_(q+N,p) = (-1)^p T_(q,p) and T_(q,p+N) = (-1)^q T_(q,p)
    g = TorusGeometry(6)
    for q, p in [(1, 2), (2, 3), (3, 3), (0, 5)]:
        t = translation_operator(g, (q, p))
        assert_allclose(translation_operator(g, (q + 6, p)), (-1) ** p * t, atol=1e-14)
        assert_allclose(translation_operator(g, (q, p + 6)), (-1) ** q * t, atol=1e-14)
    # _reduction_sign gives that factor for integer arrays of unreduced labels, k and j in -2..2
    for n in (5, 6):
        g = TorusGeometry(n)
        qr, pr, k, j = np.indices((n, n, 5, 5)).reshape(4, -1)
        q, p = qr + n * (k - 2), pr + n * (j - 2)
        signs = _reduction_sign(q, p, n)
        assert signs.shape == q.shape and set(np.unique(signs)) == {-1, 1}
        for qi, pi, s in zip(q, p, signs):
            reduced = translation_operator(g, (qi % n, pi % n))
            assert_allclose(translation_operator(g, (qi, pi)), s * reduced, atol=1e-13)


@pytest.mark.parametrize("n", [4, 5])
def test_group_law_exhaustive(n):
    g = TorusGeometry(n)
    ts = {(q, p): translation_operator(g, (q, p)) for q in range(n) for p in range(n)}
    for a1 in ts:
        for a2 in ts:
            lhs = ts[a1] @ ts[a2]
            summed = ((a1[0] + a2[0]) % n, (a1[1] + a2[1]) % n)
            rhs = composition_phase(g, a1, a2) * ts[summed]
            assert np.abs(lhs - rhs).max() < 1e-12


def test_conjugation_phase_sign():
    # regression for the global sign: T_a T_l T_a^dag = e^{+i 2pi wedge(l,a)/N} T_l
    for n in (4, 5):
        g = TorusGeometry(n)
        for a in [(1, 0), (2, 3), (3, 1)]:
            for lam in [(0, 1), (1, 2), (3, 2)]:
                ta = translation_operator(g, a)
                tl = translation_operator(g, lam)
                lhs = ta @ tl @ ta.conj().T
                phase = np.exp(2j * np.pi * wedge(lam, a) / n)
                assert_allclose(lhs, phase * tl, atol=1e-13)
                if wedge(lam, a) % n not in (0, n / 2):
                    # the opposite sign is genuinely different here
                    assert np.abs(lhs - np.conj(phase) * tl).max() > 1e-2


def test_wedge_antisymmetry():
    assert wedge((2, 3), (2, 3)) == 0
    assert wedge((1, 4), (2, 3)) == -wedge((2, 3), (1, 4)) == 1 * 3 - 4 * 2


G8 = TorusGeometry(8)
LABEL_USERS = {
    "composition_phase": lambda a: composition_phase(G8, a, (1, 1)),
    "wedge": lambda a: wedge(a, (1, 1)),
    "apply": lambda a: LinearMapSpec(1, 1, 1, 2).apply(a, 8),
    "translation_operator": lambda a: translation_operator(G8, a),
}


@pytest.mark.parametrize("bad", [(0.5, 1), (1.5, 2), (1, 2.0), (1, "2")])
@pytest.mark.parametrize("use", LABEL_USERS)
def test_chord_labels_must_be_integers(use, bad):
    with pytest.raises(ValueError, match="chord label . must be an integer"):
        LABEL_USERS[use](bad)
    # numpy integers are integers
    good = LABEL_USERS[use](np.array([1, 2]))
    assert np.array_equal(good, LABEL_USERS[use]((1, 2)))


def test_orthogonality():
    n = 5
    g = TorusGeometry(n)
    for a in [(0, 0), (1, 2), (4, 3)]:
        for b in [(0, 0), (1, 2), (2, 2)]:
            inner = np.vdot(translation_operator(g, a), translation_operator(g, b))
            assert inner == pytest.approx(n if a == b else 0.0, abs=1e-13)


def test_chord_transform_matches_trace():
    rng = np.random.default_rng(42)
    for n in (5, 8):
        g = TorusGeometry(n)
        a = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
        coeffs = chord_transform(a, g)
        for q in range(n):
            for p in range(n):
                direct = np.trace(a @ translation_operator(g, (q, p)).conj().T) / np.sqrt(n)
                assert coeffs[q, p] == pytest.approx(direct, abs=1e-12)


def test_chord_roundtrip():
    rng = np.random.default_rng(7)
    for n in (4, 5, 9):
        g = TorusGeometry(n)
        a = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
        assert_allclose(chord_inverse(chord_transform(a, g)), a, atol=1e-13)


def test_chord_of_identity():
    n = 6
    coeffs = chord_transform(np.eye(n, dtype=complex), TorusGeometry(n))
    expected = np.zeros((n, n), dtype=complex)
    expected[0, 0] = np.sqrt(n)
    assert_allclose(coeffs, expected, atol=1e-13)


def test_chord_parseval():
    # coefficient norm equals operator Hilbert-Schmidt norm
    rng = np.random.default_rng(1)
    n = 7
    g = TorusGeometry(n)
    a = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    assert np.sum(np.abs(chord_transform(a, g)) ** 2) == pytest.approx(
        np.sum(np.abs(a) ** 2), rel=1e-12
    )


def test_chord_shape_validation():
    g = TorusGeometry(4)
    with pytest.raises(ValueError):
        chord_transform(np.eye(5), g)
    with pytest.raises(ValueError):
        chord_inverse(np.ones((3, 4)))
    # once an IndexError, a table though TorusGeometry refuses N < 2, and silent NaN
    for call in (lambda: chord_inverse(np.array(5.0)), lambda: chord_inverse(np.ones((1, 1))),
                 lambda: chord_transform(np.full((4, 4), None), g), lambda: chord_inverse(np.full((4, 4), "a"))):
        with pytest.raises(ValueError, match="square numeric table|>= 2"):
            call()


@pytest.mark.parametrize("n", [100, 400, 1000])
def test_chord_transform_of_a_translation_is_exact(n):
    # every half-turn phase comes from one table on s mod 2N; unreduced exponentials
    # once left this 3.0e-13, 7.2e-13 and 1.2e-11 away from sqrt(N) delta
    g = TorusGeometry(n)
    expected = np.zeros((n, n))
    expected[n - 3, n - 1] = np.sqrt(n)
    assert np.abs(chord_transform(translation_operator(g, (n - 3, n - 1)), g) - expected).max() <= 1e-14
