"""Coherent and cat states, and the discrete Wigner function on the 2N grid."""

import numpy as np
import pytest
from numpy.testing import assert_allclose

from chordnoise import (
    TorusGeometry,
    cat_state,
    chord_transform,
    coherent_state,
    density_from_pure,
    wigner_function,
    wigner_overlap,
)
from chordnoise.oracles import wigner_point_operator


def _random_density(rng, n):
    h = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    rho = h @ h.conj().T
    return rho / np.trace(rho).real


def test_coherent_centered_packet_is_real_symmetric():
    g = TorusGeometry(32)
    psi = coherent_state(g, 0.5, 0.0)
    assert np.linalg.norm(psi) == pytest.approx(1.0, abs=1e-12)
    assert np.abs(psi.imag).max() < 1e-15
    assert psi.real.min() > 0
    for k in range(16):
        assert psi[(16 + k) % 32] == pytest.approx(psi[(16 - k) % 32], abs=1e-15)


def test_coherent_peak_location():
    psi = coherent_state(TorusGeometry(32), 0.4, 0.25)
    assert np.argmax(np.abs(psi)) == 13  # round(0.4 * 32)


def test_coherent_separated_overlap():
    g = TorusGeometry(64)
    ov = abs(np.vdot(coherent_state(g, 0.25, 0.5), coherent_state(g, 0.75, 0.5)))
    assert ov < 1e-6


def test_coherent_center_is_taken_mod_one():
    # q0 = 10.4 used to overflow the image sum into an all-NaN vector
    g = TorusGeometry(32)
    ref = coherent_state(g, 0.4, 0.25)
    for q0, p0 in ((10.4, 0.25), (0.4, -6.75), (-3.6, 7.25)):
        assert np.abs(coherent_state(g, q0, p0) - ref).max() < 1e-12


def test_cat_same_centers_is_coherent():
    g = TorusGeometry(16)
    assert_allclose(cat_state(g, (0.3, 0.7), (0.3, 0.7)), coherent_state(g, 0.3, 0.7), atol=1e-14)


@pytest.mark.parametrize("n", [32, 64])
def test_cat_normalized(n):
    psi = cat_state(TorusGeometry(n), (0.4, 0.25), (0.6, 0.75))
    assert np.linalg.norm(psi) == pytest.approx(1.0, abs=1e-12)


def test_density_from_pure():
    e0 = np.array([1.0, 0.0])
    assert_allclose(density_from_pure(e0), np.diag([1.0, 0.0]))
    plus = np.array([1.0, 1.0]) / np.sqrt(2)
    assert_allclose(density_from_pure(plus), np.full((2, 2), 0.5), atol=1e-15)
    rng = np.random.default_rng(0)
    psi = rng.normal(size=6) + 1j * rng.normal(size=6)
    psi /= np.linalg.norm(psi)
    rho = density_from_pure(psi)
    assert np.trace(rho @ rho).real == pytest.approx(1.0, abs=1e-12)
    with pytest.raises(ValueError):
        density_from_pure(2 * psi)
    # np.eye(2)/sqrt(2) has unit Frobenius norm, so only the shape check stops it
    for not_a_vector in (np.eye(2) / np.sqrt(2), np.ones((1, 2)) / np.sqrt(2), np.array(1.0), [[1.0, 0.0]]):
        with pytest.raises(ValueError, match="1-D"):
            density_from_pure(not_a_vector)
    assert np.array_equal(density_from_pure([1.0, 0.0]), np.diag([1.0, 0.0]))  # once an AttributeError


@pytest.mark.parametrize(
    "transform", [lambda a: chord_transform(a, TorusGeometry(2)), wigner_function], ids=["chord_transform", "wigner_function"]
)
def test_nested_lists_are_read_as_arrays(transform):
    # both once failed with an AttributeError on a list
    rho = [[0.5, 0.0], [0.0, 0.5]]
    assert np.array_equal(transform(rho), transform(np.array(rho)))
    with pytest.raises(ValueError, match="shape|square"):
        transform([[0.5, 0.0, 0.0], [0.0, 0.5, 0.0]])


@pytest.mark.parametrize(
    "center", [("0.1", 0.2), (0.1, "0.2"), (None, 0.2), (0.1 + 1j, 0.2), (0.1, 0.2 + 0j), None, "ab", (0.1, 0.2, 0.3)]
)
def test_states_refuse_centers_that_are_not_real_pairs(center):
    g = TorusGeometry(8)
    if isinstance(center, tuple) and len(center) == 2:
        with pytest.raises(ValueError, match="must be real"):
            coherent_state(g, *center)
    with pytest.raises(ValueError, match="must be real|must be a pair"):
        cat_state(g, (0.4, 0.25), center)


def test_wigner_matches_point_operator_oracle():
    # even N is where the parity gather and the (-1)^(abN) term of the quadrants differ
    rng = np.random.default_rng(3)
    for n in (2, 5, 8, 12):
        g = TorusGeometry(n)
        rho = _random_density(rng, n)
        w = wigner_function(rho)
        for q in range(2 * n):
            for p in range(2 * n):
                tr = np.trace(rho @ wigner_point_operator(g, q, p))
                assert abs(tr.imag) < 1e-13
                assert w[q, p] == pytest.approx(tr.real, abs=1e-13)


@pytest.mark.parametrize("state", ["random", "cat"])
@pytest.mark.parametrize("n", [2, 5, 8, 33, 128])
def test_wigner_quadrants_are_exact_sign_copies(n, state):
    # W[q + aN, p + bN] = (-1)^(bq + ap + abN) W[q, p], bit for bit; odd N covers the abN term
    if state == "random":
        rho = _random_density(np.random.default_rng(n), n)
    else:
        rho = density_from_pure(cat_state(TorusGeometry(n), (0.4, 0.25), (0.6, 0.75)))
    w = wigner_function(rho)
    q = np.arange(n)
    for a in (0, 1):
        for b in (0, 1):
            sign = (-1.0) ** (b * q[:, None] + a * q[None, :] + a * b * n)
            assert np.array_equal(w[a * n : (a + 1) * n, b * n : (b + 1) * n], sign * w[:n, :n]), (a, b)


@pytest.mark.parametrize("n", [5, 8, 32])
def test_wigner_full_grid_sums_to_trace(n):
    rho = _random_density(np.random.default_rng(n), n)
    assert wigner_function(rho).sum() == pytest.approx(1.0, abs=1e-12)


@pytest.mark.parametrize("n", [8, 32])
def test_wigner_even_even_subgrid_sums_to_trace(n):
    # even N only: the integer-integer points alone already resolve the trace
    rho = _random_density(np.random.default_rng(n + 1), n)
    assert wigner_function(rho)[0::2, 0::2].sum() == pytest.approx(1.0, abs=1e-12)


def test_wigner_of_maximally_mixed():
    # under the 2N-grid convention I/N is flat on the even-even sublattice
    # (value 1/N^2) and exactly zero on the three other parity classes
    n = 8
    w = wigner_function(np.eye(n) / n)
    assert_allclose(w[0::2, 0::2], 1.0 / n**2, atol=1e-15)
    assert np.abs(w[1::2, :]).max() < 1e-15
    assert np.abs(w[:, 1::2]).max() < 1e-15


def test_wigner_linearity():
    rng = np.random.default_rng(12)
    n = 6
    r1, r2 = _random_density(rng, n), _random_density(rng, n)
    a = 0.3
    mixed = wigner_function(a * r1 + (1 - a) * r2)
    combo = a * wigner_function(r1) + (1 - a) * wigner_function(r2)
    assert_allclose(mixed, combo, atol=1e-12)


def test_wigner_overlap_matches_hs_inner():
    rng = np.random.default_rng(9)
    for n in (5, 16):
        g = TorusGeometry(n)
        psi1 = rng.normal(size=n) + 1j * rng.normal(size=n)
        psi2 = rng.normal(size=n) + 1j * rng.normal(size=n)
        r1 = density_from_pure(psi1 / np.linalg.norm(psi1))
        r2 = density_from_pure(psi2 / np.linalg.norm(psi2))
        ov = wigner_overlap(wigner_function(r1), wigner_function(r2))
        assert ov == pytest.approx(np.vdot(r1, r2).real, abs=1e-10)


def test_wigner_rejects_non_hermitian():
    with pytest.raises(ValueError):
        wigner_function(np.array([[0.0, 1.0], [0.0, 0.0]]))


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_states_reject_non_finite_input(bad):
    g = TorusGeometry(8)
    with pytest.raises(ValueError, match="finite"):
        coherent_state(g, bad, 0.25)
    with pytest.raises(ValueError, match="finite"):
        cat_state(g, (0.4, 0.25), (0.6, bad))
    psi = np.full(8, 1 / np.sqrt(8), dtype=complex)
    psi[3] = bad
    with pytest.raises(ValueError, match="normalized"):
        density_from_pure(psi)
    rho = np.eye(8, dtype=complex) / 8
    rho[2, 2] = bad
    with pytest.raises(ValueError, match="finite Hermitian"):
        wigner_function(rho)


def test_wigner_refuses_non_numeric_tables():
    # once a TypeError from np.isfinite, numpy's UFuncTypeError, and a ComplexWarning that dropped the imaginary part
    with pytest.raises(ValueError, match="square numeric table"):
        wigner_function(np.full((4, 4), "a"))
    for bad in (np.full((4, 4), "a"), np.full((4, 4), 1j)):
        with pytest.raises(ValueError, match=r"real \(2N, 2N\)"):
            wigner_overlap(bad, bad)


def test_wigner_rejects_too_small_torus():
    with pytest.raises(ValueError, match=">= 2"):
        wigner_function(np.ones((1, 1)))


def test_wigner_overlap_geometry_mismatch():
    w5 = wigner_function(np.eye(5) / 5)
    w6 = wigner_function(np.eye(6) / 6)
    with pytest.raises(ValueError):
        wigner_overlap(w5, w6)


@pytest.mark.parametrize("shape", [(3, 5), (2, 2), (5, 5), (16,), (4, 4, 4), (0, 0)])
def test_wigner_overlap_requires_a_2n_square_grid(shape):
    # (3, 5) used to read N = 1 and return 15.0 for two tables of ones
    with pytest.raises(ValueError, match=r"\(2N, 2N\)"):
        wigner_overlap(np.ones(shape), np.ones(shape))
    w = wigner_function(np.eye(2) / 2)
    assert wigner_overlap(w, w) == pytest.approx(0.5)  # smallest torus: Tr(rho^2) of I/2


def test_wigner_overlap_reads_nested_lists():
    # lists once raised AttributeError reading .shape
    w = wigner_function(np.eye(2) / 2)
    assert wigner_overlap(w.tolist(), w.tolist()) == wigner_overlap(w, w)
    with pytest.raises(ValueError, match=r"\(2N, 2N\)"):
        wigner_overlap([[0.0] * 3] * 3, [[0.0] * 3] * 3)


def test_coherent_wigner_blob_location():
    g = TorusGeometry(32)
    w = wigner_function(density_from_pure(coherent_state(g, 0.4, 0.25)))
    qi, pi = np.unravel_index(np.argmax(w), w.shape)
    # blob argmax lands on the grid point nearest (0.4, 0.25) * 2N = (25.6, 16)
    assert (qi, pi) == (26, 16)


def test_cat_wigner_blobs_and_fringes():
    g = TorusGeometry(32)
    rho = density_from_pure(cat_state(g, (0.4, 0.25), (0.6, 0.75)))
    w = wigner_function(rho)

    def window_argmax(center, r=4):
        q0, p0 = center
        block = w[q0 - r : q0 + r + 1, p0 - r : p0 + r + 1]
        i, j = np.unravel_index(np.argmax(block), block.shape)
        return (q0 - r + i, p0 - r + j), block.max()

    (b1, m1) = window_argmax((26, 16))
    (b2, m2) = window_argmax((38, 48))
    assert abs(b1[0] - 26) <= 1 and abs(b1[1] - 16) <= 1
    assert abs(b2[0] - 38) <= 1 and abs(b2[1] - 48) <= 1
    # interference fringes midway: stronger than either blob and oscillating
    mid = w[32 - 5 : 32 + 6, 32 - 5 : 32 + 6]
    assert mid.max() > 1.5 * max(m1, m2)
    assert mid.min() < -0.5 * max(m1, m2)
