"""The three channel families, their spectra and the Kraus oracle."""

import numpy as np
import pytest
from numpy.testing import assert_allclose

from chordnoise import (
    DiagonalChordChannel,
    TorusGeometry,
    apply_channel,
    channel_spectrum,
    line_points,
    make_depolarizing,
    make_gaussian,
    make_phase_damping_line,
    translation_operator,
)
from chordnoise.oracles import (
    ORACLE_N_CAP,
    apply_channel_kraus,
    channel_superoperator_matrix,
    kraus_operators,
    line_shift,
    line_spectrum_closed_form,
    su_n_generator_superoperator,
    unitary_superoperator_matrix,
)


def _random_density(rng, n):
    h = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    rho = h @ h.conj().T
    return rho / np.trace(rho).real


def _families(geom):
    return {
        "depolarizing": make_depolarizing(geom, 0.3),
        "pdc-line": make_phase_damping_line(geom, (1, 2, 2), 0.55),
        "gaussian": make_gaussian(geom, 0.25),
    }


def test_channel_validation():
    g = TorusGeometry(4)
    with pytest.raises(ValueError):
        make_depolarizing(g, 1.2)
    with pytest.raises(ValueError):
        DiagonalChordChannel(g, 0.5, np.full((4, 4), 0.3))  # sums to 4.8
    bad = np.full((4, 4), 0.25)
    bad[0, 0] = -0.5
    bad[0, 1] = 1.0
    with pytest.raises(ValueError):
        DiagonalChordChannel(g, 0.5, bad)
    # a complex table sums to N yet its spectrum belongs to no Kraus sum
    lopsided = np.full((4, 4), 0.25, dtype=complex)
    lopsided[0, 1] += 0.5j
    lopsided[1, 0] -= 0.5j
    with pytest.raises(ValueError, match="channel weights must be real, got dtype complex128"):
        DiagonalChordChannel(g, 0.5, lopsided)


def test_depolarizing_eps0_is_identity():
    g = TorusGeometry(8)
    rho = _random_density(np.random.default_rng(0), 8)
    assert_allclose(apply_channel(make_depolarizing(g, 0.0), rho), rho, atol=1e-13)


def test_depolarizing_eps1_is_uniform():
    g = TorusGeometry(8)
    rho = _random_density(np.random.default_rng(1), 8)
    assert_allclose(apply_channel(make_depolarizing(g, 1.0), rho), np.eye(8) / 8, atol=1e-13)


def test_depolarizing_spectrum():
    vals = channel_spectrum(make_depolarizing(TorusGeometry(8), 0.4)).values
    assert vals[0, 0] == pytest.approx(1.0, abs=1e-13)
    rest = np.delete(vals.ravel(), 0)
    assert np.abs(rest - 0.6).max() < 1e-13


def test_line_points_examples():
    g32 = TorusGeometry(32)
    anti = line_points(g32, 1, -1, 0)
    assert len(anti) == 32
    assert all((q + p) % 32 == 0 for q, p in anti)

    horiz = line_points(g32, 1, 0, 2)
    assert len(horiz) == 32
    assert all(p == 2 for _, p in horiz)

    both_even = line_points(TorusGeometry(8), 2, 2, 0)
    assert len(both_even) == 16  # 2N when the direction is doubly even
    assert all(p % 8 in (q % 8, (q + 4) % 8) for q, p in both_even)


def test_line_errors():
    g = TorusGeometry(32)
    with pytest.raises(ValueError):
        line_points(g, 0, 0, 3)
    with pytest.raises(ValueError, match="no solutions"):
        line_points(g, 2, 2, 1)
    # a direction that is (0, 0) mod N is no line either, not the whole grid
    for n1, n2 in ((8, 0), (8, 16)):
        with pytest.raises(ValueError, match="does not define a line"):
            line_points(TorusGeometry(8), n1, n2, 0)
    with pytest.raises(ValueError, match="does not define a line"):
        make_phase_damping_line(TorusGeometry(8), (8, 0, 0), 0.5)


def test_phase_damping_weights():
    g = TorusGeometry(8)
    line = line_points(g, 1, 1, 0)
    ch = make_phase_damping_line(g, (1, 1, 0), 0.4)
    assert ch.weights.sum() == pytest.approx(8.0)
    for q, p in line:
        assert ch.weights[q, p] == pytest.approx(8.0 / len(line))
    assert np.count_nonzero(ch.weights) == len(line)


@pytest.mark.parametrize("n", [8, 16])
def test_line_channel_enumerates_its_own_torus(n):
    # the channel takes the triple, so the line cannot come from another N
    ch = make_phase_damping_line(TorusGeometry(n), (1, 1, 0), 0.5)
    assert np.count_nonzero(ch.weights) == n
    assert_allclose(ch.weights[np.arange(n), np.arange(n)], 1.0)


def test_line_channel_spectrum_structure():
    # chords on the through-origin partner line keep unit modulus distance
    # from (1-eps); everything else sits exactly at (1-eps)
    g = TorusGeometry(32)
    eps = 0.5
    ch = make_phase_damping_line(g, (1, 2, 2), eps)
    vals = channel_spectrum(ch).values.ravel()
    at_base = np.abs(vals - (1 - eps)) < 1e-12
    on_circle = np.abs(np.abs(vals - (1 - eps)) - eps) < 1e-12
    assert at_base.sum() == 32 * 32 - 32
    assert (on_circle & ~at_base).sum() == 32


def test_line_spectrum_closed_form_vs_oracle():
    # both branches agree chord by chord with the Kraus-derived spectrum,
    # so the value multisets coincide as well
    g = TorusGeometry(32)
    for n1, n2, n3 in [(1, 2, 2), (1, 0, 2), (0, 1, 3)]:
        ch = make_phase_damping_line(g, (n1, n2, n3), 0.5)
        oracle = channel_spectrum(ch).values
        formula = line_spectrum_closed_form(g, n1, n2, n3, 0.5)
        assert np.abs(formula - oracle).max() < 1e-12
        assert_allclose(
            np.sort_complex(np.round(formula.ravel(), 12)),
            np.sort_complex(np.round(oracle.ravel(), 12)),
            atol=1e-12,
        )


def test_horizontal_line_unit_eigenvalue_count():
    # for the (1,0,2) line only the two chords with 2*mu = 0 mod N reach 1;
    # the remaining line chords stay strictly on the circle
    g = TorusGeometry(32)
    ch = make_phase_damping_line(g, (1, 0, 2), 0.5)
    vals = channel_spectrum(ch).values.ravel()
    assert (np.abs(vals - 1.0) < 1e-12).sum() == 2


def test_one_qubit_translations_are_paulis():
    g = TorusGeometry(2)
    sx = np.array([[0, 1], [1, 0]], dtype=complex)
    sz = np.diag([1.0, -1.0]).astype(complex)
    assert_allclose(translation_operator(g, (1, 0)), sx, atol=1e-15)
    assert_allclose(translation_operator(g, (0, 1)), sz, atol=1e-15)


def test_one_qubit_phase_damping_decay():
    g = TorusGeometry(2)
    ch = make_phase_damping_line(g, (0, 1, 0), 0.3)
    rho0 = np.array([[0.6, 0.2 - 0.1j], [0.2 + 0.1j, 0.4]])
    rho = rho0.copy()
    for n in range(1, 6):
        rho = apply_channel(ch, rho)
        assert rho[0, 1] == pytest.approx(0.7**n * rho0[0, 1], abs=1e-14)
        assert rho[0, 0] == pytest.approx(0.6, abs=1e-14)


def test_gaussian_weights_and_spectrum():
    g = TorusGeometry(100)
    ch = make_gaussian(g, 0.063)
    assert ch.sigma == 0.063
    assert ch.epsilon == 1.0
    assert ch.weights.min() >= 0
    assert ch.weights.sum() == pytest.approx(100.0, abs=1e-10)
    # symmetry under alpha -> -alpha, so the channel has no net drift
    flip = ch.weights[(-np.arange(100)) % 100][:, (-np.arange(100)) % 100]
    assert_allclose(ch.weights, flip, atol=1e-15)
    vals = channel_spectrum(ch).values
    assert np.abs(vals.imag).max() < 1e-12
    mu = (np.arange(100) + 50) % 100 - 50
    target = np.exp(-2 * np.pi**2 * 0.063**2 * (mu[:, None] ** 2 + mu[None, :] ** 2))
    assert_allclose(vals.real, target, atol=1e-12)


@pytest.mark.parametrize("n, sigma", [(17, 0.0856), (100, 0.063), (100, 0.04), (128, 0.02), (400, 0.063)])
def test_gaussian_weights_are_exactly_even(n, sigma):
    # w[-q, -p] == w[q, p] bit for bit, which makes channel_spectrum real
    w = make_gaussian(TorusGeometry(n), sigma).weights
    neg = -np.arange(n) % n
    assert np.array_equal(w, w[np.ix_(neg, neg)])


def test_channel_spectrum_is_real_for_even_weights():
    g = TorusGeometry(16)
    rng = np.random.default_rng(2)
    lopsided = rng.random((16, 16))
    channels = {
        "gaussian": make_gaussian(g, 0.1),
        "depolarizing": make_depolarizing(g, 0.3),
        "pdc-line": make_phase_damping_line(g, (1, 2, 0), 0.55),  # through the origin
        "random": DiagonalChordChannel(g, 0.4, lopsided * 16 / lopsided.sum()),
    }
    for name, ch in channels.items():
        vals = channel_spectrum(ch).values
        assert vals.dtype == (np.complex128 if name == "random" else np.float64), name
        full = np.fft.fft(np.fft.ifft(ch.weights.astype(complex), axis=1), axis=0).T
        assert np.abs(vals - ((1 - ch.epsilon) + ch.epsilon * full)).max() <= 1e-15, name


def test_gaussian_wide_limit_is_depolarizing():
    g = TorusGeometry(16)
    ch = make_gaussian(g, 1000.0)
    assert_allclose(ch.weights, np.full((16, 16), 1.0 / 16), atol=1e-12)


def test_gaussian_width_past_the_float_range_is_the_uniform_limit():
    # sigma**2 overflows past ~1.3e154, and every sigma >= 10 already gives
    # g(mu != 0) = 0 exactly, so each width here has the weights of sigma = 10
    g = TorusGeometry(8)
    ref = make_gaussian(g, 10.0)
    for sigma in (1e100, 1e150, 1e200, np.finfo(float).max):
        ch = make_gaussian(g, sigma)
        assert ch.sigma == sigma
        assert np.array_equal(ch.weights, ref.weights)
        assert np.array_equal(channel_spectrum(ch).values, channel_spectrum(ref).values)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_non_finite_noise_rejected(bad):
    g = TorusGeometry(8)
    with pytest.raises(ValueError, match="finite"):
        make_gaussian(g, bad)
    w = np.full((8, 8), 1.0 / 8)
    w[0, 0] = bad
    with pytest.raises(ValueError, match="finite"):
        DiagonalChordChannel(g, 0.5, w)


@pytest.mark.parametrize("sigma", [0.0, -0.1, np.nan, np.inf])
def test_channel_rejects_bad_sigma(sigma):
    # these once reached build_noisy_propagator and failed there three
    # different ways: ZeroDivisionError, "keeps no modes", NaN to integer;
    # nan and inf are refused by the finite-real check every real input shares
    message = "sigma must be None or finite and positive" if np.isfinite(sigma) else "sigma must be finite, got"
    with pytest.raises(ValueError, match=message):
        DiagonalChordChannel(TorusGeometry(8), 1.0, np.full((8, 8), 1.0 / 8), sigma=sigma)


def test_channel_copies_caller_weights():
    w = np.full((8, 8), 1.0 / 8)
    ch = DiagonalChordChannel(TorusGeometry(8), 0.5, w)
    assert w.flags.writeable and not ch.weights.flags.writeable
    w[0, 0] = 3.0
    assert ch.weights[0, 0] == 1.0 / 8


def test_gaussian_negative_weights_reported():
    # at N*sigma this small the centered Gaussian spectrum is still large at
    # the zone edge and its inverse transform dips negative
    with pytest.raises(ValueError, match="negative"):
        make_gaussian(TorusGeometry(10), 0.063)


def test_gaussian_error_names_sigma_limit():
    from chordnoise.channels import _smallest_gaussian_sigma

    # N=17, sigma=0.063 dips to -3.3e-4; the error names sigma, N and the
    # smallest admissible sigma above it, which must itself be admissible
    g = TorusGeometry(17)
    with pytest.raises(ValueError, match=r"sigma=0\.063 at N=17") as err:
        make_gaussian(g, 0.063)
    assert abs(float(str(err.value).rsplit(" ", 1)[1]) - 0.0856) < 5e-4
    limit = _smallest_gaussian_sigma(17, 0.063)
    make_gaussian(g, limit)
    with pytest.raises(ValueError, match="negative"):
        make_gaussian(g, limit * (1 - 1e-9))


def test_spectrum_unitality_across_families():
    g = TorusGeometry(8)
    for ch in _families(g).values():
        vals = channel_spectrum(ch).values
        assert vals[0, 0] == pytest.approx(1.0, abs=1e-12)
        assert np.abs(vals).max() <= 1 + 1e-12


def test_eigenoperator_property_all_families():
    g = TorusGeometry(6)
    for ch in _families(g).values():
        vals = channel_spectrum(ch).values
        for mu in range(6):
            for nu in range(6):
                t = translation_operator(g, (mu, nu))
                assert np.abs(apply_channel_kraus(ch, t) - vals[mu, nu] * t).max() < 1e-10


def test_apply_channel_matches_kraus():
    rng = np.random.default_rng(5)
    g = TorusGeometry(8)
    for ch in _families(g).values():
        for _ in range(5):
            rho = _random_density(rng, 8)
            fast = apply_channel(ch, rho)
            slow = apply_channel_kraus(ch, rho)
            assert np.abs(fast - slow).max() < 1e-10
            assert np.trace(slow) == pytest.approx(1.0, abs=1e-12)
            assert np.abs(slow - slow.conj().T).max() < 1e-12


def test_kraus_completeness():
    g = TorusGeometry(8)
    for ch in _families(g).values():
        ops = kraus_operators(ch)
        total = sum(m.conj().T @ m for m in ops)
        assert_allclose(total, np.eye(8), atol=1e-10)


def test_unitality():
    g = TorusGeometry(8)
    uniform = np.eye(8) / 8
    for ch in _families(g).values():
        assert_allclose(apply_channel(ch, uniform), uniform, atol=1e-12)


def test_complete_positivity_spot_check():
    rng = np.random.default_rng(17)
    g = TorusGeometry(8)
    for ch in _families(g).values():
        for _ in range(3):
            psi = rng.normal(size=8) + 1j * rng.normal(size=8)
            rho = np.outer(psi, psi.conj()) / np.vdot(psi, psi).real
            out = apply_channel_kraus(ch, rho)
            assert np.linalg.eigvalsh((out + out.conj().T) / 2).min() > -1e-10


def test_pointer_basis_of_vertical_line():
    # weights on the (0, p) chords: position-diagonal states are fixed points
    # and every off-diagonal element contracts by exactly (1 - eps)
    g = TorusGeometry(8)
    eps = 0.45
    ch = make_phase_damping_line(g, (0, 1, 0), eps)
    diag = np.diag(np.linspace(0.1, 0.3, 8) / np.linspace(0.1, 0.3, 8).sum())
    assert_allclose(apply_channel(ch, diag), diag, atol=1e-13)
    rho = _random_density(np.random.default_rng(2), 8)
    out = apply_channel(ch, rho)
    off = ~np.eye(8, dtype=bool)
    assert_allclose(out[off], (1 - eps) * rho[off], atol=1e-13)
    assert_allclose(np.diag(out), np.diag(rho), atol=1e-13)


@pytest.mark.parametrize("n,coeffs", [(5, (2, 3, 1)), (8, (3, 2, 5)), (8, (0, 3, 2))])
def test_line_decomposition(n, coeffs):
    # averaging over a shifted line = shift conjugation, then averaging over
    # the through-origin line
    n1, n2, n3 = coeffs
    g = TorusGeometry(n)
    full = channel_superoperator_matrix(make_phase_damping_line(g, (n1, n2, n3), 1.0))
    base = channel_superoperator_matrix(make_phase_damping_line(g, (n1, n2, 0), 1.0))
    shift = unitary_superoperator_matrix(translation_operator(g, line_shift(g, n1, n2, n3)))
    assert np.abs(full - base @ shift).max() < 1e-10


def test_line_decomposition_unavailable():
    # neither 2 nor 4 is invertible mod 8: the decomposition has no shift
    with pytest.raises(ValueError, match="invertible"):
        line_shift(TorusGeometry(8), 2, 4, 1)


def test_su_n_generator_superoperator_matches_depolarizing():
    for n in (2, 4):
        g = TorusGeometry(n)
        built = su_n_generator_superoperator(g, 0.63)
        direct = channel_superoperator_matrix(make_depolarizing(g, 0.63))
        assert np.abs(built - direct).max() < 1e-10


def test_su_2_generators_are_paulis_up_to_sign():
    # reconstruct the generator list the builder uses and compare
    g = TorusGeometry(2)
    s = su_n_generator_superoperator(g, 1.0)
    paulis = [
        np.eye(2, dtype=complex) / np.sqrt(2),
        np.array([[0, 1], [1, 0]], dtype=complex) / np.sqrt(2),
        np.array([[0, -1j], [1j, 0]], dtype=complex) / np.sqrt(2),
        np.diag([1.0, -1.0]).astype(complex) / np.sqrt(2),
    ]
    expected = sum(np.kron(q, q.conj()) for q in paulis) / 2
    assert_allclose(s, expected, atol=1e-12)


def test_superoperator_scale_guard():
    n = ORACLE_N_CAP + 1
    g = TorusGeometry(n)
    builders = [
        lambda: su_n_generator_superoperator(g, 0.5),
        lambda: channel_superoperator_matrix(make_depolarizing(g, 0.5)),
        lambda: unitary_superoperator_matrix(np.eye(n, dtype=complex)),
    ]
    for build in builders:
        with pytest.raises(ValueError, match="capped"):
            build()
    assert unitary_superoperator_matrix(np.eye(ORACLE_N_CAP)).shape == (ORACLE_N_CAP**2,) * 2
