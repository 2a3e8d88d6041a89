"""Window construction, eigenvalue ordering and spectral stability."""

import tracemalloc
import warnings

import numpy as np
import pytest
from numpy.testing import assert_allclose

from chordnoise import (
    DiagonalChordChannel,
    LinearMapSpec,
    TorusGeometry,
    build_noisy_propagator,
    channel_spectrum,
    leading_spectrum,
    make_depolarizing,
    make_gaussian,
    nonlinear_kick,
    quantize_linear_map,
    sort_by_modulus,
    stability_report,
    translation_operator,
)
from chordnoise.oracles import ORACLE_N_CAP, chord_supermatrix

CAT = LinearMapSpec(1, 1, 1, 2)


def _standard_setup(n=100, sigma=0.063, k=0.02):
    g = TorusGeometry(n)
    u = quantize_linear_map(g, CAT) @ nonlinear_kick(g, k)
    return g, u, make_gaussian(g, sigma)


def test_window_dimensions():
    _, u, ch = _standard_setup()
    dims = {a: build_noisy_propagator(ch, u, a).dim for a in (2.0, 2.8, 4.8)}
    assert dims == {2.0: 100, 2.8: 196, 4.8: 576}


def test_window_containment():
    _, u, ch = _standard_setup()
    small = build_noisy_propagator(ch, u, 2.0)
    large = build_noisy_propagator(ch, u, 2.8)
    assert set(map(tuple, small.kept_modes.tolist())) < set(map(tuple, large.kept_modes.tolist()))
    assert not small.full and not large.full


def test_a_coeff_validation():
    _, u, ch = _standard_setup(n=20, sigma=0.3)
    with pytest.raises(ValueError, match="positive"):
        build_noisy_propagator(ch, u, 0.0)
    with pytest.raises(ValueError, match="keeps no modes"):
        build_noisy_propagator(ch, u, 0.5)  # floor(0.5/(2 pi 0.3)) = 0


def test_window_degrades_to_full_with_warning():
    g, u, ch = _standard_setup(n=10, sigma=0.3)
    with pytest.warns(UserWarning, match="whole grid"):
        tp = build_noisy_propagator(ch, u, 9.5)
    assert tp.full
    assert tp.dim == 100


def test_no_sigma_builds_full_and_caps():
    g = TorusGeometry(8)
    u = quantize_linear_map(g, CAT)
    tp = build_noisy_propagator(make_depolarizing(g, 0.3), u, 2.0)
    assert tp.full and tp.dim == 64 and tp.sigma is None
    n = ORACLE_N_CAP + 1
    with pytest.raises(ValueError, match="no sigma.*capped"):
        build_noisy_propagator(make_depolarizing(TorusGeometry(n), 0.3), np.eye(n, dtype=complex), 2.0)


def test_grid_covering_window_is_capped():
    # a window reaching N/2 degrades to the full N^2 x N^2 build, which is
    # refused above the oracle cap before any of it is allocated
    n = ORACLE_N_CAP + 1
    ch = make_gaussian(TorusGeometry(n), 0.1)
    u = np.eye(n, dtype=complex)
    tracemalloc.start()
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="half-width 9 is capped"):
                build_noisy_propagator(ch, u, 6.0)  # W = 9, 2W >= N
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 * n**4 / 10  # a tenth of the complex N^2 x N^2 matrix


def test_truncation_is_submatrix_of_full_operator():
    # the windowed build must equal diag(Sigma) * supermatrix restricted to
    # the kept chords, with no other approximation
    g = TorusGeometry(10)
    ch = make_gaussian(g, 0.3)
    u = quantize_linear_map(g, CAT) @ nonlinear_kick(g, 0.5)
    tp = build_noisy_propagator(ch, u, 2.0)
    assert tp.dim == 4
    full = channel_spectrum(ch).values.ravel()[:, None] * chord_supermatrix(g, u)
    idx = tp.kept_modes[:, 0] * 10 + tp.kept_modes[:, 1]
    assert np.abs(tp.matrix - full[np.ix_(idx, idx)]).max() < 1e-14


def test_sort_by_modulus_ordering():
    vals = np.array([0.5, -1.0, 1.0, -1.0j, 1.0j])
    out = sort_by_modulus(vals)
    assert_allclose(out, np.array([1.0, 1.0j, -1.0, -1.0j, 0.5]), atol=1e-15)


def test_leading_spectrum_count_validation():
    g, u, ch = _standard_setup(n=20, sigma=0.3)
    tp = build_noisy_propagator(ch, u, 2.0)
    with pytest.raises(ValueError, match="requested"):
        leading_spectrum(tp, tp.dim + 1)
    res = leading_spectrum(tp, 3)
    assert res.dim_used == tp.dim
    assert len(res.eigenvalues) == 3


def test_count_must_be_positive():
    _, u, ch = _standard_setup(n=20, sigma=0.3)
    tp = build_noisy_propagator(ch, u, 2.0)
    res = leading_spectrum(tp, 4)
    for bad in (0, -1):
        with pytest.raises(ValueError, match="requested"):
            leading_spectrum(tp, bad)
        with pytest.raises(ValueError, match="count"):
            stability_report(res, res, bad)


def test_build_rejects_non_unitary_map():
    _, u, ch = _standard_setup(n=20, sigma=0.3)
    with pytest.raises(ValueError, match="not unitary"):
        build_noisy_propagator(ch, 2 * u, 2.0)
    with pytest.raises(ValueError, match="shape"):
        build_noisy_propagator(ch, u[:, :-1], 2.0)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_build_rejects_non_finite_input(bad):
    g, u, ch = _standard_setup(n=20, sigma=0.3)
    with pytest.raises(ValueError, match="finite"):
        nonlinear_kick(g, bad)
    with pytest.raises(ValueError, match="not unitary"):
        build_noisy_propagator(ch, np.full_like(u, bad), 2.0)
    with pytest.raises(ValueError, match="finite"):
        build_noisy_propagator(ch, u, bad)


def test_refinement_is_monotone():
    # enlarging the window moves the top eigenvalues toward the a=4.8 values
    _, u, ch = _standard_setup()
    specs = {a: leading_spectrum(build_noisy_propagator(ch, u, a), 10) for a in (2.0, 2.8, 4.8)}
    coarse = stability_report(specs[2.0], specs[4.8], 10)
    fine = stability_report(specs[2.8], specs[4.8], 10)
    assert fine < coarse < 5e-3


def test_noise_free_channel_keeps_unimodular_spectrum():
    # eps=0 with a declared sigma: the window applies but every chord passes
    # through untouched, and a translation map permutes chords unitarily
    g = TorusGeometry(100)
    ch = DiagonalChordChannel(g, 0.0, np.full((100, 100), 0.01), sigma=0.063)
    u = translation_operator(g, (1, 0))
    tp = build_noisy_propagator(ch, u, 2.0)
    vals = leading_spectrum(tp, tp.dim).eigenvalues
    assert np.abs(np.abs(vals) - 1.0).max() < 1e-12


def test_noisy_spectrum_is_contractive():
    _, u, ch = _standard_setup()
    res = leading_spectrum(build_noisy_propagator(ch, u, 2.8), 196)
    assert np.abs(res.eigenvalues).max() <= 1 + 1e-10
    assert abs(res.eigenvalues[0] - 1.0) < 1e-10  # identity chord survives


def test_stability_report_basics():
    from chordnoise.spectral import SpectrumResult

    a = SpectrumResult(np.array([1.0 + 0j, 0.5 + 0.1j, -0.3j]), 9)
    same = stability_report(a, a, 3)
    assert same == 0.0
    b = SpectrumResult(np.array([1.0 + 0j, 0.4 + 0.1j, -0.3j]), 9)
    assert stability_report(a, b, 3) == pytest.approx(0.1)
    with pytest.raises(ValueError, match="count"):
        stability_report(a, b, 5)


def test_stability_report_handles_near_degenerate_order():
    from chordnoise.spectral import SpectrumResult

    # two eigenvalues with equal modulus may come out in either order;
    # greedy nearest-unused pairing must not report their separation
    a = SpectrumResult(np.array([np.exp(0.1j), np.exp(2.0j)]), 4)
    b = SpectrumResult(np.array([np.exp(2.0j), np.exp(0.1j)]), 4)
    assert stability_report(a, b, 2) < 1e-15


def test_build_is_deterministic():
    _, u, ch = _standard_setup(n=20, sigma=0.3)
    t1 = build_noisy_propagator(ch, u, 2.0)
    t2 = build_noisy_propagator(ch, u, 2.0)
    assert np.array_equal(t1.matrix, t2.matrix)
    e1 = leading_spectrum(t1, t1.dim).eigenvalues
    e2 = leading_spectrum(t2, t2.dim).eigenvalues
    assert np.array_equal(e1, e2)
