"""Acceptance gate: twelve behavioural criteria, one pass/fail line each.

Run with `pytest -s tests/test_acceptance.py` to see the per-criterion lines.
Each test asserts the documented tolerance and prints its verdict; any
assertion failure still fails the pytest run in the normal way.
"""

import time
from collections import Counter
from contextlib import contextmanager

import numpy as np
import pytest
from numpy.testing import assert_allclose

from chordnoise import (
    DiagonalChordChannel,
    LinearMapSpec,
    TorusGeometry,
    apply_channel,
    build_noisy_propagator,
    cat_state,
    channel_spectrum,
    composition_phase,
    density_from_pure,
    leading_spectrum,
    make_depolarizing,
    make_gaussian,
    make_phase_damping_line,
    nonlinear_kick,
    quantize_linear_map,
    sort_by_modulus,
    stability_report,
    translation_operator,
    wigner_function,
)
from chordnoise.spectral import SpectrumResult
from chordnoise.oracles import (
    apply_channel_kraus,
    channel_superoperator_matrix,
    chord_supermatrix,
    line_spectrum_closed_form,
    su_n_generator_superoperator,
    wigner_point_operator,
)

CAT = LinearMapSpec(1, 1, 1, 2)


@contextmanager
def _verdict(num, label):
    try:
        yield
    except BaseException:
        print(f"criterion {num:02d} [{label}]: FAIL")
        raise
    print(f"criterion {num:02d} [{label}]: PASS")


def test_criterion_01_group_law_exhaustive():
    with _verdict(1, "translation group law, N=8"):
        start = time.monotonic()
        g = TorusGeometry(8)
        ops = {
            (q, p): translation_operator(g, (q, p)) for q in range(8) for p in range(8)
        }
        worst = 0.0
        for a1, t1 in ops.items():
            for a2, t2 in ops.items():
                reduced = ((a1[0] + a2[0]) % 8, (a1[1] + a2[1]) % 8)
                phase = composition_phase(g, a1, a2)
                worst = max(worst, np.abs(t1 @ t2 - phase * ops[reduced]).max())
        elapsed = time.monotonic() - start
        assert worst < 1e-12, worst
        assert elapsed < 10.0, elapsed


def test_criterion_02_chords_are_eigenoperators():
    with _verdict(2, "diagonal-channel spectral theorem, N=8"):
        g = TorusGeometry(8)
        rng = np.random.default_rng(2024)
        worst = 0.0
        for _ in range(5):
            w = rng.random((8, 8))
            w *= 8.0 / w.sum()
            ch = DiagonalChordChannel(g, float(rng.uniform(0.2, 1.0)), w)
            vals = channel_spectrum(ch).values
            for q in range(8):
                for p in range(8):
                    t = translation_operator(g, (q, p))
                    dev = np.abs(apply_channel_kraus(ch, t) - vals[q, p] * t).max()
                    worst = max(worst, dev)
        assert worst < 1e-10, worst


def test_criterion_03_depolarizing_degeneracy():
    with _verdict(3, "depolarizing spectrum, N=32 eps=0.9"):
        vals = channel_spectrum(make_depolarizing(TorusGeometry(32), 0.9)).values.ravel()
        ones = np.abs(vals - 1.0) < 1e-12
        rest = np.abs(vals - 0.1) < 1e-12
        assert ones.sum() == 1
        assert rest.sum() == 1023
        assert np.abs(vals.imag).max() < 1e-12


def test_criterion_04_su_n_generator_identity():
    with _verdict(4, "SU(N) generator average equals depolarizing"):
        for n in (4, 8):
            g = TorusGeometry(n)
            built = su_n_generator_superoperator(g, 0.63)
            direct = channel_superoperator_matrix(make_depolarizing(g, 0.63))
            assert np.abs(built - direct).max() < 1e-10


def test_criterion_05_phase_damping_spectra():
    with _verdict(5, "line-channel spectra, N=32"):
        g = TorusGeometry(32)
        eps = 0.5
        ch = make_phase_damping_line(g, (1, 2, 2), eps)
        vals = channel_spectrum(ch).values
        flat = vals.ravel()
        at_base = np.abs(flat - (1 - eps)) < 1e-12
        on_circle = (np.abs(np.abs(flat - (1 - eps)) - eps) < 1e-12) & ~at_base
        assert at_base.sum() == 32 * 32 - 32
        assert on_circle.sum() == 32
        counts = Counter(np.round(flat[on_circle], 9).tolist())
        assert sorted(set(counts.values())) == [2]  # every circle value doubly degenerate

        # closed form: same value on every chord
        formula = line_spectrum_closed_form(g, 1, 2, 2, eps)
        assert np.abs(formula - vals).max() < 1e-12
        assert_allclose(
            np.sort_complex(np.round(formula.ravel(), 12)),
            np.sort_complex(np.round(flat, 12)),
            atol=1e-12,
        )

        # horizontal-line discrepancy: the figure annotation suggests N unit
        # eigenvalues, the oracle gives exactly two; the oracle is binding
        ch102 = make_phase_damping_line(g, (1, 0, 2), eps)
        unit_count = int((np.abs(channel_spectrum(ch102).values.ravel() - 1.0) < 1e-12).sum())
        print(f"criterion 05 note: line (1,0,2) has {unit_count} unit eigenvalues (not N=32)")
        assert unit_count == 2


def test_criterion_06_one_qubit_dephasing():
    with _verdict(6, "one-qubit dephasing decay"):
        g = TorusGeometry(2)
        eps = 0.3
        ch = make_phase_damping_line(g, (0, 1, 0), eps)
        rho0 = np.array([[0.55, 0.21 - 0.13j], [0.21 + 0.13j, 0.45]])
        rho = rho0.copy()
        for n in range(1, 11):
            rho = apply_channel(ch, rho)
            assert abs(rho[0, 1] - (1 - eps) ** n * rho0[0, 1]) < 1e-14
            assert abs(rho[1, 0] - (1 - eps) ** n * rho0[1, 0]) < 1e-14
            assert abs(rho[0, 0] - rho0[0, 0]) < 1e-14
            assert abs(rho[1, 1] - rho0[1, 1]) < 1e-14


def test_criterion_07_fast_path_matches_kraus():
    with _verdict(7, "FFT path equals Kraus oracle, 20 states per family"):
        g = TorusGeometry(8)
        rng = np.random.default_rng(7)
        families = [
            make_depolarizing(g, 0.3),
            make_phase_damping_line(g, (1, 2, 2), 0.55),
            make_gaussian(g, 0.25),
        ]
        worst = 0.0
        for ch in families:
            for _ in range(20):
                h = rng.normal(size=(8, 8)) + 1j * rng.normal(size=(8, 8))
                rho = h @ h.conj().T
                rho /= np.trace(rho).real
                dev = np.abs(apply_channel(ch, rho) - apply_channel_kraus(ch, rho)).max()
                worst = max(worst, dev)
        assert worst < 1e-10, worst


def test_criterion_08_cat_covariance():
    with _verdict(8, "cat-map covariance, N=10, all 100 chords"):
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
        assert worst < 1e-10, worst


def test_criterion_09_truncation_dimensions():
    with _verdict(9, "window dimensions at sigma=0.063, N=100"):
        g = TorusGeometry(100)
        ch = make_gaussian(g, 0.063)
        u = quantize_linear_map(g, CAT)
        for a, target in [(2.0, 100), (2.8, 196), (4.8, 576)]:
            dim = build_noisy_propagator(ch, u, a).dim
            assert abs(dim - target) <= 0.1 * target, (a, dim)


def test_criterion_10_spectral_stability():
    with _verdict(10, "spectral stability, N=100 perturbed cat"):
        start = time.monotonic()
        g = TorusGeometry(100)
        u = quantize_linear_map(g, CAT) @ nonlinear_kick(g, 0.02)
        ch = make_gaussian(g, 0.063)
        specs = {}
        for a in (2.8, 4.8):
            specs[a] = leading_spectrum(build_noisy_propagator(ch, u, a), 20)
        dev = stability_report(specs[2.8], specs[4.8], 20)
        lead = specs[4.8].eigenvalues[0]
        top_modulus = np.abs(specs[4.8].eigenvalues).max()
        elapsed = time.monotonic() - start
        print(
            f"criterion 10 note: top-20 deviation {dev:.3e}, leading |z-1| "
            f"{abs(lead - 1):.1e}, {elapsed:.1f}s"
        )
        assert dev < 1e-3, dev
        assert abs(lead - 1.0) <= 1e-8
        assert top_modulus <= 1 + 1e-8
        assert elapsed < 300.0


def test_criterion_11_full_vs_truncated():
    with _verdict(11, "grid-covering window equals full propagator, N=10"):
        g = TorusGeometry(10)
        ch = make_gaussian(g, 0.3)
        u = quantize_linear_map(g, CAT) @ nonlinear_kick(g, 0.5)
        tp = build_noisy_propagator(ch, u, 9.5)
        assert tp.dim == 10**2
        idx = tp.kept_modes[:, 0] * 10 + tp.kept_modes[:, 1]
        assert np.array_equal(np.sort(idx), np.arange(100))  # a permutation of all N^2 labels
        full_mat = channel_spectrum(ch).values.ravel()[:, None] * chord_supermatrix(g, u)
        assert np.abs(tp.matrix - full_mat[np.ix_(idx, idx)]).max() < 1e-14
        # near-equal moduli may sort in either order, so pair greedily over all 100
        truncated = SpectrumResult(sort_by_modulus(np.linalg.eigvals(tp.matrix)))
        full = SpectrumResult(sort_by_modulus(np.linalg.eigvals(full_mat)))
        assert stability_report(truncated, full, 100) < 1e-9


def test_criterion_12_wigner_properties():
    with _verdict(12, "Wigner realness, normalization, cat morphology"):
        g = TorusGeometry(32)
        rho = density_from_pure(cat_state(g, (0.4, 0.25), (0.6, 0.75)))
        w = wigner_function(rho)

        # realness and agreement with the point-operator definition, all 4096 points
        worst_imag = 0.0
        worst_dev = 0.0
        for jq in range(64):
            for jp in range(64):
                direct = np.trace(rho @ wigner_point_operator(g, jq, jp))
                worst_imag = max(worst_imag, abs(direct.imag))
                worst_dev = max(worst_dev, abs(direct.real - w[jq, jp]))
        assert worst_imag < 1e-12, worst_imag
        assert worst_dev < 1e-12, worst_dev

        # normalization on the full grid and on the integer subgrid
        assert abs(w.sum() - 1.0) < 1e-10
        assert abs(w[::2, ::2].sum() - 1.0) < 1e-10

        # morphology: blobs at the configured centers, fringes at the midpoint
        blob1 = w[23:30, 13:20]
        blob2 = w[35:42, 45:52]
        assert np.unravel_index(np.argmax(blob1), blob1.shape) == (3, 3)  # (26, 16)
        assert np.unravel_index(np.argmax(blob2), blob2.shape) == (3, 3)  # (38, 48)
        blob_height = w[26, 16]
        assert blob_height > 0
        assert abs(w[38, 48] - blob_height) < 1e-12
        mid = w[29:36, 29:36]
        assert mid.max() > 1.5 * blob_height  # constructive fringe beats the blobs
        assert mid.min() < -0.5 * blob_height  # and swings negative
