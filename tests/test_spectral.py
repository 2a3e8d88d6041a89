"""Window construction, eigenvalue ordering and spectral stability."""

import itertools
import logging
import tracemalloc
import warnings

import numpy as np
import pytest
from numpy.testing import assert_allclose

from chordnoise import (
    DiagonalChordChannel,
    KickedMap,
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
from chordnoise.spectral import _WINDOW_BYTES_BUDGET, SpectrumResult, TruncatedPropagator, _bilinear_entries
from chordnoise.oracles import ORACLE_N_CAP, chord_supermatrix

CAT = LinearMapSpec(1, 1, 1, 2)
MAPS = [LinearMapSpec(*e) for e in itertools.product(range(-3, 4), repeat=4) if e[0] * e[3] - e[1] * e[2] == 1]


def _standard_setup(n=100, sigma=0.063, k=0.02):
    g = TorusGeometry(n)
    u = quantize_linear_map(g, CAT) @ nonlinear_kick(g, k)
    return g, u, make_gaussian(g, sigma)


def _records(caplog):
    """The key=value fields of each chordnoise.spectral record, its free text after 'reason: ' as 'reason'."""
    out = []
    for r in caplog.records:
        if r.name == "chordnoise.spectral":
            head, _, reason = r.getMessage().partition(" reason: ")
            fields = dict(tok.split("=", 1) for tok in head.split() if "=" in tok)
            out.append(fields | ({"reason": reason} if reason else {}))
    return out


def test_window_dimensions():
    _, u, ch = _standard_setup()
    dims = {a: build_noisy_propagator(ch, u, a).dim for a in (2.0, 2.8, 4.8)}
    assert dims == {2.0: 100, 2.8: 196, 4.8: 576}


def test_window_containment():
    _, u, ch = _standard_setup()
    small = build_noisy_propagator(ch, u, 2.0)
    large = build_noisy_propagator(ch, u, 2.8)
    assert set(map(tuple, small.kept_modes.tolist())) < set(map(tuple, large.kept_modes.tolist()))
    assert small.dim < 100**2 and large.dim < 100**2


def test_a_coeff_validation():
    _, u, ch = _standard_setup(n=20, sigma=0.3)
    with pytest.raises(ValueError, match="positive"):
        build_noisy_propagator(ch, u, 0.0)
    with pytest.raises(ValueError, match="keeps no modes"):
        build_noisy_propagator(ch, u, 0.5)  # floor(0.5/(2 pi 0.3)) = 0


def test_window_covering_the_grid_is_clipped_without_warning():
    g, u, ch = _standard_setup(n=10, sigma=0.3)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        tp = build_noisy_propagator(ch, u, 9.5)
    assert tp.dim == 10**2
    centered = np.arange(-5, 5) % 10
    expect = np.stack(np.meshgrid(centered, centered, indexing="ij"), axis=-1).reshape(-1, 2)
    assert np.array_equal(tp.kept_modes, expect)


def test_no_sigma_is_refused():
    g = TorusGeometry(8)
    u = quantize_linear_map(g, CAT)
    with pytest.raises(ValueError, match="sigma"):
        build_noisy_propagator(make_depolarizing(g, 0.3), u, 2.0)


def test_grid_covering_window_above_oracle_cap_builds():
    # W = 9 reaches N/2 at N = 17: the window is clipped to the grid, and the
    # oracle cap has no say in the library build
    n = ORACLE_N_CAP + 1
    ch = make_gaussian(TorusGeometry(n), 0.1)
    u = np.eye(n, dtype=complex)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        tp = build_noisy_propagator(ch, u, 6.0)
    assert tp.dim == n**2


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


@pytest.mark.parametrize("n", [20, 24, 64, 100])
def test_kicked_map_matches_the_dense_build(n):
    # every accepted map with entries in -3..3, four kicks, W = 3 (dim 36)
    g = TorusGeometry(n)
    ch = make_gaussian(g, 0.1)
    accepted = 0
    for m in MAPS:
        try:
            um = quantize_linear_map(g, m)
        except ValueError:
            continue
        accepted += 1
        for k in (0.0, 0.02, 0.3, 1.0):
            dense = build_noisy_propagator(ch, um @ nonlinear_kick(g, k), 2.0)
            tp = build_noisy_propagator(ch, KickedMap(m, k), 2.0)
            assert tp.dim == 36 and np.array_equal(tp.kept_modes, dense.kept_modes)
            assert np.abs(tp.matrix - dense.matrix).max() < 1e-12, (m, k)
    assert accepted == 69


def test_kicked_window_is_real():
    # the even kick makes every KickedMap entry real and the Gaussian's Sigma is
    # real, so the window is float64; the dense-u route keeps a complex window
    g, u, ch = _standard_setup()
    tp = build_noisy_propagator(ch, KickedMap(CAT, 0.02), 2.8)
    dense = build_noisy_propagator(ch, u, 2.8)
    assert tp.matrix.dtype == np.float64 and dense.matrix.dtype == np.complex128
    assert np.abs(tp.matrix - dense.matrix).max() < 1e-12


def test_kicked_map_is_refused_where_quantization_is():
    ch = make_gaussian(TorusGeometry(9), 0.2)
    for m in MAPS:
        try:
            quantize_linear_map(ch.geometry, m)
        except ValueError as exc:
            with pytest.raises(ValueError) as info:
                build_noisy_propagator(ch, KickedMap(m, 0.3), 2.0)
            assert str(info.value) == str(exc)
        else:
            assert build_noisy_propagator(ch, KickedMap(m, 0.3), 2.0).dim == 4


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_kicked_map_validation(bad):
    with pytest.raises(ValueError, match="finite"):
        KickedMap(CAT, bad)
    with pytest.raises(ValueError, match="LinearMapSpec"):
        KickedMap((1, 1, 1, 2), 0.3)
    assert KickedMap(CAT, np.float32(0.5)).kick == 0.5


def test_oversized_window_refused_before_allocating():
    # W = 151 at N = 1000: dim 91,204, whose dense matrix would take 133 GB
    ch = make_gaussian(TorusGeometry(1000), 0.063)
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match=r"dim-91204 window needs 133,090,713,856 bytes"):
            build_noisy_propagator(ch, KickedMap(CAT, 0.02), 60.0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1e6
    # the largest window inside the budget still passes the check
    assert (4 * 64**2) ** 2 * 16 <= _WINDOW_BYTES_BUDGET < (4 * 65**2) ** 2 * 16


def test_dense_build_holds_no_copy_of_u_per_block():
    # N = 256, W = 3 (dim 36). The entries hold conj(u), wrap-padded by 3, and one
    # N x N product buffer besides the window; a per-block copy of u would add a third N x N.
    # The whole build peaks at the channel's N x N spectrum, formed before.
    _, u, ch = _standard_setup(n=256, sigma=0.1, k=0.3)
    offs = np.arange(-3, 3) % 256
    unitary = u.nbytes
    tracemalloc.start()
    try:
        tp = build_noisy_propagator(ch, u, 2.0)
        build_peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.reset_peak()
        blocks, _ = _bilinear_entries(u, offs, np.ones((6, 6)))
        entries_peak = tracemalloc.get_traced_memory()[1] - blocks.nbytes
    finally:
        tracemalloc.stop()
    assert tp.dim == 36
    assert entries_peak < tp.matrix.nbytes + 2.5 * unitary
    assert build_peak < tp.matrix.nbytes + 3.25 * unitary


def test_build_logs_its_branch_and_blocks(caplog):
    # k = 10 kept offsets per axis: 19 blocks touch the edge q = -5 and are
    # computed, the other 81 pair up by (q', q) <-> (-q', -q) around (0, 0)
    _, u, ch = _standard_setup()
    odd = make_gaussian(TorusGeometry(9), 0.2)
    caplog.set_level(logging.DEBUG, logger="chordnoise.spectral")
    build_noisy_propagator(ch, u, 2.0)
    build_noisy_propagator(ch, KickedMap(CAT, 0.02), 2.0)
    build_noisy_propagator(odd, translation_operator(odd.geometry, (1, 0)), 6.5)  # covers the grid, no edge
    records = _records(caplog)
    assert len(records) == 3
    dense, kicked, covering = records
    assert dense.items() >= {"branch": "dense", "dim": "100", "blocks_computed": "60", "blocks_mirrored": "40"}.items()
    assert kicked.items() >= {"branch": "kicked", "dim": "100", "blocks_computed": "100", "blocks_mirrored": "0"}.items()
    assert covering.items() >= {"branch": "dense", "dim": "81", "blocks_computed": "41", "blocks_mirrored": "40"}.items()
    assert all(float(r["seconds"]) >= 0 for r in records)


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


def test_count_must_be_an_integer():
    _, u, ch = _standard_setup(n=20, sigma=0.3)
    tp = build_noisy_propagator(ch, u, 2.0)
    res = leading_spectrum(tp, np.int64(4))
    assert len(res.eigenvalues) == 4
    assert stability_report(res, res, np.int64(4)) == 0.0
    for bad in (2.5, 3.0, "3"):
        with pytest.raises(ValueError, match="count must be an integer"):
            leading_spectrum(tp, bad)
        with pytest.raises(ValueError, match="count must be an integer"):
            stability_report(res, res, bad)


def test_kept_modes_frozen_in_place():
    _, u, ch = _standard_setup(n=20, sigma=0.3)
    tp = build_noisy_propagator(ch, u, 2.0)
    assert not tp.kept_modes.flags.writeable and not tp.matrix.flags.writeable
    with pytest.raises(ValueError, match="read-only"):
        tp.kept_modes[0, 0] = 1
    kept = np.argwhere(np.ones((2, 2), dtype=bool))
    mat = np.eye(4, dtype=complex)
    frozen = TruncatedPropagator(kept, mat)
    assert frozen.kept_modes is kept and frozen.matrix is mat  # no copy


def test_build_rejects_non_unitary_map():
    _, u, ch = _standard_setup(n=20, sigma=0.3)
    with pytest.raises(ValueError, match="not unitary"):
        build_noisy_propagator(ch, 2 * u, 2.0)
    with pytest.raises(ValueError, match="shape"):
        build_noisy_propagator(ch, u[:, :-1], 2.0)


@pytest.mark.parametrize("evolution", [CAT, [[1, 0], [0, 1]], None, (CAT, 0.3)])
def test_build_rejects_an_evolution_of_another_type(evolution):
    # refused before the channel's 1 MB N x N spectrum is formed
    ch = make_gaussian(TorusGeometry(256), 0.1)
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match=r"evolution must be a KickedMap or an N x N array, got \w+"):
            build_noisy_propagator(ch, evolution, 2.0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1e5


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
    # count 10 < dim/4, so Krylov is tried first; on this unitary it falls back to dense
    vals = leading_spectrum(tp, 10).eigenvalues
    assert len(vals) == 10
    assert np.abs(np.abs(vals) - 1.0).max() < 1e-12


def test_noisy_spectrum_is_contractive():
    _, u, ch = _standard_setup()
    res = leading_spectrum(build_noisy_propagator(ch, u, 2.8), 196)
    assert np.abs(res.eigenvalues).max() <= 1 + 1e-10
    assert abs(res.eigenvalues[0] - 1.0) < 1e-10  # identity chord survives


def test_stability_report_basics():
    from chordnoise.spectral import SpectrumResult

    a = SpectrumResult(np.array([1.0 + 0j, 0.5 + 0.1j, -0.3j]))
    same = stability_report(a, a, 3)
    assert same == 0.0
    b = SpectrumResult(np.array([1.0 + 0j, 0.4 + 0.1j, -0.3j]))
    assert stability_report(a, b, 3) == pytest.approx(0.1)
    with pytest.raises(ValueError, match="count"):
        stability_report(a, b, 5)


def test_stability_report_handles_near_degenerate_order():
    from chordnoise.spectral import SpectrumResult

    # two eigenvalues with equal modulus may come out in either order;
    # greedy nearest-unused pairing must not report their separation
    a = SpectrumResult(np.array([np.exp(0.1j), np.exp(2.0j)]))
    b = SpectrumResult(np.array([np.exp(2.0j), np.exp(0.1j)]))
    assert stability_report(a, b, 2) < 1e-15


@pytest.mark.parametrize("bad", [np.nan, np.inf, complex(0.2, np.nan)])
def test_spectrum_result_refuses_non_finite_eigenvalues(bad):
    # a nan used to compare as 0.0 in one order and 0.5 in the other
    good = np.array([1.0, 0.2, 0.5], dtype=complex)
    broken = good.copy()
    broken[1] = bad
    for first, second in ((broken, good), (good, broken)):
        with pytest.raises(ValueError, match="finite"):
            stability_report(SpectrumResult(first.copy()), SpectrumResult(second.copy()), 3)


def test_build_is_deterministic():
    _, u, ch = _standard_setup(n=20, sigma=0.3)
    t1 = build_noisy_propagator(ch, u, 2.0)
    t2 = build_noisy_propagator(ch, u, 2.0)
    assert np.array_equal(t1.matrix, t2.matrix)
    e1 = leading_spectrum(t1, t1.dim).eigenvalues
    e2 = leading_spectrum(t2, t2.dim).eigenvalues
    assert np.array_equal(e1, e2)
    # the Krylov path starts from a fixed-seed vector, so it repeats bit for bit
    _, u, ch = _standard_setup()
    big = [build_noisy_propagator(ch, u, 2.8) for _ in range(2)]
    assert big[0].dim == 196
    e1, e2 = (leading_spectrum(tp, 20).eigenvalues for tp in big)
    assert np.array_equal(e1, e2)


def _narrow_noise_window():
    # sigma=0.04, k=0.2, a=2.8: dim 484
    _, u, ch = _standard_setup(sigma=0.04, k=0.2)
    return build_noisy_propagator(ch, u, 2.8)


def test_krylov_top_matches_dense_eigvals():
    tp = _narrow_noise_window()
    assert tp.dim == 484
    top = leading_spectrum(tp, 20).eigenvalues[:3]
    dense = sort_by_modulus(np.linalg.eigvals(tp.matrix))[:3]
    assert np.abs(top - dense).max() < 1e-12


def test_eigenvalues_are_complex_on_a_real_matrix(caplog):
    # eig and eigvals return float64 when every eigenvalue of a real matrix is real
    caplog.set_level(logging.DEBUG, logger="chordnoise.spectral")
    lam = 0.8 ** np.arange(100)
    tp = TruncatedPropagator(np.argwhere(np.ones((10, 10), dtype=bool)), np.diag(lam))
    for count, path in ((5, "krylov"), (100, "dense")):
        vals = leading_spectrum(tp, count).eigenvalues
        assert _records(caplog)[-1]["path"] == path
        assert vals.dtype == np.complex128
        assert np.abs(vals - lam[:count]).max() < 1e-12


def test_count_that_splits_a_conjugate_pair():
    # at k=1.0, a=4.8 the 20th value is one of a pair -0.0109 -+ 0.0265i; the
    # real window's pairs are exactly conjugate with equal moduli, so the Krylov
    # and dense solves keep the same member
    _, _, ch = _standard_setup()
    tp = build_noisy_propagator(ch, KickedMap(CAT, 1.0), 4.8)
    dense = SpectrumResult(sort_by_modulus(np.linalg.eigvals(tp.matrix)))
    assert stability_report(leading_spectrum(tp, 20), dense, 20) <= 1e-12


def _normal_propagator(lam, seed=7):
    # Q diag(lam) Q^dag with Q a random unitary: every eigenvalue has condition number 1
    rng = np.random.default_rng(seed)
    dim = len(lam)
    q, _ = np.linalg.qr(rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim)))
    kept = np.argwhere(np.ones((10, 10), dtype=bool))[:dim]
    return TruncatedPropagator(kept, (q * lam) @ q.conj().T)


def test_krylov_recovers_known_spectrum(caplog):
    caplog.set_level(logging.DEBUG, logger="chordnoise.spectral")
    phases = np.exp(2j * np.pi * np.random.default_rng(3).uniform(size=100))
    lam = 0.9 ** np.arange(100) * phases  # distinct moduli
    vals = leading_spectrum(_normal_propagator(lam), 12).eigenvalues
    assert np.abs(vals - lam[:12]).max() < 1e-10
    assert _records(caplog)[-1]["path"] == "krylov"


def test_repeated_eigenvalues_keep_their_multiplicity(caplog):
    # one start vector sees one copy of each repeated eigenvalue: with two
    # distinct values the Krylov space turns invariant at step 2, with ten
    # the top values never pass the test; the dense solver answers both
    caplog.set_level(logging.DEBUG, logger="chordnoise.spectral")
    lam = np.repeat([1.0, 0.5], 50)
    vals = leading_spectrum(_normal_propagator(lam), 3).eigenvalues
    assert np.abs(vals - 1.0).max() < 1e-10
    record = _records(caplog)[-1]
    assert record["path"] == "dense" and record["krylov_dim"] == "2"
    assert "invariant at step 2" in record["reason"]
    lam = np.repeat(0.8 ** np.arange(10), 10)
    vals = leading_spectrum(_normal_propagator(lam), 12).eigenvalues
    assert np.abs(vals - lam[:12]).max() < 1e-10
    # m = 25, 32, 40, 50 are checked, then ceil(50/4) more steps would pass dim/2
    record = _records(caplog)[-1]
    assert record.items() >= {"path": "dense", "krylov_dim": "50", "checks": "4"}.items()
    assert record["reason"] == "Krylov dimension 63 would pass dim/2"


def test_leading_spectrum_logs_its_path(caplog):
    tp = _narrow_noise_window()
    caplog.set_level(logging.DEBUG, logger="chordnoise.spectral")
    leading_spectrum(tp, 20)
    leading_spectrum(tp, tp.dim)
    records = _records(caplog)
    assert len(records) == 2
    krylov, dense = records
    assert krylov.items() >= {"dim": "484", "count": "20", "path": "krylov", "krylov_dim": "52"}.items()
    assert float(krylov["max_rel_residual"]) <= np.finfo(float).eps
    assert "reason" not in krylov
    assert dense.items() >= {"count": "484", "path": "dense", "checks": "0"}.items()
    assert dense["reason"] == "Krylov dimension 969 would pass dim/2"


def test_paper_window_passes_at_the_first_check(caplog):
    # the a=2.8 paper window (N=100, sigma=0.063, k=0.02, dim 196) passes at ARPACK's ncv
    _, _, ch = _standard_setup()
    tp = build_noisy_propagator(ch, KickedMap(CAT, 0.02), 2.8)
    caplog.set_level(logging.DEBUG, logger="chordnoise.spectral")
    leading_spectrum(tp, 20)
    assert _records(caplog)[-1].items() >= {"dim": "196", "path": "krylov", "krylov_dim": "41", "checks": "1"}.items()


@pytest.mark.parametrize("kicked", [False, True], ids=["dense-u", "kicked"])
def test_krylov_space_grows_by_a_quarter(caplog, kicked):
    # sigma=0.04, k=0.2, a=2.8 (dim 484): the top 20 fail at m = 41 and pass at
    # m = 41 + ceil(41/4) = 52, where doubling built m = 82
    _, u, ch = _standard_setup(sigma=0.04, k=0.2)
    tp = build_noisy_propagator(ch, KickedMap(CAT, 0.2) if kicked else u, 2.8)
    caplog.set_level(logging.DEBUG, logger="chordnoise.spectral")
    spec = leading_spectrum(tp, 20)
    assert _records(caplog)[-1].items() >= {"path": "krylov", "krylov_dim": "52", "checks": "2"}.items()
    dense = SpectrumResult(sort_by_modulus(np.linalg.eigvals(tp.matrix)))
    assert stability_report(spec, dense, 3) <= 1e-12
    assert stability_report(spec, dense, 20) <= 1e-6
