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
from chordnoise import spectral
from chordnoise.spectral import _WINDOW_BYTES_BUDGET, SpectrumResult, TruncatedPropagator, _bilinear_entries, _matvec, _window
from chordnoise.oracles import ORACLE_N_CAP, chord_supermatrix

CAT = LinearMapSpec(1, 1, 1, 2)
MAPS = [LinearMapSpec(*e) for e in itertools.product(range(-3, 4), repeat=4) if e[0] * e[3] - e[1] * e[2] == 1]


def _standard_setup(n=100, sigma=0.063, k=0.02):
    g = TorusGeometry(n)
    u = quantize_linear_map(g, CAT) @ nonlinear_kick(g, k)
    return g, u, make_gaussian(g, sigma)


def _kicked_u(g, k):
    """U_M K for the cat map, formed elementwise: parity symmetric bit for bit.

    U_M @ K is too on some BLAS builds and N, not all: OpenBLAS leaves ~1e-17
    asymmetry at N = 2 mod 4, and such a u takes the complex path.
    """
    return quantize_linear_map(g, CAT) * np.diag(nonlinear_kick(g, k))


def _row_ordered_matvec(tp, x):
    """tp.matrix @ x with each row's terms added from 0 in p order, over the one q its nonzeros share."""
    k = round(tp.dim**0.5)
    mat = tp.matrix.reshape(tp.dim, k, k)  # [row, q, p]
    nonzero_qs = np.count_nonzero(mat, axis=2)
    assert (nonzero_qs > 0).sum(axis=1).max() <= 1
    q = nonzero_qs.argmax(axis=1)
    terms, xs = mat[np.arange(tp.dim), q], x.reshape(k, k)[q]  # [row, p]
    out = np.zeros(tp.dim, dtype=np.result_type(terms, x))
    for p in range(k):
        out += terms[:, p] * xs[:, p]
    return out


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


@pytest.mark.parametrize("sigma, a_coeff, covering", [(1e-310, 2.0, 1e-300), (0.14, 1.7e308, 9.5)])
def test_window_ratio_past_the_float_range_covers_the_grid(sigma, a_coeff, covering):
    # a/(2 pi sigma) is inf for both, past int's range; the window is the one
    # a finite ratio past N/2 = 4 gives, covering the grid
    g = TorusGeometry(8)
    ch = make_gaussian(g, sigma)
    for evolution in (_kicked_u(g, 0.02), KickedMap(CAT, 0.02)):
        tp = build_noisy_propagator(ch, evolution, a_coeff)
        assert tp.dim == 64
        assert np.array_equal(tp.matrix, build_noisy_propagator(ch, evolution, covering).matrix)


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
            # the blocks rest on this: the in-window terms land on distinct rows, none outside
            rows, groups, values = tp.blocks
            assert len(np.unique(rows)) == len(rows) and rows.max() < 36 and groups.max() < 6, (m, k)
            assert values.shape == (6, len(rows)), (m, k)
    assert accepted == 69


def test_kicked_window_is_real():
    # the even kick makes every window entry real and the Gaussian's Sigma is
    # real, so the window is float64, from a KickedMap or from a parity-symmetric
    # dense u; a Haar unitary is not parity symmetric and keeps a complex window
    g, _, ch = _standard_setup()
    tp = build_noisy_propagator(ch, KickedMap(CAT, 0.02), 2.8)
    dense = build_noisy_propagator(ch, _kicked_u(g, 0.02), 2.8)
    assert tp.matrix.dtype == np.float64 and dense.matrix.dtype == np.float64
    assert np.abs(tp.matrix - dense.matrix).max() < 2e-15
    z = np.random.default_rng(11).standard_normal((2, 100, 100))
    q, r = np.linalg.qr(z[0] + 1j * z[1])
    haar = q * (np.diag(r) / np.abs(np.diag(r)))
    assert build_noisy_propagator(ch, haar, 2.8).matrix.dtype == np.complex128


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
    # the budget prices what a build holds. A kicked window holds at most k^3 complex values and
    # two int32 labels per term: W = 328 at N = 1000 (k = 656, dim 430,336) needs 4.5 GB.
    # A dense-u window holds its dense complex matrix: the dim-16,900 window covering N = 130 needs 4.6 GB.
    ch = make_gaussian(TorusGeometry(1000), 0.063)
    small = make_gaussian(TorusGeometry(130), 0.1)
    u = translation_operator(small.geometry, (1, 0))
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match=r"dim-430336 window needs 4,520,249,344 bytes as its in-window terms"):
            build_noisy_propagator(ch, KickedMap(CAT, 0.02), 130.0)
        with pytest.raises(ValueError, match=r"dim-16900 window needs 4,569,760,000 bytes as a dense complex matrix"):
            build_noisy_propagator(small, u, 50.0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1e6
    # the largest windows inside the budget still pass the check
    assert (4 * 64**2) ** 2 * 16 <= _WINDOW_BYTES_BUDGET < (4 * 65**2) ** 2 * 16
    assert 644**3 * 16 + 8 * 644**2 <= _WINDOW_BYTES_BUDGET < 646**3 * 16 + 8 * 646**2


def test_wide_kicked_window_builds_and_solves():
    # N=1000, sigma=0.005, a=2.8: W = 89, dim 31,684, once refused as a 16 GB dense matrix (FOUND 61).
    # Its terms hold 23 MB; the channel and the build peak at ~61 MB, the top 6 solve at ~93 MB
    tracemalloc.start()
    try:
        tp = build_noisy_propagator(make_gaussian(TorusGeometry(1000), 0.005), KickedMap(CAT, 0.2), 2.8)
        build_peak = tracemalloc.get_traced_memory()[1]
        top = leading_spectrum(tp, 6).eigenvalues
    finally:
        tracemalloc.stop()
    assert tp.dim == 31684 and build_peak < 120e6
    assert_allclose(np.abs(top[:4]), [1.0, 0.09623, 0.09134, 0.03777], atol=5e-6)


def test_krylov_basis_stays_inside_the_budget(monkeypatch):
    # the basis, m x dim in the window's dtype, is priced like a window: m stops growing before it passes
    a = np.diag(np.linspace(1.0, 0.0, 400))
    monkeypatch.setattr(spectral, "_WINDOW_BYTES_BUDGET", 12 * 400 * 8)
    vals, m, checks, _, reason = spectral._arnoldi_top(a.__matmul__, 400, a.dtype, 5)
    assert vals is None and (m, checks) == (11, 1)  # checked at 11; 11 + 3 rows would pass
    assert reason == "Krylov dimension 14 would pass the 38,400-byte budget with a 44,800-byte basis"


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
    # N = 100, sigma = 0.04, a = 4.8: W = 19 (k = 38, dim 1,444). Besides the window the entries
    # hold the padded conj(u), the product buffer, F, conj(F) and a block and its mirror, ~0.9 MB;
    # staging rows q' and -q', 2 k^3 complex entries, would add 1.76 MB
    g = TorusGeometry(100)
    u = _kicked_u(g, 0.2)
    offs, sigma = _window(make_gaussian(g, 0.04), 4.8, False)
    tracemalloc.start()
    try:
        blocks, _ = _bilinear_entries(u, offs, sigma)
        beyond_window = tracemalloc.get_traced_memory()[1] - blocks.nbytes
    finally:
        tracemalloc.stop()
    assert blocks.shape == (38,) * 4 and blocks.dtype == np.float64
    assert beyond_window < 1.0e6


def test_build_logs_its_branch_and_blocks(caplog):
    # k = 10 kept offsets per axis: 19 blocks touch the edge q = -5 and are
    # computed, the other 81 pair up by (q', q) <-> (-q', -q) around (0, 0);
    # the dtype is float64 for the parity-symmetric u, complex128 for a translation;
    # a dense window stores dim^2 entries, the kicked one 500 of its 10,000
    g, _, ch = _standard_setup()
    odd = make_gaussian(TorusGeometry(9), 0.2)
    caplog.set_level(logging.DEBUG, logger="chordnoise.spectral")
    build_noisy_propagator(ch, _kicked_u(g, 0.02), 2.0)
    build_noisy_propagator(ch, KickedMap(CAT, 0.02), 2.0)
    build_noisy_propagator(odd, translation_operator(odd.geometry, (1, 0)), 6.5)  # covers the grid, no edge
    records = _records(caplog)
    assert len(records) == 3
    dense, kicked, covering = records
    assert dense.items() >= {"branch": "dense", "dim": "100", "dtype": "float64", "blocks_computed": "60", "blocks_mirrored": "40"}.items()
    assert kicked.items() >= {"branch": "kicked", "dim": "100", "dtype": "float64", "blocks_computed": "100", "blocks_mirrored": "0"}.items()
    assert covering.items() >= {"branch": "dense", "dim": "81", "dtype": "complex128", "blocks_computed": "41", "blocks_mirrored": "40"}.items()
    assert (dense["entries"], kicked["entries"], covering["entries"]) == ("10000", "500", "6561")
    assert all(float(r["seconds"]) >= 0 for r in records)


def test_kicked_window_is_stored_as_its_blocks():
    # N=100, sigma=0.063, a=9.2: W = 23, dim 2,116, whose dense float64 matrix takes 35.8 MB;
    # the build stores 48,668 entries in its blocks and the Krylov solve multiplies by them
    _, _, ch = _standard_setup()
    tracemalloc.start()
    try:
        tp = build_noisy_propagator(ch, KickedMap(CAT, 0.02), 9.2)
        build_peak = tracemalloc.get_traced_memory()[1]
        leading_spectrum(tp, 20)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert tp.dim == 2116
    assert peak < 0.5 * tp.dim**2 * 8
    # the fill's tables are k x k and k x 2N, so the build holds little beyond the blocks (2.8x),
    # which are the 1,058 in-window terms: 0.40 MB
    held = sum(x.nbytes for x in tp.blocks)
    assert build_peak < 5 * held and held <= 0.41e6
    rows, groups, values = tp.blocks
    assert values.shape == (46, 1058) and values.size == 48668 and values.dtype == tp.dtype == np.float64
    assert rows.dtype == groups.dtype == np.int32 and rows.max() < tp.dim and groups.max() < 46
    assert not any(x.flags.writeable for x in tp.blocks)
    assert len(np.unique(rows)) == len(rows)  # each row from one (q, t)
    assert (np.diff(groups) >= 0).all()  # q-major
    mat = tp.matrix
    assert not mat.flags.writeable and tp.matrix is not tp.matrix  # formed on each access, not kept
    window = np.zeros((tp.dim, tp.dim))
    for p in range(46):
        window[rows, 46 * groups + p] = values[p]
    assert np.array_equal(mat, window)


@pytest.mark.parametrize("a_coeff", [2.8, 4.8, 7.0, 9.2])
def test_kicked_window_holds_only_its_in_window_terms(a_coeff):
    # N=100, sigma=0.063, k=0.2, dims 196 to 2,116. A k x k table of int64 rows and all k^3
    # float64 values, zero for each target outside the window, would take 8 k^2 (1 + k) bytes.
    # The cat map keeps half its targets and holds half that; the shear keeps all and holds as much.
    _, _, ch = _standard_setup()
    for m, share in ((CAT, 0.51), (LinearMapSpec(1, 0, 2, 1), 1.0)):
        tp = build_noisy_propagator(ch, KickedMap(m, 0.2), a_coeff)
        k = round(tp.dim**0.5)
        assert sum(x.nbytes for x in tp.blocks) <= share * 8 * k * k * (1 + k), m


@pytest.mark.parametrize("a_coeff", [2.8, 4.8])
def test_kicked_matvec_adds_each_row_in_p_order(a_coeff):
    # the pinned Krylov stops on the paper windows rest on this order of summation (see leading_spectrum)
    _, _, ch = _standard_setup()
    tp = build_noisy_propagator(ch, KickedMap(CAT, 0.02), a_coeff)
    x = np.random.default_rng(5).standard_normal(tp.dim)
    assert tp.dtype == np.float64 and np.array_equal(_matvec(tp)(x), _row_ordered_matvec(tp, x))


def test_complex_kicked_window_solves_through_its_blocks(caplog):
    # the Gaussian's weights rolled one site in q multiply Sigma by a phase, so the
    # kicked window is complex: its blocks' matvec is the matrix's, and so is its spectrum;
    # at k=0.2 the top 3 are well conditioned (at k=0.02 the two solves differ by 3e-11)
    g = TorusGeometry(100)
    gauss = make_gaussian(g, 0.063)
    ch = DiagonalChordChannel(g, gauss.epsilon, np.roll(gauss.weights, 1, axis=0), gauss.sigma)
    tp = build_noisy_propagator(ch, KickedMap(CAT, 0.2), 2.8)
    assert tp.dim == 196 and tp.dtype == np.complex128 and tp.blocks is not None
    caplog.set_level(logging.DEBUG, logger="chordnoise.spectral")
    top = leading_spectrum(tp, 20).eigenvalues[:3]
    assert _records(caplog)[-1]["path"] == "krylov"
    z = np.random.default_rng(5).standard_normal((2, tp.dim))
    x = z[0] + 1j * z[1]
    expected = tp.matrix @ x
    # each row sums its terms in p order, not in the dense product's order
    assert np.abs(_matvec(tp)(x) - expected).max() <= 8 * np.finfo(float).eps * np.abs(expected).max()
    assert np.array_equal(_matvec(tp)(x), _row_ordered_matvec(tp, x))
    dense = sort_by_modulus(np.linalg.eigvals(tp.matrix))[:3]
    assert np.abs(top - dense).max() < 1e-12


def test_propagator_from_blocks():
    kept = np.argwhere(np.ones((2, 2), dtype=bool))
    rows, groups, values = np.array([3, 0, 1]), np.array([0, 0, 1]), np.array([[1.0, 2.0, 4.0], [5.0, 6.0, 8.0]])
    tp = TruncatedPropagator(kept, blocks=(rows, groups, values))
    assert tp.dim == 4 and tp.dtype == np.float64
    assert all(x is y for x, y in zip(tp.blocks, (rows, groups, values)))  # frozen in place, no copy
    assert not any(x.flags.writeable for x in (rows, groups, values))
    # column 2 groups[e] + p holds values[p, e] at row rows[e], and nothing else is stored
    window = np.zeros((4, 4))
    window[[3, 0, 3, 0, 1, 1], [0, 0, 1, 1, 2, 3]] = [1.0, 2.0, 5.0, 6.0, 4.0, 8.0]
    assert np.array_equal(tp.matrix, window) and not tp.matrix.flags.writeable
    assert TruncatedPropagator(kept, np.eye(4)).blocks is None
    assert TruncatedPropagator([[0, 0]], blocks=([0], [0], [[1j]])).matrix.dtype == np.complex128
    assert not TruncatedPropagator(kept, blocks=(np.zeros(0, int), np.zeros(0, int), np.zeros((2, 0)))).matrix.any()  # no term inside
    for bad in (([0, 4, 1], groups, values), ([-1, 0, 1], groups, values), ([0.0, 1.0, 2.0], groups, values),
                (rows, [0, 2, 1], values), (rows, [0, -1, 1], values), (rows, [0.0, 0.0, 1.0], values),
                ([3, 0, 3], groups, values), (rows, groups, values.T), (rows, groups, values[0]),
                (rows[:, None], groups, values), (rows, groups[:2], values), (rows, groups, [["a"] * 3] * 2),
                (rows, values), (rows, groups, values, values)):
        with pytest.raises(ValueError, match=r"\(E,\) rows distinct in \[0, dim\), \(E,\) groups in \[0, k\), \(k, E\) values"):
            TruncatedPropagator(kept, blocks=bad)
    with pytest.raises(ValueError, match=r"dim = k\^2"):
        TruncatedPropagator(kept[:3], blocks=([0], [0], [[1.0]]))
    for matrix, blocks in ((None, None), (np.eye(4), (rows, values))):
        with pytest.raises(ValueError, match="not both or neither"):
            TruncatedPropagator(kept, matrix, blocks=blocks)


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


def test_propagator_reads_lists_and_refuses_bad_shapes():
    # lists once raised AttributeError from setflags
    tp = TruncatedPropagator([[0, 0]], [[1.0]])
    assert tp.dim == 1 and not tp.kept_modes.flags.writeable and not tp.matrix.flags.writeable
    # float labels were once stored as given, and a string matrix failed later in leading_spectrum
    for kept, mat in (([0, 0], [[1.0]]), ([[0, 0, 0]], [[1.0]]), ([[0, 0]], [1.0]), (0, 1.0),
                      ([[0.5, 0.2]], [[1.0]]), ([[0.0, 0.0]], [[1.0]]), ([[0, 0]], [["a"]]), ([[0, 0]], [[None]])):
        with pytest.raises(ValueError, match=r"need \(dim, 2\) and \(dim, dim\)"):
            TruncatedPropagator(kept, mat)
    with pytest.raises(ValueError, match=r"rows distinct in \[0, dim\)"):
        TruncatedPropagator([[0.0, 0.0]], blocks=([0], [0], [[1.0]]))


def test_build_rejects_non_unitary_map():
    _, u, ch = _standard_setup(n=20, sigma=0.3)
    with pytest.raises(ValueError, match="not unitary"):
        build_noisy_propagator(ch, 2 * u, 2.0)
    with pytest.raises(ValueError, match="shape"):
        build_noisy_propagator(ch, u[:, :-1], 2.0)
    with pytest.raises(ValueError, match="numeric dtype"):  # once a TypeError from np.isfinite
        build_noisy_propagator(ch, np.full((20, 20), "a"), 2.0)


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


def test_spectrum_result_takes_a_numeric_vector_only():
    vals = np.array([1.0, 0.5j])
    assert SpectrumResult(vals).eigenvalues is vals and not vals.flags.writeable  # frozen in place, no copy
    listed = SpectrumResult([1.0, 0.5j]).eigenvalues  # once an AttributeError from setflags
    assert np.array_equal(listed, vals) and not listed.flags.writeable
    for bad in (np.eye(2, dtype=complex), np.array(["1", "0.5"])):  # once accepted, and a TypeError
        with pytest.raises(ValueError, match="1-D numeric array"):
            SpectrumResult(bad)


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


def test_dense_u_keeps_a_conjugate_pair_whole():
    # the case above from a dense u, whose complex window once split the pair:
    # 5.3e-2 between the Krylov and dense solves; the window is real now
    g, _, ch = _standard_setup()
    tp = build_noisy_propagator(ch, _kicked_u(g, 1.0), 4.8)
    dense = SpectrumResult(sort_by_modulus(np.linalg.eigvals(tp.matrix)))
    assert tp.matrix.dtype == np.float64
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


def test_dense_path_is_refused_above_its_cap(monkeypatch):
    # N=100, sigma=0.063, a=13.1: W = 33, dim 4,356; asking for every eigenvalue takes the dense path
    _, _, ch = _standard_setup()
    tp = build_noisy_propagator(ch, KickedMap(CAT, 0.02), 13.1)
    assert tp.dim == 4356

    def never(a):
        raise AssertionError("dense eigvals ran")

    monkeypatch.setattr(np.linalg, "eigvals", never)
    with pytest.raises(ValueError, match=r"dim 4356 > 4096.*would pass dim/2.*count=4356"):
        leading_spectrum(tp, tp.dim)


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
