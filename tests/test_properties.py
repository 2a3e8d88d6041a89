"""Property tests over random inputs, N <= 12: the Wigner identities, the
chord round trip, channels from random weight tables against their Kraus
sums, the windowed propagator against the full supermatrix, and its
covariance build for kicked maps against the dense build; and, for N <= 64,
the quantized maps that the parity rule accepts."""

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from chordnoise import (
    DiagonalChordChannel,
    KickedMap,
    LinearMapSpec,
    TorusGeometry,
    apply_channel,
    build_noisy_propagator,
    channel_spectrum,
    chord_inverse,
    chord_transform,
    nonlinear_kick,
    quantize_linear_map,
    translation_operator,
    wigner_function,
    wigner_overlap,
)
from chordnoise.oracles import apply_channel_kraus, chord_supermatrix

SMALL = settings(max_examples=30, deadline=None)
_ENTRY = st.floats(-1.0, 1.0, allow_nan=False)


@st.composite
def complex_matrices(draw, n):
    parts = draw(arrays(np.float64, (2, n, n), elements=_ENTRY))
    return parts[0] + 1j * parts[1]


@st.composite
def density_pairs(draw):
    """Two density matrices h h^dag / Tr on the same torus."""
    n = draw(st.integers(2, 12))
    pair = []
    for _ in range(2):
        h = draw(complex_matrices(n))
        rho = h @ h.conj().T
        tr = np.trace(rho).real
        assume(tr > 1e-3)
        pair.append(rho / tr)
    return pair


@SMALL
@given(density_pairs())
def test_wigner_sums_to_trace(pair):
    rho = pair[0]
    assert abs(wigner_function(rho).sum() - np.trace(rho).real) < 1e-12


@SMALL
@given(density_pairs())
def test_wigner_overlap_is_hs_inner(pair):
    r1, r2 = pair
    w1, w2 = wigner_function(r1), wigner_function(r2)
    n = r1.shape[0]
    assert abs(n * np.sum(w1 * w2) - np.trace(r1 @ r2).real) < 1e-12
    assert wigner_overlap(w1, w2) == n * float(np.sum(w1 * w2))


@SMALL
@given(st.integers(2, 12).flatmap(complex_matrices))
def test_chord_round_trip(a):
    geom = TorusGeometry(a.shape[0])
    assert np.abs(chord_inverse(chord_transform(a, geom)) - a).max() < 1e-12


@SMALL
@given(st.integers(2, 12).flatmap(complex_matrices))
def test_supermatrix_mirror_identity(u):
    # T_(-lam) = T_lam^dag on unreduced labels, so for any u, unitary or not,
    # S[m(lam'), m(lam)] = s(lam') s(lam) conj S[lam', lam] with m(lam) = (-lam) mod N
    # and s(q, p) the sign of reducing (-q, -p) into [0, N)
    n = u.shape[0]
    q, p = np.divmod(np.arange(n * n), n)
    mirror = (-q % n) * n + (-p % n)
    sign = (-1.0) ** (p * (q > 0) + q * (p > 0) + n * (q > 0) * (p > 0))
    s = chord_supermatrix(TorusGeometry(n), u)
    assert np.abs(s[np.ix_(mirror, mirror)] - np.outer(sign, sign) * s.conj()).max() < 1e-12


@st.composite
def channels_and_operators(draw):
    """A channel from a random weight table (zeros included) with eps in [0, 1], and an operator."""
    n = draw(st.integers(2, 12))
    w = draw(arrays(np.float64, (n, n), elements=st.floats(0.0, 1.0)))
    assume(w.sum() > 1e-3)
    ch = DiagonalChordChannel(TorusGeometry(n), draw(st.floats(0.0, 1.0)), w * n / w.sum())
    return ch, draw(complex_matrices(n))


@settings(max_examples=100, deadline=None)
@given(channels_and_operators())
def test_channel_is_its_kraus_sum_and_unital(case):
    ch, a = case
    n = ch.geometry.n
    out = apply_channel(ch, a)
    assert np.abs(out - apply_channel_kraus(ch, a)).max() < 1e-12
    assert abs(np.trace(out) - np.trace(a)) < 1e-12
    assert np.abs(apply_channel(ch, np.eye(n)) - np.eye(n)).max() < 1e-12


SIGMA = 0.1
BUILDS = settings(max_examples=100, deadline=None)


@st.composite
def windowed_maps(draw):
    """A random unitary and random-weight channel declaring SIGMA, with half-widths w1 <= w2.

    w2 runs up to (N+1)//2, where the window covers the whole grid.
    """
    n = draw(st.integers(3, 12))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    u, _ = np.linalg.qr(rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n)))
    w = rng.random((n, n))
    ch = DiagonalChordChannel(TorusGeometry(n), float(rng.uniform()), w * n / w.sum(), sigma=SIGMA)
    w2 = draw(st.integers(1, (n + 1) // 2))
    return ch, u, draw(st.integers(1, w2)), w2


def _build(ch, u, half_width):
    return build_noisy_propagator(ch, u, (half_width + 0.5) * 2 * np.pi * SIGMA)


@BUILDS
@given(windowed_maps())
def test_window_is_sigma_times_supermatrix(case):
    ch, u, _, w2 = case
    tp = _build(ch, u, w2)
    n = ch.geometry.n
    assert tp.dim == min(4 * w2**2, n * n)
    full = channel_spectrum(ch).values.ravel()[:, None] * chord_supermatrix(ch.geometry, u)
    idx = tp.kept_modes[:, 0] * n + tp.kept_modes[:, 1]
    assert np.abs(tp.matrix - full[np.ix_(idx, idx)]).max() < 1e-13


@BUILDS
@given(windowed_maps())
def test_smaller_window_is_submatrix(case):
    ch, u, w1, w2 = case
    small, large = _build(ch, u, w1), _build(ch, u, w2)
    pos = {mode: i for i, mode in enumerate(map(tuple, large.kept_modes.tolist()))}
    idx = [pos[mode] for mode in map(tuple, small.kept_modes.tolist())]
    assert np.abs(small.matrix - large.matrix[np.ix_(idx, idx)]).max() < 1e-13


@st.composite
def accepted_maps(draw, max_n=64):
    """N in 2..max_n and a map quantize_linear_map accepts: |b| = 1 with a*N, d*N even, or a shear with c*N even."""
    n = draw(st.integers(2, max_n))
    step = 1 if n % 2 == 0 else 2
    if draw(st.booleans()):
        b = draw(st.sampled_from([1, -1]))
        a, d = (step * draw(st.integers(-3, 3)) for _ in range(2))
        m = LinearMapSpec(a, b, (a * d - 1) * b, d)
    else:
        m = LinearMapSpec(1, 0, step * draw(st.integers(-3, 3)), 1)
    labels = st.tuples(st.integers(-n, 2 * n), st.integers(-n, 2 * n))
    return TorusGeometry(n), m, draw(st.lists(labels, min_size=3, max_size=3))


@settings(max_examples=50, deadline=None)
@given(accepted_maps())
def test_accepted_maps_are_unitary_and_covariant(case):
    g, m, alphas = case
    u = quantize_linear_map(g, m)
    assert np.abs(u @ u.conj().T - np.eye(g.n)).max() <= 1e-12
    for alpha in alphas:
        lhs = u @ translation_operator(g, alpha) @ u.conj().T
        target = translation_operator(g, m.apply(alpha, g.n))
        phase = np.vdot(target, lhs) / g.n
        assert np.abs(lhs - phase * target).max() < 1e-10


@st.composite
def kicked_windows(draw):
    """An accepted map at N in 2..12, a kick in [-3, 3], a random-weight channel declaring SIGMA and a half-width."""
    g, m, _ = draw(accepted_maps(max_n=12))
    n = g.n
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    w = rng.random((n, n))
    ch = DiagonalChordChannel(g, float(rng.uniform()), w * n / w.sum(), sigma=SIGMA)
    kick = draw(st.floats(-3.0, 3.0, allow_nan=False))
    return ch, m, kick, draw(st.integers(1, (n + 1) // 2))


@BUILDS
@given(kicked_windows())
def test_kicked_map_window_is_the_dense_window(case):
    ch, m, kick, half_width = case
    g = ch.geometry
    dense = _build(ch, quantize_linear_map(g, m) @ nonlinear_kick(g, kick), half_width)
    tp = _build(ch, KickedMap(m, kick), half_width)
    assert np.array_equal(tp.kept_modes, dense.kept_modes)
    assert np.abs(tp.matrix - dense.matrix).max() < 1e-12
