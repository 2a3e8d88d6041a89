"""Property tests: the Wigner identities and the chord round trip over random inputs, N <= 12."""

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from chordnoise import TorusGeometry, chord_inverse, chord_transform, wigner_function, wigner_overlap

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
