"""Pure states on the torus and the discrete Wigner function.

Coherent states are periodized circular Gaussians in the scaled coordinates
(q/N, p/N) on the unit torus. The Wigner function follows the finite-grid
convention with dimension extended to 2N: point operators

    A(q, p) = (1/2N) * exp(i*pi*q*p/N) * U^q R V^(-p),  q, p = 0..2N-1,

where U shifts position by one, V boosts momentum by one and R is parity.
Traces against these give a real 2N x 2N table for Hermitian input whose sum
over the full grid equals Tr(rho). Half of the grid points carry the
interference between periodic images; on even-N tori the even-even subgrid
alone also sums to Tr(rho).
"""

from __future__ import annotations

import numpy as np

from .phasespace import TorusGeometry, _real

__all__ = [
    "coherent_state",
    "cat_state",
    "density_from_pure",
    "wigner_function",
    "wigner_overlap",
]

# images |m| <= 3 give double-precision periodization for N >= 8
_M_MAX = 3


def coherent_state(geom: TorusGeometry, q0: float, p0: float) -> np.ndarray:
    """Normalized Gaussian wavepacket centered at (q0, p0) on the unit torus.

    Centers are reduced mod 1 before the images are summed, so any finite
    real center works and centers in [0, 1) are used as given.
    """
    q0, p0 = _real(q0, "packet center q0"), _real(p0, "packet center p0")
    if not np.isfinite([q0, p0]).all():
        raise ValueError(f"packet center must be finite, got ({q0}, {p0})")
    q0, p0 = q0 % 1.0, p0 % 1.0
    n = geom.n
    x = np.arange(n) / n
    amp = np.zeros(n, dtype=complex)
    for m in range(-_M_MAX, _M_MAX + 1):
        amp += np.exp(-np.pi * n * (x - q0 + m) ** 2 + 2j * np.pi * n * p0 * (x + m))
    return amp / np.linalg.norm(amp)


def cat_state(geom: TorusGeometry, c1, c2) -> np.ndarray:
    """Equal-weight superposition of two coherent states, relative phase 0; c1 and c2 are (q0, p0) pairs."""
    for c in (c1, c2):
        if np.shape(c) != (2,):
            raise ValueError(f"packet center must be a pair (q0, p0), got {c!r}")
    psi = coherent_state(geom, *c1) + coherent_state(geom, *c2)
    return psi / np.linalg.norm(psi)


def density_from_pure(psi: np.ndarray) -> np.ndarray:
    """Rank-one projector |psi><psi| from a normalized 1-D state vector."""
    if np.ndim(psi) != 1:
        raise ValueError(f"state vector must be 1-D, got shape {np.shape(psi)}")
    nrm = np.linalg.norm(psi)
    if not abs(nrm - 1.0) <= 1e-10:
        raise ValueError(f"state vector not normalized: |psi| = {nrm}")
    return np.outer(psi, psi.conj())


def wigner_function(rho: np.ndarray) -> np.ndarray:
    """Read-only Wigner table W[q, p] = Tr(rho A(q, p)) over the full 2N x 2N grid.

    Computed with one FFT per anti-diagonal of rho:
    Tr(rho U^q R V^(-p)) = sum_k rho[k, (q-k) mod N] exp(-2*pi*i*k*p/N),
    which depends on (q, p) only mod N; the half-integer structure enters
    through the prefactor exp(i*pi*q*p/N). Raises on non-Hermitian or
    non-finite input, for which the trace is not a real number.
    """
    n = rho.shape[0]
    if rho.shape != (n, n):
        raise ValueError(f"density matrix must be square, got {rho.shape}")
    TorusGeometry(n)  # rejects N < 2
    if not (np.isfinite(rho).all() and np.abs(rho - rho.conj().T).max() <= 1e-9):
        raise ValueError("input is not a finite Hermitian matrix; Wigner values would not be real")
    m = np.arange(n)
    anti = rho[m[None, :], (m[:, None] - m[None, :]) % n]
    f = np.fft.fft(anti, axis=1)
    qq = np.arange(2 * n)[:, None]
    pp = np.arange(2 * n)[None, :]
    w = np.exp(1j * np.pi * qq * pp / n) * f[qq % n, pp % n] / (2 * n)
    w = np.ascontiguousarray(w.real)
    w.setflags(write=False)
    return w


def wigner_overlap(w1: np.ndarray, w2: np.ndarray) -> float:
    """Tr(rho1 rho2) recovered from the two Wigner tables.

    With the 1/2N point-operator normalization the full-grid product
    satisfies N * sum_x W1(x) W2(x) = Tr(rho1 rho2); the constant N is pinned
    by a test against Tr(rho1 rho2) taken on the density matrices. Both
    tables must be (2N, 2N) with N >= 2, as wigner_function returns them.
    """
    if w1.shape != w2.shape:
        raise ValueError(f"Wigner grids of shapes {w1.shape} and {w2.shape} live on different tori")
    side = w1.shape[0] if w1.ndim == 2 else 0
    if w1.shape != (side, side) or side % 2 or side < 4:
        raise ValueError(f"a Wigner grid is (2N, 2N) with N >= 2, got shape {w1.shape}")
    return side // 2 * float(np.sum(w1 * w2))
