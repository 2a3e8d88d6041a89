"""Pure states on the torus and the discrete Wigner function.

Coherent states are periodized circular Gaussians in the scaled coordinates
(q/N, p/N) on the unit torus. The Wigner function follows the finite-grid
convention with dimension extended to 2N: point operators

    A(q, p) = (1/2N) * exp(i*pi*q*p/N) * U^q R V^(-p),  q, p = 0..2N-1,

where U shifts position by one, V boosts momentum by one and R is parity.
Traces against these give a real 2N x 2N table for Hermitian input whose sum
over the full grid equals Tr(rho). Its N x N block is the chord transform of
rho R, and its quadrants are exact sign copies of the block, with the sign of
reducing the chord label (q + aN, p + bN): W[q + aN, p + bN] =
(-1)^(bq + ap + abN) W[q, p] for q, p < N and a, b in {0, 1}. Half of the
grid points carry the interference between periodic images; on even-N tori
the even-even subgrid alone also sums to Tr(rho).
"""

from __future__ import annotations

import numpy as np

from .phasespace import TorusGeometry, _real, _reduction_sign, _square, chord_transform

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
    q0, p0 = _real(q0, "packet center q0") % 1.0, _real(p0, "packet center p0") % 1.0
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
    psi = np.asarray(psi)
    if psi.ndim != 1:
        raise ValueError(f"state vector must be 1-D, got shape {psi.shape}")
    nrm = np.linalg.norm(psi)
    if not abs(nrm - 1.0) <= 1e-10:
        raise ValueError(f"state vector not normalized: |psi| = {nrm}")
    return np.outer(psi, psi.conj())


def wigner_function(rho: np.ndarray) -> np.ndarray:
    """Read-only Wigner table W[q, p] = Tr(rho A(q, p)) over the full 2N x 2N grid.

    The N x N block is the chord transform of rho R:
    sum_m (rho R)[m+q, m] e^{-2*pi*i*p*m/N} = e^{2*pi*i*p*q/N} *
    sum_k rho[k, (q-k) mod N] e^{-2*pi*i*k*p/N} turns the chord phase
    exp(-i*pi*p*q/N) into the prefactor exp(i*pi*q*p/N). Each quadrant is
    the block times the label-reduction sign (phasespace._reduction_sign),
    bit for bit. Raises on non-numeric, non-Hermitian or non-finite input.
    """
    rho, n = _square(rho, "density matrix")  # rejects N < 2
    if not (np.isfinite(rho).all() and np.abs(rho - rho.conj().T).max() <= 1e-9):
        raise ValueError("input is not a finite Hermitian matrix; Wigner values would not be real")
    block = chord_transform(rho[:, -np.arange(n) % n], TorusGeometry(n)).real / (2 * np.sqrt(n))
    j = np.arange(2 * n, dtype=np.int32)
    w = np.tile(block, (2, 2))
    w *= _reduction_sign(j[:, None], j, n)
    w.setflags(write=False)
    return w


def wigner_overlap(w1: np.ndarray, w2: np.ndarray) -> float:
    """Tr(rho1 rho2) recovered from the two Wigner tables.

    With the 1/2N point-operator normalization the full-grid product
    satisfies N * sum_x W1(x) W2(x) = Tr(rho1 rho2); the constant N is pinned
    by a test against Tr(rho1 rho2) taken on the density matrices. Both
    must be real (2N, 2N) tables, N >= 2, as wigner_function returns;
    each is read with np.asarray, so nested lists work.
    """
    w1, w2 = np.asarray(w1), np.asarray(w2)
    if w1.shape != w2.shape:
        raise ValueError(f"Wigner grids of shapes {w1.shape} and {w2.shape} live on different tori")
    side = w1.shape[0] if w1.ndim == 2 else 0
    if w1.shape != (side, side) or side % 2 or side < 4 or not {w1.dtype.kind, w2.dtype.kind} <= set("biuf"):
        raise ValueError(f"a Wigner grid is a real (2N, 2N) table, N >= 2, got shape {w1.shape}, dtypes {w1.dtype}, {w2.dtype}")
    return side // 2 * float(np.sum(w1 * w2))
