"""Slow reference implementations that the tests hold the fast paths against.

Nothing in the library calls these. Each one rebuilds a result the hard
way: channels as explicit Kraus sums or dense N^2 x N^2 superoperators, the
depolarizing channel from the SU(N) generator basis, the unitary chord
supermatrix in full, and the Wigner phase-point operators one by one. Every
explicit N^2 x N^2 matrix, here or in the spectral module's untruncated
build, is limited by the one size cap ORACLE_N_CAP.
"""

from __future__ import annotations

import numpy as np

from .channels import DiagonalChordChannel
from .phasespace import PhasePoint, TorusGeometry, chord_transform, translation_operator

__all__ = [
    "ORACLE_N_CAP",
    "check_oracle_scale",
    "line_shift",
    "line_spectrum_closed_form",
    "kraus_operators",
    "apply_channel_kraus",
    "channel_superoperator_matrix",
    "unitary_superoperator_matrix",
    "su_n_generator_superoperator",
    "wigner_point_operator",
    "chord_supermatrix",
]

# explicit N^2 x N^2 matrices hold N^4 complex entries; keep them at oracle scale
ORACLE_N_CAP = 16


def check_oracle_scale(n: int, what: str) -> None:
    """Raise when an explicit N^2 x N^2 matrix would exceed the oracle cap."""
    if n > ORACLE_N_CAP:
        raise ValueError(f"{what} is capped at N={ORACLE_N_CAP}, got N={n}")


def line_shift(geom: TorusGeometry, n1: int, n2: int, n3: int) -> PhasePoint:
    """Translation splitting the line channel off its through-origin part.

    The averaging over n1*p = n2*q + n3 equals averaging over the n3 = 0 line
    composed with conjugation by this translation: a momentum shift by
    n3/n1 when n1 is invertible mod N, else a position shift by -n3/n2.
    Raises when neither coefficient is invertible.
    """
    n = geom.n
    try:
        return PhasePoint(0, (n3 * pow(n1, -1, n)) % n)
    except ValueError:
        pass
    try:
        return PhasePoint((-n3 * pow(n2, -1, n)) % n, 0)
    except ValueError:
        raise ValueError(
            f"neither n1={n1} nor n2={n2} is invertible mod {n}; no shift decomposition"
        ) from None


def line_spectrum_closed_form(geom: TorusGeometry, n1: int, n2: int, n3: int, epsilon: float) -> np.ndarray:
    """Closed-form line-channel spectrum, indexed [q, p] like channel_spectrum.

    For n1 invertible: Sigma(q,p) = 1 - eps*(1 - e^{+i(2pi/N) q n3/n1} delta[n2 q = n1 p]);
    for n1 = 0, n2 invertible: Sigma(q,p) = 1 - eps*(1 - e^{+i(2pi/N) p n3/n2} delta[q = 0]).
    Both branches agree chord by chord with the Kraus-derived channel_spectrum.
    """
    n = geom.n
    q = np.arange(n)[:, None]
    p = np.arange(n)[None, :]
    if n1 % n != 0:
        inv = pow(n1, -1, n)
        on = (n2 * q - n1 * p) % n == 0
        phase = np.exp(2j * np.pi * q * ((n3 * inv) % n) / n)
    elif n2 % n != 0:
        inv = pow(n2, -1, n)
        on = q % n == 0
        phase = np.exp(2j * np.pi * p * ((n3 * inv) % n) / n)
    else:
        raise ValueError("closed form needs n1 or n2 nonzero mod N")
    return 1.0 - epsilon * (1.0 - phase * on)


def kraus_operators(ch: DiagonalChordChannel) -> list[np.ndarray]:
    """Explicit Kraus list: sqrt(1-eps) I plus sqrt(eps w/N) T_alpha per active chord."""
    n = ch.geometry.n
    ops = []
    if ch.epsilon < 1.0:
        ops.append(np.sqrt(1.0 - ch.epsilon) * np.eye(n, dtype=complex))
    for q, p in np.argwhere(ch.weights > 0):
        ops.append(
            np.sqrt(ch.epsilon * ch.weights[q, p] / n)
            * translation_operator(ch.geometry, (int(q), int(p)))
        )
    return ops


def apply_channel_kraus(ch: DiagonalChordChannel, rho: np.ndarray) -> np.ndarray:
    """Direct Kraus sum, sum_K K rho K^dag over kraus_operators(ch)."""
    return sum(k @ rho @ k.conj().T for k in kraus_operators(ch))


def channel_superoperator_matrix(ch: DiagonalChordChannel) -> np.ndarray:
    """The channel as the N^2 x N^2 matrix sum_K K (x) conj(K) on row-major vec(rho)."""
    check_oracle_scale(ch.geometry.n, "explicit N^2 x N^2 superoperator")
    return sum(np.kron(k, k.conj()) for k in kraus_operators(ch))


def unitary_superoperator_matrix(u: np.ndarray) -> np.ndarray:
    """Conjugation rho -> U rho U^dag on row-major vec(rho)."""
    check_oracle_scale(u.shape[0], "explicit N^2 x N^2 superoperator")
    return np.kron(u, u.conj())


def su_n_generator_superoperator(geom: TorusGeometry, epsilon: float) -> np.ndarray:
    """Depolarizing channel assembled from the SU(N) generator basis.

    Builds the N^2 - 1 Hermitian generators from skew projectors |j><k|
    (symmetric and antisymmetric pair combinations plus the diagonal traceless
    ladder), normalizes them to the orthonormal set {I/sqrt(N), gamma/sqrt(2)}
    and returns (1-eps) I + (eps/N) sum_mu Q_mu (x) conj(Q_mu) on row-major
    vec(rho). Equality with the uniform-translation form is the identity the
    test suite pins down.
    """
    n = geom.n
    check_oracle_scale(n, "explicit N^2 x N^2 superoperator")
    if not 0.0 <= epsilon <= 1.0:
        raise ValueError(f"epsilon must be in [0, 1], got {epsilon}")

    def proj(i, j):
        m = np.zeros((n, n), dtype=complex)
        m[i, j] = 1.0
        return m

    gens = []
    for j in range(n):
        for k in range(j + 1, n):
            gens.append(proj(j, k) + proj(k, j))
            gens.append(1j * (proj(j, k) - proj(k, j)))
    for l in range(1, n):
        d = np.zeros(n, dtype=complex)
        d[:l] = 1.0
        d[l] = -l
        gens.append(-np.sqrt(2.0 / (l * (l + 1))) * np.diag(d))
    assert len(gens) == n * n - 1

    qs = [np.eye(n, dtype=complex) / np.sqrt(n)] + [g / np.sqrt(2.0) for g in gens]
    s = (1.0 - epsilon) * np.eye(n * n, dtype=complex)
    for qop in qs:
        s += (epsilon / n) * np.kron(qop, qop.conj())
    return s


def wigner_point_operator(geom: TorusGeometry, q: int, p: int) -> np.ndarray:
    """The Hermitian phase-point operator A(q, p) of the states module's 2N grid."""
    n = geom.n
    k = np.arange(n)
    a = np.zeros((n, n), dtype=complex)
    a[(q - k) % n, k] = np.exp(-2j * np.pi * k * p / n)
    return a * np.exp(1j * np.pi * q * p / n) / (2 * n)


def chord_supermatrix(geom: TorusGeometry, u: np.ndarray) -> np.ndarray:
    """Full matrix with entries (1/N) Tr[T_{lam'}^dag U T_lam U^dag], row-major (q*N + p).

    Column lam holds the chord coefficients of U T_lam U^dag, so the matrix
    propagates chord coefficient vectors under conjugation by U. Built
    column by column from the dense U T_lam U^dag and its chord transform.
    """
    n = geom.n
    check_oracle_scale(n, "full supermatrix")
    if u.shape != (n, n):
        raise ValueError(f"unitary shape {u.shape} does not match N={n}")
    mat = np.empty((n * n, n * n), dtype=complex)
    udag = u.conj().T
    for q in range(n):
        for p in range(n):
            v = u @ translation_operator(geom, (q, p)) @ udag
            mat[:, q * n + p] = chord_transform(v, geom).ravel() / np.sqrt(n)
    return mat
