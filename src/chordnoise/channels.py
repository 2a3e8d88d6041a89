"""Noise channels diagonal in the chord basis.

Every channel here has the convex form

    S(rho) = (1 - eps) * rho + (eps/N) * sum_alpha w(alpha) T_alpha rho T_alpha^dag

with nonnegative weights summing to N, so each translation T_lam is an
eigenoperator with eigenvalue

    Sigma(lam) = (1 - eps) + eps * Ctilde(lam),
    Ctilde(lam) = (1/N) sum_alpha w(alpha) exp[+i(2*pi/N) wedge(lam, alpha)].

The sign in the exponent matches the conjugation covariance of the
translations (see phasespace); it is fixed by a regression test. Three weight
families are provided: uniform (depolarizing), uniform on a phase-space line
(phase damping with the line's conjugate direction as pointer basis), and a
Gaussian defined through its spectrum (diffusive noise).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .phasespace import TorusGeometry, chord_transform, chord_inverse

__all__ = [
    "DiagonalChordChannel",
    "ChannelSpectrum",
    "PhaseSpaceLine",
    "make_depolarizing",
    "line_points",
    "make_phase_damping_line",
    "make_gaussian",
    "channel_spectrum",
    "apply_channel",
]


@dataclass(frozen=True)
class DiagonalChordChannel:
    """Convex mix of the identity and a weighted average over translations.

    weights is an (N, N) float table indexed [q, p]; the Kraus weight of
    T_(q,p) in the eps-part is weights[q, p]/N. sigma is set only by the
    Gaussian constructor and marks the channel as truncation-capable.
    """

    geometry: TorusGeometry
    epsilon: float
    weights: np.ndarray
    sigma: float | None = None

    def __post_init__(self):
        n = self.geometry.n
        weights = np.array(self.weights)  # a copy, so the caller's array stays writeable
        weights.setflags(write=False)
        object.__setattr__(self, "weights", weights)
        if not 0.0 <= self.epsilon <= 1.0:
            raise ValueError(f"epsilon must be in [0, 1], got {self.epsilon}")
        if self.weights.shape != (n, n):
            raise ValueError(f"weight table shape {self.weights.shape}, expected {(n, n)}")
        if not np.isfinite(self.weights).all():
            raise ValueError("channel weights must be finite")
        if not self.weights.min() >= -1e-12:
            raise ValueError(f"negative channel weight {self.weights.min()}")
        total = float(self.weights.sum())
        if not abs(total - n) <= 1e-10:
            raise ValueError(f"weights must sum to N={n}, got {total}")


@dataclass(frozen=True)
class ChannelSpectrum:
    """Eigenvalue Sigma(lam) of each chord eigenoperator T_lam, indexed [mu, nu]."""

    geometry: TorusGeometry
    values: np.ndarray

    def __post_init__(self):
        self.values.setflags(write=False)


@dataclass(frozen=True)
class PhaseSpaceLine:
    """All grid points with n1*p = n2*q + n3 (mod N), as (r, 2) rows of (q, p)."""

    n1: int
    n2: int
    n3: int
    points: np.ndarray = field(repr=False, compare=False)

    @property
    def r(self) -> int:
        return len(self.points)


def make_depolarizing(geom: TorusGeometry, epsilon: float) -> DiagonalChordChannel:
    """Uniform weight 1/N on every translation: the generalized depolarizing channel."""
    n = geom.n
    return DiagonalChordChannel(geom, epsilon, np.full((n, n), 1.0 / n))


def line_points(geom: TorusGeometry, n1: int, n2: int, n3: int) -> PhaseSpaceLine:
    """Enumerate the line n1*p = n2*q + n3 (mod N) on the canonical grid."""
    if (n1, n2) == (0, 0):
        raise ValueError("line direction (n1, n2) = (0, 0) does not define a line")
    n = geom.n
    q, p = np.meshgrid(np.arange(n), np.arange(n), indexing="ij")
    on = (n1 * p - n2 * q - n3) % n == 0
    if not on.any():
        raise ValueError(f"line ({n1},{n2},{n3}) has no solutions mod {n}")
    return PhaseSpaceLine(n1, n2, n3, np.argwhere(on))


def make_phase_damping_line(geom: TorusGeometry, line: PhaseSpaceLine, epsilon: float) -> DiagonalChordChannel:
    """Weight N/r on each of the r line points: averaging along the line."""
    w = np.zeros((geom.n, geom.n))
    w[line.points[:, 0], line.points[:, 1]] = geom.n / line.r
    return DiagonalChordChannel(geom, epsilon, w)


def make_gaussian(geom: TorusGeometry, sigma: float) -> DiagonalChordChannel:
    """Diffusive channel defined by its spectrum, a Gaussian in centered chords.

    Ctilde(mu, nu) = exp[-2 pi^2 sigma^2 (mu_c^2 + nu_c^2)] with (mu_c, nu_c)
    the representative of (mu, nu) in [-N/2, N/2)^2; eps = 1. The weight table
    is the inverse chord-spectrum transform, renormalized to sum N. It is
    checked nonnegative (theta functions of this width are) through its
    separable 1-D factor before it is formed: a sigma too narrow for N cuts
    the spectrum off at the zone edge, the weights dip negative, and the
    error names the smallest admissible sigma above it for that N.
    """
    if not (np.isfinite(sigma) and sigma > 0):
        raise ValueError(f"sigma must be finite and positive, got {sigma}")
    n = geom.n
    floor = _gaussian_weight_floor(n, sigma)
    if not floor >= -1e-12:
        raise ValueError(
            f"Gaussian weights negative beyond tolerance (min {floor:.2e}) for sigma={sigma} at N={n}; "
            f"the smallest admissible sigma above it at N={n} is {_smallest_gaussian_sigma(n, sigma):.4g}"
        )
    w = _weights_from_spectrum(_gaussian_spectrum_table(geom, sigma))
    if not np.abs(w.imag).max() <= 1e-12:
        raise ValueError("Gaussian weight table came out complex")
    w = np.clip(w.real, 0.0, None)
    w *= n / w.sum()
    return DiagonalChordChannel(geom, 1.0, w, sigma=sigma)


def _centered(n: int) -> np.ndarray:
    """Representatives of 0..N-1 in [-N/2, N/2)."""
    k = np.arange(n)
    return (k + n // 2) % n - n // 2


def _gaussian_spectrum_table(geom: TorusGeometry, sigma: float) -> np.ndarray:
    n = geom.n
    mu = _centered(n)[:, None]
    nu = _centered(n)[None, :]
    return np.exp(-2.0 * np.pi**2 * sigma**2 * (mu**2 + nu**2))


def _gaussian_weight_floor(n: int, sigma: float) -> float:
    """min(0, smallest entry of make_gaussian's weight table), in O(N log N).

    The spectrum is g(mu) g(nu), with g even on Z_N, so the weight table is
    the outer product f f^T of the real f = fft(g)/sqrt(N), whose largest
    entry f[0] is positive: its minimum is f[0] * min(f) once min(f) < 0.
    """
    g = np.exp(-2.0 * np.pi**2 * sigma**2 * _centered(n) ** 2)
    f = np.fft.fft(g).real / np.sqrt(n)
    return f.max() * min(f.min(), 0.0)


def _smallest_gaussian_sigma(n: int, sigma: float) -> float:
    """Smallest admissible sigma above the inadmissible `sigma` at N.

    Bisection on _gaussian_weight_floor; the end of the bracket that is
    returned passes make_gaussian's check.
    """
    lo, hi = sigma, 2 * sigma
    while not _gaussian_weight_floor(n, hi) >= -1e-12:
        lo, hi = hi, 2 * hi
    for _ in range(50):
        mid = (lo + hi) / 2
        lo, hi = (lo, mid) if _gaussian_weight_floor(n, mid) >= -1e-12 else (mid, hi)
    return hi


def _spectrum_from_weights(w: np.ndarray) -> np.ndarray:
    """Ctilde[mu, nu] = (1/N) sum_{q,p} w[q,p] e^{i(2pi/N)(mu p - nu q)}."""
    return np.fft.fft(np.fft.ifft(w, axis=1), axis=0).T.copy()


def _weights_from_spectrum(c: np.ndarray) -> np.ndarray:
    """Inverse of _spectrum_from_weights: w[q,p] = (1/N) sum c[mu,nu] e^{-i(2pi/N)(mu p - nu q)}."""
    return np.fft.ifft(np.fft.fft(c, axis=0), axis=1).T.copy()


def channel_spectrum(ch: DiagonalChordChannel) -> ChannelSpectrum:
    """Sigma(lam) = (1 - eps) + eps * Ctilde(lam) on the full chord grid."""
    ctil = _spectrum_from_weights(ch.weights.astype(complex))
    vals = (1.0 - ch.epsilon) + ch.epsilon * ctil
    return ChannelSpectrum(ch.geometry, vals)


def apply_channel(ch: DiagonalChordChannel, rho: np.ndarray) -> np.ndarray:
    """Modulate the chord coefficients of rho by the channel spectrum."""
    coeffs = chord_transform(rho, ch.geometry)
    return chord_inverse(coeffs * channel_spectrum(ch).values)
