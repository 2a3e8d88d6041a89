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

from dataclasses import dataclass

import numpy as np

from .phasespace import TorusGeometry, _centered, _integer, _is_even, _real, chord_transform, chord_inverse

__all__ = [
    "DiagonalChordChannel",
    "ChannelSpectrum",
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

    weights is an (N, N) real table indexed [q, p] (a complex dtype is
    refused, as its spectrum belongs to no Kraus sum, and so are string and
    object dtypes); it is stored as a read-only float64 copy. The Kraus
    weight of T_(q,p) in the eps-part is weights[q, p]/N. sigma is the width
    of the propagator window (see spectral): None (no window) or finite and
    positive. make_gaussian sets it to the Gaussian's width. epsilon and
    sigma are stored as Python floats; any but a finite real raises ValueError.
    """

    geometry: TorusGeometry
    epsilon: float
    weights: np.ndarray
    sigma: float | None = None

    def __post_init__(self):
        n = self.geometry.n
        weights = _real(self.weights, "channel weights", (n, n))  # a copy, so the caller's array stays writeable
        weights.setflags(write=False)
        object.__setattr__(self, "weights", weights)
        object.__setattr__(self, "epsilon", _real(self.epsilon, "epsilon"))
        if self.sigma is not None:
            object.__setattr__(self, "sigma", _real(self.sigma, "sigma"))
        if not 0.0 <= self.epsilon <= 1.0:
            raise ValueError(f"epsilon must be in [0, 1], got {self.epsilon}")
        if self.sigma is not None and not self.sigma > 0:
            raise ValueError(f"sigma must be None or finite and positive, got {self.sigma}")
        if not self.weights.min() >= -1e-12:
            raise ValueError(f"negative channel weight {self.weights.min()}")
        total = float(self.weights.sum())
        if not abs(total - n) <= 1e-10:
            raise ValueError(f"weights must sum to N={n}, got {total}")


@dataclass(frozen=True)
class ChannelSpectrum:
    """Eigenvalue Sigma(lam) of each chord eigenoperator T_lam, indexed [mu, nu]."""

    values: np.ndarray

    def __post_init__(self):
        self.values.setflags(write=False)


def make_depolarizing(geom: TorusGeometry, epsilon: float) -> DiagonalChordChannel:
    """Uniform weight 1/N on every translation: the generalized depolarizing channel."""
    n = geom.n
    return DiagonalChordChannel(geom, epsilon, np.full((n, n), 1.0 / n))


def line_points(geom: TorusGeometry, n1: int, n2: int, n3: int) -> np.ndarray:
    """The r points of the line n1*p = n2*q + n3 (mod N) as (r, 2) rows of canonical (q, p)."""
    n1, n2, n3 = (_integer(v, "line coefficient") for v in (n1, n2, n3))
    n = geom.n
    if (n1 % n, n2 % n) == (0, 0):
        raise ValueError("line direction (n1, n2) = (0, 0) does not define a line")
    q, p = np.meshgrid(np.arange(n), np.arange(n), indexing="ij")
    on = (n1 * p - n2 * q - n3) % n == 0
    if not on.any():
        raise ValueError(f"line ({n1},{n2},{n3}) has no solutions mod {n}")
    return np.argwhere(on)


def make_phase_damping_line(geom: TorusGeometry, line: tuple[int, int, int], epsilon: float) -> DiagonalChordChannel:
    """Weight N/r on each of the r points of line = (n1, n2, n3): averaging along the line."""
    n1, n2, n3 = line
    q, p = line_points(geom, n1, n2, n3).T
    w = np.zeros((geom.n, geom.n))
    w[q, p] = geom.n / len(q)
    return DiagonalChordChannel(geom, epsilon, w)


def make_gaussian(geom: TorusGeometry, sigma: float) -> DiagonalChordChannel:
    """Diffusive channel defined by its spectrum, a Gaussian in centered chords.

    Ctilde(mu, nu) = exp[-2 pi^2 sigma^2 (mu_c^2 + nu_c^2)] with (mu_c, nu_c)
    the representative of (mu, nu) in [-N/2, N/2)^2; eps = 1. The spectrum is
    g(mu) g(nu), with g even on Z_N, so its inverse chord transform, the
    weight table, is the outer product f f^T of the real 1-D factor
    f = fft(g)/sqrt(N). It is clipped at 0 and renormalized to sum N. f is
    checked first (theta functions of this width are nonnegative): a sigma
    too narrow for N cuts the spectrum off at the zone edge, the weights dip
    negative, and the error names the smallest admissible sigma above it for
    that N.
    """
    sigma = _real(sigma, "sigma")
    if not sigma > 0:
        raise ValueError(f"sigma must be finite and positive, got {sigma}")
    n = geom.n
    f = _gaussian_factor(n, sigma)
    floor = _weight_floor(f)
    if not floor >= -1e-12:
        raise ValueError(
            f"Gaussian weights negative beyond tolerance (min {floor:.2e}) for sigma={sigma} at N={n}; "
            f"the smallest admissible sigma above it at N={n} is {_smallest_gaussian_sigma(n, sigma):.4g}"
        )
    w = np.clip(np.outer(f, f), 0.0, None)
    w *= n / w.sum()
    return DiagonalChordChannel(geom, 1.0, w, sigma=sigma)


def _gaussian_factor(n: int, sigma: float) -> np.ndarray:
    """f = fft(g)/sqrt(N) for g(mu) = exp(-2 pi^2 sigma^2 mu_c^2); real and even, as g is.

    The FFT leaves f even only up to rounding; averaging f with its mirror
    f[-k mod N] makes f[k] == f[N - k] bit for bit, so the weights f f^T are
    exactly even and channel_spectrum returns them a real spectrum. g is taken at
    min(sigma, 1e100), keeping sigma**2 finite: any sigma >= 10 gives g(mu != 0) = 0.
    """
    g = np.exp(-2.0 * np.pi**2 * min(sigma, 1e100) ** 2 * _centered(np.arange(n), n) ** 2)
    f = np.fft.fft(g).real / np.sqrt(n)
    return (f + np.roll(f[::-1], 1)) / 2


def _weight_floor(f: np.ndarray) -> float:
    """min(0, smallest entry of f f^T): f's largest entry f[0] is positive."""
    return f.max() * min(f.min(), 0.0)


def _smallest_gaussian_sigma(n: int, sigma: float) -> float:
    """Smallest admissible sigma above the inadmissible `sigma` at N.

    Bisection on the weight floor; the end of the bracket that is
    returned passes make_gaussian's check.
    """
    lo, hi = sigma, 2 * sigma
    while not _weight_floor(_gaussian_factor(n, hi)) >= -1e-12:
        lo, hi = hi, 2 * hi
    for _ in range(50):
        mid = (lo + hi) / 2
        lo, hi = (lo, mid) if _weight_floor(_gaussian_factor(n, mid)) >= -1e-12 else (mid, hi)
    return hi


def channel_spectrum(ch: DiagonalChordChannel) -> ChannelSpectrum:
    """Sigma(lam) = (1 - eps) + eps * Ctilde(lam) on the full chord grid.

    float64 when the weights are exactly even, w(alpha) == w(-alpha) with
    -alpha taken mod N, as they are for the depolarizing, Gaussian and
    through-origin line channels: Ctilde is then a cosine sum, and the FFT's
    real part is returned (its imaginary part is rounding). complex128
    otherwise.
    """
    w = ch.weights
    # Ctilde[mu, nu]: an inverse FFT of w[q, p] over p, an FFT over q, then transposed
    ctil = np.fft.fft(np.fft.ifft(w.astype(complex), axis=1), axis=0).T
    return ChannelSpectrum((1.0 - ch.epsilon) + ch.epsilon * (ctil.real if _is_even(w) else ctil))


def apply_channel(ch: DiagonalChordChannel, rho: np.ndarray) -> np.ndarray:
    """Modulate the chord coefficients of rho by the channel spectrum."""
    coeffs = chord_transform(rho, ch.geometry)
    return chord_inverse(coeffs * channel_spectrum(ch).values)
