"""Discrete phase space on an N-site torus: translations and the chord transform.

Conventions used throughout the package:

* Position basis |n>, n = 0..N-1, periodic boundary conditions. The DFT
  F_{kn} = exp(-2*pi*i*k*n/N)/sqrt(N) maps position to momentum amplitudes.
* Translation by alpha = (q, p) acts as
      T_(q,p) |n> = exp[(2*pi*i/N) * p * (n + q/2)] |n + q mod N>.
  The q/2 makes the phases 2N-th roots of unity: labels live mod N but the
  operators pick up signs under label shifts by N,
      T_(q+N,p) = (-1)^p T_(q,p),   T_(q,p+N) = (-1)^q T_(q,p).
  `translation_operator` accepts any integer labels and produces these signs
  automatically; canonical labels are in [0, N).
* Group law: T_a1 T_a2 = composition_phase(a1, a2) * T_((a1+a2) mod N), where
  the phase includes both the triangle phase exp[(i*pi/N)(p1*q2 - q1*p2)] and
  the sign from reducing the summed label back to [0, N).
* Conjugation moves a phase out front:
      T_alpha T_lam T_alpha^dag = exp[+i*(2*pi/N) * wedge(lam, alpha)] T_lam,
  with wedge((mu, nu), (q, p)) = mu*p - nu*q. The + sign is fixed once by the
  group law and guarded by a regression test; channel spectra of symmetric
  weight tables do not depend on it.
* The N^2 translations are orthogonal, Tr(T_a^dag T_b) = N delta_ab, so any
  operator A expands as A = (1/sqrt(N)) sum_alpha a(alpha) T_alpha with chord
  coefficients a(alpha) = (1/sqrt(N)) Tr(A T_alpha^dag). Coefficient tables
  are (N, N) complex arrays indexed [q, p].
"""

from __future__ import annotations

from dataclasses import dataclass
import operator

import numpy as np

__all__ = [
    "TorusGeometry",
    "translation_operator",
    "composition_phase",
    "wedge",
    "chord_transform",
    "chord_inverse",
]


def _integer(value, what: str) -> int:
    """value as a Python int (numpy integers included), else ValueError naming it."""
    try:
        return operator.index(value)
    except TypeError:
        raise ValueError(f"{what} must be an integer, got {value!r}") from None


def _real(value, what: str):
    """value as a Python float, or an array as float64 (a copy), else ValueError naming it.

    Only real numbers pass (bool, integer and float dtypes, numpy's included);
    a string, complex or object value is refused, not converted.
    """
    arr = np.asarray(value)
    if arr.dtype.kind not in "biuf":
        shown = repr(value) if arr.ndim == 0 else f"dtype {arr.dtype}"
        raise ValueError(f"{what} must be real, got {shown}")
    return float(arr) if arr.ndim == 0 else arr.astype(float)


def _label(alpha) -> tuple[int, int]:
    """A chord label (q, p) as two Python ints, else ValueError."""
    q, p = alpha
    return _integer(q, "chord label q"), _integer(p, "chord label p")


@dataclass(frozen=True)
class TorusGeometry:
    """An N x N grid of phase-space points; N is also the Hilbert dimension."""

    n: int

    def __post_init__(self):
        n = _integer(self.n, "phase-space dimension")
        if n < 2:
            raise ValueError(f"phase-space dimension must be >= 2, got {n}")
        object.__setattr__(self, "n", n)


def translation_operator(geom: TorusGeometry, alpha) -> np.ndarray:
    """Matrix of T_(q,p) in the position basis.

    Any integer labels are accepted, others raise ValueError; labels outside
    [0, N) produce the sign factors stated in the module docstring.
    """
    n = geom.n
    q, p = _label(alpha)
    cols = np.arange(n)
    t = np.zeros((n, n), dtype=complex)
    t[(cols + q) % n, cols] = np.exp(2j * np.pi * p * (cols + q / 2.0) / n)
    return t


def composition_phase(geom: TorusGeometry, a1, a2) -> complex:
    """Phase c with T_a1 T_a2 = c * T_((a1+a2) mod N) as a matrix identity.

    Combines the triangle phase exp[(i*pi/N)(p1*q2 - q1*p2)] with the sign
    picked up when the summed label is reduced to its canonical
    representative.
    """
    n = geom.n
    q1, p1 = _label(a1)
    q2, p2 = _label(a2)
    triangle = np.exp(1j * np.pi * (p1 * q2 - q1 * p2) / n)
    return complex(_reduction_sign(q1 + q2, p1 + p2, n) * triangle)


def _reduction_sign(q, p, n: int):
    """s = (-1)^(p_r k + j q_r + N j k) with T_(q_r+Nk, p_r+Nj) = s T_(q_r,p_r), elementwise on arrays."""
    (k, qr), (j, pr) = divmod(q, n), divmod(p, n)
    return 1 - 2 * ((pr * k + j * qr + n * j * k) % 2)


def _centered(k, n: int):
    """The representative of label k (an integer or an array) in [-N/2, N/2)."""
    return (k + n // 2) % n - n // 2


def wedge(lam, alpha) -> int:
    """Symplectic product mu*p - nu*q of lam = (mu, nu) against alpha = (q, p)."""
    mu, nu = _label(lam)
    q, p = _label(alpha)
    return mu * p - nu * q


def _shifted_diagonals(a: np.ndarray) -> np.ndarray:
    """D[q, m] = a[(m+q) mod N, m], the q-th shifted diagonal on each row."""
    n = a.shape[0]
    m = np.arange(n)
    return a[(m[None, :] + m[:, None]) % n, m[None, :]]


def chord_transform(a: np.ndarray, geom: TorusGeometry) -> np.ndarray:
    """Chord coefficients a(q,p) = (1/sqrt(N)) Tr(A T_(q,p)^dag) as an (N, N) table.

    Computed per shifted diagonal with an FFT over the momentum label:
    Tr(A T_(q,p)^dag) = exp(-i*pi*p*q/N) * sum_m A[(m+q)%N, m] e^{-2*pi*i*p*m/N}.
    """
    n = geom.n
    if a.shape != (n, n):
        raise ValueError(f"operator shape {a.shape} does not match N={n}")
    d = _shifted_diagonals(np.asarray(a, dtype=complex))
    f = np.fft.fft(d, axis=1)
    qv = np.arange(n)[:, None]
    pv = np.arange(n)[None, :]
    return f * np.exp(-1j * np.pi * qv * pv / n) / np.sqrt(n)


def chord_inverse(coeffs: np.ndarray) -> np.ndarray:
    """Operator A = (1/sqrt(N)) sum_alpha a(alpha) T_alpha from its chord table."""
    coeffs = np.asarray(coeffs, dtype=complex)
    n = coeffs.shape[0]
    if coeffs.shape != (n, n):
        raise ValueError(f"chord table must be square, got {coeffs.shape}")
    qv = np.arange(n)[:, None]
    pv = np.arange(n)[None, :]
    d = np.sqrt(n) * np.fft.ifft(coeffs * np.exp(1j * np.pi * qv * pv / n), axis=1)
    a = np.zeros((n, n), dtype=complex)
    m = np.arange(n)
    a[(m[None, :] + m[:, None]) % n, m[None, :]] = d
    return a
