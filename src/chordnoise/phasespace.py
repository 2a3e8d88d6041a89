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
  automatically; canonical labels are in [0, N). Every half-turn phase
  e^{i pi s/N} in the package is read from one table on s mod 2N.
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


def _real(value, what: str, shape=()):
    """value as a finite Python float, or at a nonempty shape as a finite float64 array (a copy), else ValueError naming it.

    Only real numbers pass (bool, integer and float dtypes, numpy's included);
    a string, complex or object value, nan, inf or another shape is refused.
    """
    arr = np.asarray(value)
    if arr.dtype.kind not in "biuf":
        shown = repr(value) if arr.ndim == 0 else f"dtype {arr.dtype}"
        raise ValueError(f"{what} must be real, got {shown}")
    if arr.shape != shape:
        raise ValueError(f"{what} has shape {arr.shape}, expected {shape}")
    arr = arr.astype(float)
    if not np.isfinite(arr).all():
        raise ValueError(f"{what} must be finite" + (f", got {arr}" if arr.ndim == 0 else ""))
    return arr if shape else float(arr)


def _label(alpha) -> tuple[int, int]:
    """A chord label (q, p) as two Python ints, else ValueError naming it."""
    try:
        q, p = alpha
    except (TypeError, ValueError):
        raise ValueError(f"chord label must be a pair (q, p), got {alpha!r}") from None
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
    q, p = (x % (2 * n) for x in _label(alpha))  # T_(q,p) depends on the labels mod 2N only
    cols = np.arange(n)
    t = np.zeros((n, n), dtype=complex)
    t[(cols + q) % n, cols] = _half_turns(n)[p * (2 * cols + q) % (2 * n)]
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
    triangle = _half_turns(n)[(p1 * q2 - q1 * p2) % (2 * n)]
    return complex(_reduction_sign(q1 + q2, p1 + p2, n) * triangle)


def _reduction_sign(q, p, n: int):
    """s = (-1)^(p_r k + j q_r + N j k) with T_(q_r+Nk, p_r+Nj) = s T_(q_r,p_r), elementwise on arrays."""
    (k, qr), (j, pr) = divmod(q, n), divmod(p, n)
    return 1 - 2 * ((pr * k + j * qr + n * j * k) % 2)


def _centered(k, n: int):
    """The representative of label k (an integer or an array) in [-N/2, N/2)."""
    return (k + n // 2) % n - n // 2


def _half_turns(n: int) -> np.ndarray:
    """e^{i pi s/N} at index s mod 2N, from the centered s in [-N, N), so |arg| <= pi."""
    return np.exp(1j * np.pi * _centered(np.arange(2 * n), 2 * n) / n)


def _is_even(a: np.ndarray) -> bool:
    """Whether a[-i, -j] == a[i, j] for all i, j mod N, compared on reversed views, with no copy of a."""
    return (
        np.array_equal(a[1:, 1:], a[:0:-1, :0:-1])
        and np.array_equal(a[0, 1:], a[0, :0:-1])
        and np.array_equal(a[1:, 0], a[:0:-1, 0])
    )


def wedge(lam, alpha) -> int:
    """Symplectic product mu*p - nu*q of lam = (mu, nu) against alpha = (q, p)."""
    mu, nu = _label(lam)
    q, p = _label(alpha)
    return mu * p - nu * q


def _diagonals(n: int) -> tuple[np.ndarray, np.ndarray]:
    """The (rows, cols) index with entry [q, m] at ((m+q) mod N, m): A[index] holds A's q-th shifted diagonal on row q."""
    m = np.arange(n)
    return (m[None, :] + m[:, None]) % n, m[None, :]


def _square(a, what: str, dtype=None) -> tuple[np.ndarray, int]:
    """a as a numeric (N, N) array, cast to dtype unless None, and N, which TorusGeometry checks; else ValueError."""
    a = np.asarray(a)
    if a.ndim != 2 or len(a) != a.shape[1] or a.dtype.kind not in "biufc":
        raise ValueError(f"{what} must be a square numeric table, got shape {a.shape} and dtype {a.dtype}")
    return a.astype(dtype or a.dtype, copy=False), TorusGeometry(len(a)).n


def chord_transform(a: np.ndarray, geom: TorusGeometry) -> np.ndarray:
    """Chord coefficients a(q,p) = (1/sqrt(N)) Tr(A T_(q,p)^dag) as an (N, N) table.

    Computed per shifted diagonal with an FFT over the momentum label:
    Tr(A T_(q,p)^dag) = exp(-i*pi*p*q/N) * sum_m A[(m+q)%N, m] e^{-2*pi*i*p*m/N}.
    """
    a, n = _square(a, "operator", complex)
    if n != geom.n:
        raise ValueError(f"operator shape {a.shape} does not match N={geom.n}")
    m = np.arange(n)
    return np.fft.fft(a[_diagonals(n)], axis=1) * _half_turns(n).conj()[np.outer(m, m) % (2 * n)] / np.sqrt(n)


def chord_inverse(coeffs: np.ndarray) -> np.ndarray:
    """Operator A = (1/sqrt(N)) sum_alpha a(alpha) T_alpha from its chord table."""
    coeffs, n = _square(coeffs, "chord coefficients", complex)
    m = np.arange(n)
    a = np.zeros((n, n), dtype=complex)
    a[_diagonals(n)] = np.sqrt(n) * np.fft.ifft(coeffs * _half_turns(n)[np.outer(m, m) % (2 * n)], axis=1)
    return a
