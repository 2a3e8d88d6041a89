"""Quantized torus maps and the nonlinear kick.

A classical map M = [[a, b], [c, d]] with ad - bc = 1 acts on chord labels
mod N; its quantization U_M is pinned down by the exact covariance

    U_M T_alpha U_M^dag = (unimodular phase) * T_{M alpha mod N},

which is what every downstream result relies on. The constructor validates
unitarity and spot covariance and refuses parameter combinations the chosen
kernels cannot quantize, rather than returning a broken operator.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .phasespace import TorusGeometry, _translation_action

__all__ = [
    "LinearMapSpec",
    "quantize_linear_map",
    "nonlinear_kick",
]


@dataclass(frozen=True)
class LinearMapSpec:
    """Integer symplectic matrix [[a, b], [c, d]] with det = 1."""

    a: int
    b: int
    c: int
    d: int

    def __post_init__(self):
        det = self.a * self.d - self.b * self.c
        if det != 1:
            raise ValueError(f"map determinant must be 1, got {det}")

    def apply(self, alpha, n: int) -> tuple[int, int]:
        """Image (q, p) of a grid point under the map, reduced mod N."""
        q, p = alpha
        return ((self.a * q + self.b * p) % n, (self.c * q + self.d * p) % n)


def _covariance_residual(geom: TorusGeometry, u: np.ndarray, m: LinearMapSpec, alpha) -> float:
    """Frobenius distance of U T_alpha from the ray of T_{M alpha} U, O(N^2).

    Both products are phased permutations of U's columns and rows, the phase
    is c = Tr(T_{M alpha}^dag U T_alpha U^dag)/N = <T_{M alpha} U, U T_alpha>/N,
    and for unitary U the distance equals ||U T_alpha U^dag - c T_{M alpha}||_F,
    which bounds every entry of that difference.
    """
    rows, phases = _translation_action(geom, alpha)
    lhs = u[:, rows] * phases
    rows, phases = _translation_action(geom, m.apply(alpha, geom.n))
    target = np.empty_like(u)
    target[rows] = phases[:, None] * u
    c = np.vdot(target, lhs) / geom.n
    return float(np.linalg.norm(lhs - c * target))


def quantize_linear_map(geom: TorusGeometry, m: LinearMapSpec) -> np.ndarray:
    """Unitary U_M with exact translation covariance, in the position basis.

    For b != 0 the generating-function kernel is used,
        <n'|U|n> = (1/sqrt(N)) * exp[(i*pi/(N*b)) (a n^2 - 2 n n' + d n'^2)],
    which is unitary whenever |b| = 1 (the cat-map family). b = 0 with
    a = d = 1 is the shear diag(exp(i*pi*c*n^2/N)). Anything else the kernels
    cannot represent; the constructor validates unitarity plus covariance on
    the two generating translations and raises naming the offending map.
    """
    n = geom.n
    if m.b == 0:
        if (m.a, m.d) != (1, 1):
            raise ValueError(f"b = 0 quantization only covers shears with a = d = 1, got {m}")
        k = np.arange(n)
        u = np.diag(np.exp(1j * np.pi * m.c * k**2 / n))
    else:
        k = np.arange(n)
        nn = k[None, :]
        npr = k[:, None]
        u = np.exp(1j * np.pi * (m.a * nn**2 - 2 * nn * npr + m.d * npr**2) / (n * m.b)) / np.sqrt(n)
    uerr = np.abs(u @ u.conj().T - np.eye(n)).max()
    if not uerr <= 1e-12:
        raise ValueError(f"kernel for {m} at N={n} is not unitary (deviation {uerr:.2e})")
    for probe in ((1, 0), (0, 1)):
        res = _covariance_residual(geom, u, m, probe)
        if not res <= 1e-10:
            raise ValueError(
                f"kernel for {m} at N={n} breaks covariance on T_{probe} (residual {res:.2e})"
            )
    return u


def nonlinear_kick(geom: TorusGeometry, k: float) -> np.ndarray:
    """Position-diagonal kick diag(exp[-i (k N / 2 pi) cos(2 pi n / N)])."""
    if not np.isfinite(k):
        raise ValueError(f"kick strength must be finite, got {k}")
    n = geom.n
    phases = -1j * (k * n / (2 * np.pi)) * np.cos(2 * np.pi * np.arange(n) / n)
    return np.diag(np.exp(phases))
