"""Quantized torus maps and the nonlinear kick.

A classical map M = [[a, b], [c, d]] with integer entries and ad - bc = 1
acts on chord labels mod N; its quantization U_M is pinned down by the exact
covariance

    U_M T_alpha U_M^dag = (unimodular phase) * T_{M alpha mod N},

which is what every downstream result relies on. Which (M, N) pairs the two
kernels quantize follows from the four integers and N alone (Hannay & Berry,
Physica D 1 (1980) 267):

* |b| = 1: the generating-function kernel is chirp * DFT * chirp, unitary for
  every N. Its chirps exp(i pi a n^2 / (N b)) and exp(i pi d n'^2 / (N b))
  change by exp(i pi a N b) and exp(i pi d N b) under n -> n + N, so they
  live on the torus, and the kernel is covariant, exactly when a*N and d*N
  are even.
* b = 0: only the shears a = d = 1 are covered, by diag(exp(i pi c n^2 / N)),
  which is N-periodic exactly when c*N is even.

Every other map is refused before a kernel is formed. For accepted maps the
covariance phase is exactly 1 on unreduced integer labels,
U_M T_mu U_M^dag = T_{M mu}, so a kicked map U_M K needs no dense matrix to
act on chords: `KickedMap` holds the four integers and the kick strength,
and `spectral.build_noisy_propagator` builds its window from them alone.
"""

from __future__ import annotations

from dataclasses import dataclass, fields

import numpy as np

from .phasespace import TorusGeometry, _centered, _half_turns, _integer, _label, _real

__all__ = [
    "LinearMapSpec",
    "KickedMap",
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
        for f in fields(self):
            object.__setattr__(self, f.name, _integer(getattr(self, f.name), f"map entry {f.name}"))
        det = self.a * self.d - self.b * self.c
        if det != 1:
            raise ValueError(f"map determinant must be 1, got {det}")

    def apply(self, alpha, n: int) -> tuple[int, int]:
        """Image (q, p) of an integer grid point under the map, reduced mod N; n is checked as TorusGeometry(n) checks it."""
        n, (q, p) = TorusGeometry(n).n, _label(alpha)
        return ((self.a * q + self.b * p) % n, (self.c * q + self.d * p) % n)


@dataclass(frozen=True)
class KickedMap:
    """The kicked map U_M K: the kick K = nonlinear_kick(geom, kick), then U_M for spec.

    A value, not a matrix: `spectral.build_noisy_propagator` takes it in
    place of the dense unitary and accepts it on the same tori as
    `quantize_linear_map`.
    """

    spec: LinearMapSpec
    kick: float

    def __post_init__(self):
        if not isinstance(self.spec, LinearMapSpec):
            raise ValueError(f"spec must be a LinearMapSpec, got {self.spec!r}")
        object.__setattr__(self, "kick", _real(self.kick, "kick strength"))


def _check_quantizable(m: LinearMapSpec, n: int) -> None:
    """Raise ValueError naming the failing condition unless the rule of the module docstring accepts (m, N)."""
    if abs(m.b) == 1:
        parities = (("a", m.a), ("d", m.d))
    elif m.b != 0:
        raise ValueError(f"kernel for {m} is unitary only for |b| = 1, got b = {m.b}")
    elif (m.a, m.d) != (1, 1):
        raise ValueError(f"b = 0 quantization only covers shears with a = d = 1, got {m}")
    else:
        parities = (("c", m.c),)
    for name, entry in parities:
        if entry * n % 2:
            raise ValueError(f"kernel for {m} at N={n} breaks covariance: {name}*N = {entry * n} is odd")


def quantize_linear_map(geom: TorusGeometry, m: LinearMapSpec) -> np.ndarray:
    """Unitary U_M with exact translation covariance, in the position basis.

    For |b| = 1 the generating-function kernel is used,
        <n'|U|n> = (1/sqrt(N)) * exp[(i*pi/(N*b)) (a n^2 - 2 n n' + d n'^2)],
    accepted iff a*N and d*N are even. b = 0 with a = d = 1 is the shear
    diag(exp(i*pi*c*n^2/N)), accepted iff c*N is even. Anything else is
    refused. The rule is derived in the module docstring; it is checked before
    the kernel is formed, and the ValueError names the failing condition.

    The phase depends on the integer s = b (a n^2 - 2 n n' + d n'^2) (c n^2
    for the shear) mod 2N only, and is read from phasespace._half_turns, a
    table of e^{i pi s/N} on the centered s in [-N, N); over every accepted
    map at N <= 25 it lies 5.7e-16 from the kernel in long double (a table
    on s in [0, 2N) is 1.4e-15 off, the formula itself 4.5e-14). On accepted
    maps s mod 2N is unchanged by n -> -n, n' -> -n' mod N, so U is parity
    symmetric bit for bit, U[-n', -n] == U[n', n], which
    spectral.build_noisy_propagator uses to store a real window.
    """
    n = geom.n
    _check_quantizable(m, n)
    k = np.arange(n)
    if m.b == 0:
        return np.diag(_half_turns(n)[m.c * k**2 % (2 * n)])
    s = np.multiply.outer(k, -2 * m.b * k)  # [n', n]
    s += m.b * m.a * k**2
    s += (m.b * m.d * k**2)[:, None]
    return np.take(_half_turns(n) / np.sqrt(n), s % (2 * n))


def _kick_phase(n: int, k: float) -> np.ndarray:
    """Kick phases phi(j) = -(k N / 2 pi) cos(2 pi j / N) for j = 0..N-1; ValueError unless k N / 2 pi is finite."""
    amp = _real(k, "kick strength") * n / (2 * np.pi)
    if not np.isfinite(amp):
        raise ValueError(f"kick strength {k} at N={n} makes k N / 2 pi = {amp}, past the float range")
    return -amp * np.cos(2 * np.pi * np.arange(n) / n)


def nonlinear_kick(geom: TorusGeometry, k: float) -> np.ndarray:
    """Position-diagonal kick diag(exp[i phi(n)]), phi(n) = -(k N / 2 pi) cos(2 pi n / N).

    Each phase is taken at |j| for the centered label j in [-N/2, N/2) of its
    position, which is phi(j) bit for bit, so K[-n, -n] == K[n, n] exactly.
    """
    n = geom.n
    return np.diag(np.exp(1j * _kick_phase(n, k)[np.abs(_centered(np.arange(n), n))]))
