"""Noisy propagators in the chord basis, windowed by the noise spectrum.

One step of noise-then-map acts on chord coefficients as
L[lam', lam] = Sigma(lam') * (1/N) Tr[T_lam'^dag U T_lam U^dag]. A Gaussian
channel suppresses every chord outside a square window of half-width
a/(2*pi*sigma) in centered coordinates, so the leading spectrum of the full
N^2-dimensional L survives restriction to the window. Kept offsets per axis
are the integers in [-W, W) with W = floor(a/(2*pi*sigma)), the same
half-open convention as the centered representatives themselves; the window
dimension is then exactly 4 W^2.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .channels import DiagonalChordChannel, channel_spectrum
from .oracles import check_oracle_scale
from .phasespace import TorusGeometry, chord_transform, translation_operator

__all__ = [
    "TruncatedPropagator",
    "SpectrumResult",
    "build_noisy_propagator",
    "leading_spectrum",
    "sort_by_modulus",
    "stability_report",
]


@dataclass(frozen=True)
class TruncatedPropagator:
    """The windowed propagator matrix over kept_modes.

    kept_modes is a (dim, 2) integer array of canonical chord labels (q, p),
    q-major, in the order of the matrix rows and columns.
    """

    geometry: TorusGeometry
    sigma: float | None
    a_coeff: float
    kept_modes: np.ndarray
    matrix: np.ndarray

    def __post_init__(self):
        dim = len(self.kept_modes)
        if self.matrix.shape != (dim, dim):
            raise ValueError(f"matrix shape {self.matrix.shape} vs {dim} kept modes")
        self.matrix.setflags(write=False)

    @property
    def dim(self) -> int:
        return len(self.kept_modes)

    @property
    def full(self) -> bool:
        """True when the window covers every chord of the grid."""
        return self.dim == self.geometry.n**2


@dataclass(frozen=True)
class SpectrumResult:
    """Eigenvalues sorted by descending modulus (ties by ascending phase)."""

    eigenvalues: np.ndarray
    dim_used: int

    def __post_init__(self):
        self.eigenvalues.setflags(write=False)


def build_noisy_propagator(
    ch: DiagonalChordChannel, u: np.ndarray, a_coeff: float
) -> TruncatedPropagator:
    """Windowed matrix of (noise after map) on chord coefficients.

    Only the kept columns of the unitary supermatrix are ever formed: column
    lam is the chord transform of U T_lam U^dag restricted to kept rows, and
    row lam' is scaled by the channel eigenvalue Sigma(lam'). For a Gaussian
    channel the window follows the module convention above; a window reaching
    N/2 degrades to the full grid with a warning. Channels without sigma get
    the full (untruncated) build, capped at oracle scale. u must be an N x N
    unitary.
    """
    if not (np.isfinite(a_coeff) and a_coeff > 0):
        raise ValueError(f"truncation coefficient must be finite and positive, got {a_coeff}")
    geom = ch.geometry
    n = geom.n
    if u.shape != (n, n):
        raise ValueError(f"unitary shape {u.shape} does not match N={n}")
    uerr = np.abs(u @ u.conj().T - np.eye(n)).max()
    if not uerr <= 1e-10:
        raise ValueError(f"u is not unitary (deviation {uerr:.2e})")
    full = False
    if ch.sigma is None:
        check_oracle_scale(n, "full build for a channel with no sigma")
        full = True
    else:
        w = int(np.floor(a_coeff / (2 * np.pi * ch.sigma)))
        if w < 1:
            raise ValueError(
                f"window floor(a/(2 pi sigma)) = {w} keeps no modes; increase a_coeff"
            )
        if 2 * w >= n:
            warnings.warn(
                f"window half-width {w} covers the whole grid at N={n}; building the full propagator",
                stacklevel=2,
            )
            full = True

    offs = np.arange(n) if full else np.arange(-w, w) % n
    kept = np.stack(np.meshgrid(offs, offs, indexing="ij"), axis=-1).reshape(-1, 2)
    rows_q, rows_p = kept[:, 0], kept[:, 1]
    sigma_vals = channel_spectrum(ch).values[rows_q, rows_p]

    dim = len(kept)
    mat = np.empty((dim, dim), dtype=complex)
    udag = u.conj().T
    for j, (q, p) in enumerate(kept.tolist()):
        v = u @ translation_operator(geom, (q, p)) @ udag
        mat[:, j] = chord_transform(v, geom)[rows_q, rows_p] / np.sqrt(n)
    mat *= sigma_vals[:, None]
    return TruncatedPropagator(
        geometry=geom,
        sigma=ch.sigma,
        a_coeff=a_coeff,
        kept_modes=kept,
        matrix=mat,
    )


def sort_by_modulus(vals: np.ndarray) -> np.ndarray:
    """Descending modulus, ties broken by ascending phase in [0, 2*pi)."""
    phases = np.angle(vals) % (2 * np.pi)
    order = np.lexsort((phases, -np.abs(vals)))
    return vals[order]


def leading_spectrum(tp: TruncatedPropagator, count: int) -> SpectrumResult:
    """Top `count` eigenvalues of the windowed matrix.

    Dense full eigendecomposition; LinAlgError from a non-converging solver
    propagates as-is. Window dimensions stay in the hundreds, so a partial
    solver would buy nothing.
    """
    if not 1 <= count <= tp.dim:
        raise ValueError(f"requested {count} eigenvalues; a dim-{tp.dim} propagator has 1 to {tp.dim}")
    vals = sort_by_modulus(np.linalg.eigvals(tp.matrix))
    return SpectrumResult(eigenvalues=vals[:count], dim_used=tp.dim)


def stability_report(s1: SpectrumResult, s2: SpectrumResult, count: int) -> float:
    """Max distance between the top `count` eigenvalues of two spectra.

    Pairs greedily in modulus order: each eigenvalue of s1 takes the nearest
    unused eigenvalue of s2, which keeps near-degenerate moduli from being
    compared against the wrong partner.
    """
    available = min(len(s1.eigenvalues), len(s2.eigenvalues))
    if not 1 <= count <= available:
        raise ValueError(f"count {count} outside 1..{available} available eigenvalues")
    e1 = s1.eigenvalues[:count]
    e2 = list(s2.eigenvalues[:count])
    worst = 0.0
    for z in e1:
        dists = [abs(z - y) for y in e2]
        j = int(np.argmin(dists))
        worst = max(worst, dists[j])
        e2.pop(j)
    return worst
