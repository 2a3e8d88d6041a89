"""Noisy propagators in the chord basis, windowed by the noise spectrum.

One step of noise-then-map acts on chord coefficients as
L[lam', lam] = Sigma(lam') * (1/N) Tr[T_lam'^dag U T_lam U^dag]. A Gaussian
channel suppresses every chord outside a square window of half-width
a/(2*pi*sigma) in centered coordinates, so the leading spectrum of the full
N^2-dimensional L survives restriction to the window. Kept offsets per axis
are the centered labels in [-W, W), W = floor(a/(2*pi*sigma)), clipped to the
grid's centered range [-N/2, N/2): the window dimension is min(4 W^2, N^2),
and a window that covers the grid is built the same way, clipped to it.

The window is filled one of two ways; both then scale row lam' by Sigma.

A kicked map U = U_M K (a dynamics.KickedMap), K = diag(e^{i phi(n)}) and
phi(n) = -(k N / 2 pi) cos(2 pi n / N), is built from covariance alone, with
no U formed (Hannay & Berry, Physica D 1 (1980) 267; the sparse propagator
of Garcia-Mata, Saraceno & Spina, PRL 91 (2003) 064101):
    K T_(q,p) K^dag = T_(q,p) sum_m c_m(q) T_(0,m),
    c(q) = fft(e^{i(phi(n+q) - phi(n))}) / N, one length-N FFT per kept q;
    T_(q,p) T_(0,m) = e^{-i pi q m / N} T_(q,p+m) and U_M T_mu U_M^dag = T_{M mu}
on unreduced integer labels. One rule fills the window for every map: each
kept target row fixes m, through its P' for a shear (Q' = q) and its Q' for
|b| = 1, and column (q, p) holds c_m(q) e^{-i pi q m/N} s at row
(Q' mod N, P' mod N), where (Q', P') = M(q, p+m) for that m and s is the sign
of reducing T_(Q',P') (phasespace._reduction_sign). That is k candidates per
column for k kept offsets per axis, O(k^3 + k N log N) in all. At N=100 it
takes ~1 ms at dim 196, ~2.5 ms at dim 576 and ~12 ms at dim 1444 (best of 5
on a 2-core machine). Every such entry is real: phi is even, so the
substitution n -> -n - q gives conj c_m(q) = e^{-2 pi i q m/N} c_m(q), and
c_m(q) e^{-i pi q m/N} is real. The window is therefore stored in Sigma's
dtype, float64 for the exactly even weights of make_gaussian (see
channels.channel_spectrum), complex128 for a channel whose Sigma is not real.

A dense unitary U is read entry by entry. Each T_lam has one nonzero per
column, so for canonical labels lam' = (q', p'), lam = (q, p) the trace is a
bilinear form in U's entries:
Tr[T_lam'^dag U T_lam U^dag] = e^{i pi (p q - p' q')/N} [F M F^dag]_{p', p}
with M[a, d] = U[a+q', d+q] conj(U[a, d]) (mod N) and F[p, a] = e^{-2 pi i p a/N}.
Half of the (q', q) blocks follow from the other half. T_(-lam) = T_lam^dag
on unreduced labels and X -> U X U^dag commutes with ^dag, so for any U,
unitary or not, the entries E(lam', lam) = (1/N) Tr[T_lam'^dag U T_lam U^dag]
obey the mirror identity
    E(m(lam'), m(lam)) = s(lam') s(lam) conj E(lam', lam),  m(lam) = (-lam) mod N,
with s(q, p) = (-1)^(p [q>0] + q [p>0] + N [q>0][p>0]) the sign of reducing
T_(-q,-p) (phasespace._reduction_sign). On the bilinear form, which is
N-periodic in all four labels, it reads
    [F M F^dag](-q', -q)_{-p', -p} = e^{2 pi i (p' q' - p q)/N} conj [F M F^dag](q', q)_{p', p}.
So each computed block is evaluated on the symmetric momenta [-W, W], one
more than the kept [-W, W), and its conjugate fills block (-q', -q). The
blocks at the window's lower edge q' = -W or q = -W have no kept mirror and
are computed alone, as is (0, 0), its own mirror: 60 of 100 blocks are
computed at k=10, 760 of 1444 at k=38. Sigma scales the rows after the
fill, so the identity needs nothing from the channel. conj(U) is padded once
by E, wrapping mod N, and each block's conj M is U times a 2-D view of it, in
one preallocated N x N buffer, so F M F^dag = conj(conj(F) conj(M) F^T). That
is O(k N^2) per computed block, O(k^3 N^2) in all: ~11, ~46 and ~150 ms at
the same sizes, and ~64 ms at N=400, dim 100.
It is the route for a general unitary and the reference for the kicked one,
which it matches to ~5e-14 at N=100. Against the window evaluated in
extended precision, the kicked entries are off by 2e-16 and the dense ones
by 4e-14. Its window is always complex128.

The leading eigenvalues come from an Arnoldi iteration on the window matrix,
in the window's own dtype, whose Krylov space grows by a quarter after each
failed convergence check, with the dense eigensolver as fallback (see
leading_spectrum).
"""

from __future__ import annotations

import logging
import time
from dataclasses import dataclass

import numpy as np

from .channels import DiagonalChordChannel, channel_spectrum
from .dynamics import KickedMap, _check_quantizable, _kick_phase
from .phasespace import _centered, _integer, _reduction_sign

__all__ = [
    "TruncatedPropagator",
    "SpectrumResult",
    "build_noisy_propagator",
    "leading_spectrum",
    "sort_by_modulus",
    "stability_report",
]

_log = logging.getLogger(__name__)
_EPS = np.finfo(float).eps


@dataclass(frozen=True)
class TruncatedPropagator:
    """The windowed propagator matrix over kept_modes.

    kept_modes is a read-only (dim, 2) integer array of canonical chord labels
    (q, p) in matrix order: q-major, each axis in centered order, lowest first.
    matrix is read-only too: float64 for a KickedMap under a channel with a
    real Sigma, complex128 otherwise (see the module docstring).
    """

    kept_modes: np.ndarray
    matrix: np.ndarray

    def __post_init__(self):
        dim = len(self.kept_modes)
        if self.matrix.shape != (dim, dim):
            raise ValueError(f"matrix shape {self.matrix.shape} vs {dim} kept modes")
        self.kept_modes.setflags(write=False)
        self.matrix.setflags(write=False)

    @property
    def dim(self) -> int:
        return len(self.kept_modes)


@dataclass(frozen=True)
class SpectrumResult:
    """Eigenvalues sorted by descending modulus (ties by ascending phase); all finite, else ValueError."""

    eigenvalues: np.ndarray

    def __post_init__(self):
        if not np.isfinite(self.eigenvalues).all():
            raise ValueError("eigenvalues must be finite, not nan or inf")
        self.eigenvalues.setflags(write=False)


# refuse windows whose dense dim x dim complex matrix would pass this many bytes
_WINDOW_BYTES_BUDGET = 4 * 2**30


def _window(ch: DiagonalChordChannel, a_coeff: float) -> tuple[np.ndarray, np.ndarray]:
    """The window of the module docstring: its kept offsets and Sigma on its rows.

    Returns the kept offsets per axis, canonical and in centered order, and
    the (k, k) table of Sigma(q', p') on the kept rows, after checking a_coeff,
    the channel's sigma and the _WINDOW_BYTES_BUDGET on the dense matrix.
    """
    if not (np.isfinite(a_coeff) and a_coeff > 0):
        raise ValueError(f"truncation coefficient must be finite and positive, got {a_coeff}")
    if ch.sigma is None:
        raise ValueError("a channel with sigma None has no window; its full propagator is "
                         "channel_spectrum(ch).values.ravel()[:, None] * oracles.chord_supermatrix(geom, u)")
    n = ch.geometry.n
    w = int(np.floor(a_coeff / (2 * np.pi * ch.sigma)))
    if w < 1:
        raise ValueError(f"window floor(a/(2 pi sigma)) = {w} keeps no modes; increase a_coeff")
    offs = np.arange(max(-w, -(n // 2)), min(w, (n + 1) // 2)) % n
    dim = len(offs) ** 2
    if dim**2 * 16 > _WINDOW_BYTES_BUDGET:
        raise ValueError(f"a dim-{dim} window needs {dim**2 * 16:,} bytes as a dense complex matrix, "
                         f"over the {_WINDOW_BYTES_BUDGET:,}-byte budget; decrease a_coeff")
    return offs, channel_spectrum(ch).values[np.ix_(offs, offs)]


def _bilinear_entries(u: np.ndarray, offs: np.ndarray, sigma: np.ndarray) -> tuple[np.ndarray, int]:
    """Window entries read off a dense u by the bilinear form, and how many (q', q) blocks were mirrored.

    Block (q', q) is F M F^dag over the symmetric momenta [-E, E] that hold
    the kept ones and their negatives, so it also gives block (-q', -q) by the
    mirror identity of the module docstring; a block whose mirror is not kept
    (q' or q at the window's lower edge) is computed on its own.
    """
    n, k = len(u), len(offs)
    cen = _centered(offs, n).tolist()  # ascending
    e = max(-cen[0], cen[-1])
    keep = slice(cen[0] + e, cen[0] + e + k)  # the kept momenta among [-E, E]
    f = np.exp(-2j * np.pi * np.outer(np.arange(-e, e + 1), np.arange(n)) / n)
    fbar = f.conj()
    ubar = np.pad(u.conj(), e, mode="wrap")  # ubar[e + a, e + d] = conj(u[a, d]), indices mod N
    buf = np.empty((n, n), dtype=complex)
    # rot[i, r] = e^{-2 pi i c_i c_r / N}; block (-q'_i, -q_j) takes the phase rot[i, r] conj(rot[j, s])
    rot = np.exp(-2j * np.pi * (np.outer(cen, cen) % n) / n)
    index = {q: i for i, q in enumerate(cen)}
    blocks = np.empty((k, k, k, k), dtype=complex)  # [q', p', q, p]
    mirrored = 0
    for i, qr in enumerate(cen):
        for j, qc in enumerate(cen):
            mi, mj = index.get(-qr), index.get(-qc)
            paired = mi is not None and mj is not None
            if paired and (qr, qc) < (-qr, -qc):
                continue  # filled from block (-q', -q)
            # buf[a, d] = conj(u[a + q', d + q]) u[a, d] = conj M[a, d], so b = conj(F M F^dag)
            np.multiply(ubar[e + qr : e + qr + n, e + qc : e + qc + n], u, out=buf)
            b = fbar @ buf @ f.T
            np.conjugate(b[keep, keep], out=blocks[i, :, j, :])
            if paired and (mi, mj) != (i, j):
                np.multiply(b[::-1, ::-1][keep, keep], np.outer(rot[i], rot[j].conj()), out=blocks[mi, :, mj, :])
                mirrored += 1
    # in place: rows take Sigma(q', p') e^{-i pi p'q'/N} / N, columns e^{+i pi p q/N}
    half = np.exp(1j * np.pi * np.outer(offs, offs) / n)
    blocks *= (sigma * half.conj() / n)[:, :, None, None]
    blocks *= half
    return blocks, mirrored


def _covariant_entries(km: KickedMap, n: int, offs: np.ndarray, sigma: np.ndarray) -> np.ndarray:
    """Window entries of U_M K by the module docstring's rule: k candidate rows per column, no u formed."""
    m = km.spec
    k = len(offs)
    phi = _kick_phase(n, km.kick)
    coef = np.fft.fft(np.exp(1j * (phi[(np.arange(n) + offs[:, None]) % n] - phi)), axis=1) / n  # c_m(q)
    row = np.full(n, -1)
    row[offs] = np.arange(k)
    iq, ip, it = np.indices((k, k, k)).reshape(3, -1)  # column (q, p), candidate target it
    q, p, target = offs[iq], offs[ip], offs[it]
    # m makes the image's P' (shear, where Q' = q) or Q' (|b| = 1) the kept target, so Q' is canonical
    shift = target - m.c * q - p if m.b == 0 else m.b * (target - m.a * q) - p
    qq, pp = m.a * q + m.b * (p + shift), m.c * q + m.d * (p + shift)
    rq, rp = row[qq], row[pp % n]
    hit = np.flatnonzero(rp >= 0)  # candidates whose image row is kept
    iq, ip, q, shift, qq, pp, rq, rp = (x[hit] for x in (iq, ip, q, shift, qq, pp, rq, rp))
    # e^{-i pi q m / N} depends on q m mod 2N only
    vals = coef[iq, shift % n] * np.exp(-1j * np.pi * (q * shift % (2 * n)) / n) * _reduction_sign(qq, pp, n)
    # vals is real up to rounding (module docstring), so the window has Sigma's dtype
    blocks = np.zeros((k, k, k, k), dtype=sigma.dtype)
    blocks[rq, rp, iq, ip] = sigma[rq, rp] * vals.real
    return blocks


def build_noisy_propagator(ch: DiagonalChordChannel, evolution, a_coeff: float) -> TruncatedPropagator:
    """Windowed matrix of (noise after map) on chord coefficients.

    evolution is a KickedMap or a dense N x N unitary u. A KickedMap's window
    comes from covariance alone, with no u formed: each kept row fixes the
    kick's shift m, then the image M(q, p + m), its row and its reduction sign
    are formed, O(k^3 + k N log N) for k kept offsets per axis; the window
    has Sigma's dtype, float64 for a Gaussian channel. Its map must
    pass quantize_linear_map's rule, with the same ValueError. A dense u must
    be finite and unitary; its entries come from the bilinear form, O(k N^2)
    per (q', q) block, O(k^3 N^2) in all, with about half the blocks filled
    from their mirror (-q', -q) by conjugation; besides the window it holds
    conj(u) padded by the window's half-width and one N x N buffer.
    The window follows the module convention: dimension min(4 W^2, N^2),
    kept_modes always in centered q-major order. Any other evolution, a
    channel with sigma None (it has no window) and a window whose dense matrix
    would pass _WINDOW_BYTES_BUDGET raise ValueError.

    Logs one DEBUG record to the "chordnoise.spectral" logger with the branch
    (kicked or dense), dim, the (q', q) blocks computed and mirrored (all k^2
    computed on the kicked branch) and the seconds taken.
    """
    start = time.perf_counter()
    n = ch.geometry.n
    kicked = isinstance(evolution, KickedMap)
    if kicked:
        _check_quantizable(evolution.spec, n)
    elif isinstance(evolution, np.ndarray):
        u = evolution
        if u.shape != (n, n):
            raise ValueError(f"unitary shape {u.shape} does not match N={n}")
        uerr = np.abs(u @ u.conj().T - np.eye(n)).max() if np.isfinite(u).all() else np.inf
        if not uerr <= 1e-10:
            raise ValueError(f"u is not unitary (deviation {uerr:.2e})")
    else:
        raise ValueError(f"evolution must be a KickedMap or an N x N array, got {type(evolution).__name__}")
    offs, sigma = _window(ch, a_coeff)
    if kicked:
        blocks, mirrored = _covariant_entries(evolution, n, offs, sigma), 0
    else:
        blocks, mirrored = _bilinear_entries(u, offs, sigma)
    k = len(offs)
    kept = np.stack(np.meshgrid(offs, offs, indexing="ij"), axis=-1).reshape(-1, 2)
    tp = TruncatedPropagator(kept, blocks.reshape(k * k, k * k))
    _log.debug(
        "build_noisy_propagator branch=%s dim=%d blocks_computed=%d blocks_mirrored=%d seconds=%.4f",
        "kicked" if kicked else "dense", k * k, k * k - mirrored, mirrored, time.perf_counter() - start,
    )
    return tp


def _modulus_order(vals: np.ndarray) -> np.ndarray:
    """Indices that put vals in sort_by_modulus order."""
    return np.lexsort((np.angle(vals) % (2 * np.pi), -np.abs(vals)))


def sort_by_modulus(vals: np.ndarray) -> np.ndarray:
    """Descending modulus, ties broken by ascending phase in [0, 2*pi).

    Only exactly equal moduli tie, so a conjugate pair a rounding error apart
    in modulus may come out in either order; stability_report pairs for that.
    """
    return vals[_modulus_order(vals)]


def _arnoldi_top(a: np.ndarray, count: int):
    """Top `count` Ritz values of a, grown as leading_spectrum describes.

    Returns (values or None, the last Krylov dimension built (0 if none),
    the number of Hessenberg eigensolves, max residual/|theta|, the reason for
    giving up or None). The factorization A V_m = V_m H_m + h_{m+1,m} v_{m+1} e_m^T
    is extended, not restarted, when m grows by ceil(m/4), so each check
    costs only the new steps.
    """
    dim = a.shape[0]
    m, done, checks, worst = 2 * count + 1, 0, 0, np.nan
    g = np.random.default_rng(0).standard_normal((2, dim))
    v0 = g[0] if np.isrealobj(a) else g[0] + 1j * g[1]
    basis = (v0 / np.linalg.norm(v0))[None]  # rows are the Arnoldi vectors
    hess = np.zeros((1, 0), dtype=basis.dtype)
    while m <= dim / 2:
        basis = np.pad(basis, ((0, m - done), (0, 0)))
        hess = np.pad(hess, ((0, m - done), (0, m - done)))
        for j in range(done, m):
            w = a @ basis[j]
            scale = np.linalg.norm(w)
            for _ in range(2):  # classical Gram-Schmidt, twice
                c = (basis[: j + 1] @ w.conj()).conj()
                w -= c @ basis[: j + 1]
                hess[: j + 1, j] += c
            hess[j + 1, j] = beta = np.linalg.norm(w)
            if not beta > dim * _EPS * scale:
                return None, j + 1, checks, np.nan, f"Krylov space invariant at step {j + 1}, so multiplicities are unseen"
            basis[j + 1] = w / beta
        done, checks = m, checks + 1
        theta, y = np.linalg.eig(hess[:m, :m])
        top = _modulus_order(theta)[:count]
        with np.errstate(divide="ignore", invalid="ignore"):  # theta = 0 never passes
            worst = float((np.abs(hess[m, m - 1] * y[m - 1, top]) / np.abs(theta[top])).max())
        if worst <= _EPS:
            return theta[top], m, checks, worst, None
        m += (m + 3) // 4  # ceil(m/4)
    return None, done, checks, worst, f"Krylov dimension {m} would pass dim/2"


def leading_spectrum(tp: TruncatedPropagator, count: int) -> SpectrumResult:
    """Top `count` eigenvalues of the windowed matrix, in sort_by_modulus order.

    Arnoldi iteration (Lehoucq, Sorensen & Yang, ARPACK Users' Guide, 1998)
    in the matrix's own dtype: from a fixed-seed Gaussian start vector, g[0]
    for a real matrix and g[0] + 1j g[1] for a complex one, orthogonalized by
    classical Gram-Schmidt applied twice per step, the Krylov dimension m
    starts at 2 count + 1 (ARPACK's default ncv) and grows by ceil(m/4) after
    each failed check until each of the top `count` Ritz values theta, with y
    its eigenvector of the m x m Hessenberg matrix, passes ARPACK's test
    |h_{m+1,m} y_m| <= eps |theta|. Quarter steps stop m near where the test
    first passes: on the dim-484 and dim-1444 windows at N=100, sigma=0.04,
    k=0.2 the top 20 first pass at m = 43 to 48, float64 or complex, and m
    stops at 52 after checks at 41 and 52, where doubling built 82.
    The result is deterministic and always complex128. The dense
    np.linalg.eigvals is used instead when the next m would pass dim/2 before
    the top values pass (at once for count near dim), or when the Krylov
    space turns out invariant, since one start vector cannot see repeated
    eigenvalues; LinAlgError from it propagates as-is.

    On a real matrix both paths keep conjugate pairs exact, with equal
    moduli, so sort_by_modulus puts the member with positive imaginary part
    first on both, and a count that splits a pair keeps the same member. On
    the float64 paper windows (N=100, sigma=0.063, cat map 1,1,1,2, k=0.02,
    dims 196 and 576) m stops at 41, the first check.

    The window matrix is strongly non-normal. Past the top few, eigenvalues
    have condition numbers up to ~1e14 and sit at its rounding noise floor
    (Trefethen & Embree, Spectra and Pseudospectra, 2005). On those float64
    windows the two paths agree on the top 3 to 7e-11 (dim 196) and 2e-12
    (dim 576), and on the top 20 only to 8e-5 and 2e-4; at k=0.2 and k=1.0
    (dim 576) the top 20 agree to 1e-7 and 3e-15.

    Logs one DEBUG record to the "chordnoise.spectral" logger with dim,
    count, the path, the final Krylov dimension, the number of checks
    (Hessenberg eigensolves), the max residual/|theta| and, on the dense
    path, the reason.
    """
    count = _integer(count, "eigenvalue count")
    if not 1 <= count <= tp.dim:
        raise ValueError(f"requested {count} eigenvalues; a dim-{tp.dim} propagator has 1 to {tp.dim}")
    vals, m, checks, worst, reason = _arnoldi_top(tp.matrix, count)
    if reason is not None:
        vals = sort_by_modulus(np.linalg.eigvals(tp.matrix))[:count]
    vals = vals.astype(complex, copy=False)  # eig and eigvals give float64 when every value is real
    _log.debug(
        "leading_spectrum dim=%d count=%d path=%s krylov_dim=%d checks=%d max_rel_residual=%.2e%s",
        tp.dim, count, "krylov" if reason is None else "dense", m, checks, worst,
        "" if reason is None else f" reason: {reason}",
    )
    return SpectrumResult(vals)


def stability_report(s1: SpectrumResult, s2: SpectrumResult, count: int) -> float:
    """Max distance between the top `count` eigenvalues of two spectra.

    Pairs greedily in modulus order: each eigenvalue of s1 takes the nearest
    unused eigenvalue of s2, which keeps near-degenerate moduli from being
    compared against the wrong partner.
    """
    count = _integer(count, "eigenvalue count")
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
