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
kept target t fixes m, through P' = t for a shear (Q' = q) and Q' = t for
|b| = 1, and column (q, p) holds c_m(q) e^{-i pi q m/N} s at row
(Q' mod N, P' mod N), where (Q', P') = M(q, p+m) and s is the sign of
reducing T_(Q',P') (phasespace._reduction_sign). As p + m depends on (q, t)
only, so does the image: (q, t) for a shear, (t, b(d t - q)) for |b| = 1, as
c = b(ad - 1) when b^2 = 1. Distinct (q, t) have distinct images, so each
row takes terms from one q. The E (q, t) whose image row is kept are
held, q-major: each term's row, the index of its q, and its k values over
p, Sigma s times c_m(q) e^{-i pi q m/N} from a k x 2N table on (q, m mod 2N).
That is O(k^3 + k N log N) for k kept offsets per axis, never a dim x dim
array (the dim-576 window at N=100, sigma=0.063, a=4.8 holds 6,912 of
331,776 entries).
Every such entry is real: phi is even, so the substitution n -> -n - q gives
conj c_m(q) = e^{-2 pi i q m/N} c_m(q), and c_m(q) e^{-i pi q m/N} is real.
The values thus have Sigma's dtype, float64 for the exactly
even weights of make_gaussian (see channels.channel_spectrum), complex128
for a channel whose Sigma is not real.

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
is O(k N^2) per computed block, O(k^3 N^2) in all.
It is the route for a general unitary and the reference for the kicked one.
When u is parity symmetric, u[-a, -d] == u[a, d] with indices mod N, and
Sigma is real, every entry is real as well: parity gives
E(lam', lam) = s(lam') s(lam) E(m(lam'), m(lam)), and the mirror identity
gives the same right side conjugated, so E = conj E. quantize_linear_map
and nonlinear_kick are parity symmetric bit for bit, and so is U_M K formed
elementwise; the check is exact, on reversed views of u, not a tolerance.
Each block, computed or mirrored, is scaled by Sigma / N and the
half-phases as it is written; the window keeps its real part and is
float64, or keeps it whole and is complex128 for any other u (a Haar
unitary, a translation) or a complex Sigma. At N=100, sigma=0.063, k=0.02
the float64 dense entries lie 7e-16 from the kicked ones, which lie 2e-16
from the window evaluated in extended precision.

The leading eigenvalues come from an Arnoldi iteration in the window's own
dtype that only multiplies by the window, by a kicked window's terms in
O(k^3) per product with no dim x dim matrix formed, and falls back to the
dense eigensolver (see leading_spectrum).
"""

from __future__ import annotations

import logging
import time
from dataclasses import dataclass

import numpy as np

from .channels import DiagonalChordChannel, channel_spectrum
from .dynamics import KickedMap, _check_quantizable, _kick_phase
from .phasespace import _centered, _integer, _is_even, _real, _reduction_sign

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
# dense eigvals took 23 s at dim 5,476 on a 2-core Xeon
_DENSE_DIM_CAP = 4096


class TruncatedPropagator:
    """The windowed propagator over kept_modes, held as a dense matrix or as its in-window terms.

    kept_modes is a read-only (dim, 2) integer array of canonical chord labels
    (q, p) in matrix order: q-major, each axis in centered order, lowest first.
    TruncatedPropagator(kept_modes, matrix) holds a dense (dim, dim) window,
    as the dense-u build makes; blocks is then None.
    TruncatedPropagator(kept_modes, blocks=(rows, groups, values)) holds a
    window of dim = k^2 as its E terms, as the KickedMap build makes: rows
    (E,) are distinct in [0, dim), groups (E,) in [0, k), and column
    groups[e] k + p holds the (k, E) values[p, e] at row rows[e], other
    entries zero. blocks is then that triple, and matrix is formed from it
    on each access and not kept. All arrays are read with np.asarray, so an
    ndarray is frozen in place, with no copy; labels must be integers and
    values numeric, and any other dtypes or shapes raise ValueError. matrix
    is read-only; it and the values have dtype, float64 under a channel with
    a real Sigma for a KickedMap or a parity-symmetric u, complex128
    otherwise (see the module docstring).
    """

    __slots__ = ("_kept", "_window")

    def __init__(self, kept_modes, matrix=None, *, blocks=None):
        if (matrix is None) == (blocks is None):
            raise ValueError("give the window as a matrix or as blocks=(rows, groups, values), not both or neither")
        kept = np.asarray(kept_modes)
        dim = len(kept) if kept.ndim else 0
        if blocks is None:
            window, need = (np.asarray(matrix),), "(dim, dim)"
            ok = window[0].shape == (dim, dim)
        else:
            window, k = tuple(np.asarray(x) for x in blocks), round(dim**0.5)
            need = "(E,) rows distinct in [0, dim), (E,) groups in [0, k), (k, E) values, dim = k^2"
            ok = k * k == dim and len(window) == 3 and [x.shape for x in window] == [(window[0].size,)] * 2 + [(k, window[0].size)]
            ok = ok and all(x.dtype.kind in "iu" and ((0 <= x) & (x < top)).all() for x, top in zip(window, (dim, k)))
            ok = ok and (np.bincount(window[0].astype(np.intp), minlength=dim) <= 1).all()
        if not (ok and kept.shape == (dim, 2) and kept.dtype.kind in "iu" and window[-1].dtype.kind in "biufc"):
            raise ValueError(f"kept_modes {kept.shape} {kept.dtype} and window {[(x.shape, str(x.dtype)) for x in window]}: "
                             f"need (dim, 2) and {need}, integer labels and numeric values")
        for x in (kept, *window):
            x.setflags(write=False)
        self._kept, self._window = kept, window

    @property
    def kept_modes(self) -> np.ndarray:
        return self._kept

    @property
    def blocks(self) -> tuple[np.ndarray, ...] | None:
        return self._window if len(self._window) == 3 else None

    @property
    def matrix(self) -> np.ndarray:
        if self.blocks is None:
            return self._window[0]
        rows, groups, vals = self._window
        mat = np.zeros((self.dim, self.dim), dtype=vals.dtype)
        mat[rows, groups * len(vals) + np.arange(len(vals))[:, None]] = vals
        mat.setflags(write=False)
        return mat

    @property
    def dim(self) -> int:
        return len(self._kept)

    @property
    def dtype(self) -> np.dtype:
        return self._window[-1].dtype


@dataclass(frozen=True)
class SpectrumResult:
    """Eigenvalues sorted by descending modulus (ties by ascending phase); a finite 1-D numeric array, else ValueError."""

    eigenvalues: np.ndarray

    def __post_init__(self):
        vals = np.asarray(self.eigenvalues)
        if vals.ndim != 1 or vals.dtype.kind not in "biufc":
            raise ValueError(f"eigenvalues must be a 1-D numeric array, got shape {vals.shape} and dtype {vals.dtype}")
        if not np.isfinite(vals).all():
            raise ValueError("eigenvalues must be finite, not nan or inf")
        vals.setflags(write=False)
        object.__setattr__(self, "eigenvalues", vals)


# refuse windows and Krylov bases that would hold more bytes
_WINDOW_BYTES_BUDGET = 4 * 2**30


def _window(ch: DiagonalChordChannel, a_coeff: float, kicked: bool) -> tuple[np.ndarray, np.ndarray]:
    """The window of the module docstring: its kept offsets and Sigma on its rows.

    Returns the kept offsets per axis, canonical and in centered order, and
    the (k, k) table of Sigma(q', p') on the kept rows, after checking a_coeff,
    the channel's sigma and the _WINDOW_BYTES_BUDGET on what the build holds.
    """
    a_coeff = _real(a_coeff, "truncation coefficient")
    if not a_coeff > 0:
        raise ValueError(f"truncation coefficient must be finite and positive, got {a_coeff}")
    if ch.sigma is None:
        raise ValueError("a channel with sigma None has no window; its full propagator is "
                         "channel_spectrum(ch).values.ravel()[:, None] * oracles.chord_supermatrix(geom, u)")
    n = ch.geometry.n
    w = int(np.floor(min(a_coeff / (2 * np.pi * ch.sigma), n)))  # an inf ratio passes too; W >= N/2 covers the grid
    if w < 1:
        raise ValueError(f"window floor(a/(2 pi sigma)) = {w} keeps no modes; increase a_coeff")
    offs = np.arange(max(-w, -(n // 2)), min(w, (n + 1) // 2)) % n
    k = len(offs)
    held, what = (k**3 * 16 + 8 * k * k, "its in-window terms at most") if kicked else (k**4 * 16, "a dense complex matrix")
    if held > _WINDOW_BYTES_BUDGET:
        raise ValueError(f"a dim-{k * k} window needs {held:,} bytes as {what}, "
                         f"over the {_WINDOW_BYTES_BUDGET:,}-byte budget; decrease a_coeff")
    return offs, channel_spectrum(ch).values[np.ix_(offs, offs)]


def _bilinear_entries(u: np.ndarray, offs: np.ndarray, sigma: np.ndarray) -> tuple[np.ndarray, int]:
    """Window entries read off a dense u by the bilinear form, and how many (q', q) blocks were mirrored.

    Block (q', q) is F M F^dag over the symmetric momenta [-E, E] that hold
    the kept ones and their negatives, so it also gives block (-q', -q) by the
    mirror identity of the module docstring; a block whose mirror is not kept
    (q' or q at the window's lower edge) is computed on its own. Each block
    is scaled as it is written to the window, which is float64 when Sigma is
    real and u is parity symmetric (the module docstring), complex128 otherwise.
    """
    n, k = len(u), len(offs)
    cen = _centered(offs, n).tolist()  # ascending
    e = max(-cen[0], cen[-1])
    keep = slice(cen[0] + e, cen[0] + e + k)  # the kept momenta among [-E, E]
    real = sigma.dtype.kind != "c" and _is_even(u)  # u parity symmetric
    f = np.exp(-2j * np.pi * np.outer(np.arange(-e, e + 1), np.arange(n)) / n)
    fbar = f.conj()
    ubar = np.pad(u.conj(), e, mode="wrap")  # ubar[e + a, e + d] = conj(u[a, d]), indices mod N
    buf = np.empty((n, n), dtype=complex)
    # rot[i, r] = e^{-2 pi i c_i c_r / N}; block (-q'_i, -q_j) takes the phase rot[i, r] conj(rot[j, s])
    rot = np.exp(-2j * np.pi * (np.outer(cen, cen) % n) / n)
    # rows take Sigma(q', p') e^{-i pi p'q'/N} / N, columns e^{+i pi p q/N}
    half = np.exp(1j * np.pi * np.outer(offs, offs) / n)
    row_scale = sigma * half.conj() / n
    index = {q: i for i, q in enumerate(cen)}
    blocks = np.empty((k, k, k, k), dtype=float if real else complex)  # [q', p', q, p]
    mirrored = 0
    for i, qr in enumerate(cen):
        mi = index.get(-qr)
        for j, qc in enumerate(cen):
            mj = index.get(-qc)
            paired = mi is not None and mj is not None
            if paired and (qr, qc) < (-qr, -qc):
                continue  # filled from block (-q', -q)
            # buf[a, d] = conj(u[a + q', d + q]) u[a, d] = conj M[a, d], so b = conj(F M F^dag)
            np.multiply(ubar[e + qr : e + qr + n, e + qc : e + qc + n], u, out=buf)
            b = fbar @ buf @ f.T
            filled = [(i, j, b[keep, keep].conj())]  # (row, column, block indexed [p', p])
            if paired and (mi, mj) != (i, j):
                filled.append((mi, mj, b[::-1, ::-1][keep, keep] * np.outer(rot[i], rot[j].conj())))
                mirrored += 1
            for r, c, block in filled:
                block *= row_scale[r][:, None]
                block *= half[c]
                blocks[r, :, c] = block.real if real else block
    return blocks, mirrored


def _covariant_blocks(km: KickedMap, n: int, offs: np.ndarray, sigma: np.ndarray) -> tuple[np.ndarray, ...]:
    """In-window terms (rows, groups, values) of U_M K by the module docstring's rule, no u formed."""
    m = km.spec
    k = len(offs)
    phi = _kick_phase(n, km.kick)
    coef = np.fft.fft(np.exp(1j * (phi[(np.arange(n) + offs[:, None]) % n] - phi)), axis=1) / n  # c_m(q)
    turns = np.arange(2 * n)
    # c_m(q) e^{-i pi q m/N} on m mod 2N, real up to rounding (module docstring), so the window has Sigma's dtype
    coef = (coef[:, turns % n] * np.exp(-1j * np.pi * turns / n)[offs[:, None] * turns % (2 * n)]).real
    row = np.full(n, -1, dtype=np.int32)
    row[offs] = np.arange(k)
    # column q and target t fix m + p = m0, so the image M(q, p + m), its row and its sign do not depend on p
    m0 = offs - m.c * offs[:, None] if m.b == 0 else m.b * (offs - m.a * offs[:, None])
    group, t = np.nonzero(row[(m.c * offs[:, None] + m.d * m0) % n] >= 0)  # (q, t) with a kept image row, q-major
    q, m0, group = offs[group], m0[group, t], group.astype(np.int32)
    qq, pp = m.a * q + m.b * m0, m.c * q + m.d * m0
    rq, rp = row[qq], row[pp % n]
    # values[p, e]: Sigma s on the image row times c_(m0 - p)(q)
    return rq * k + rp, group, sigma[rq, rp] * _reduction_sign(qq, pp, n) * coef[group, (m0 - offs[:, None]) % (2 * n)]


def build_noisy_propagator(ch: DiagonalChordChannel, evolution, a_coeff: float) -> TruncatedPropagator:
    """Windowed propagator of (noise after map) on chord coefficients.

    evolution is a KickedMap or a dense N x N unitary u. A KickedMap's window
    comes from covariance alone, with no u formed, by the module docstring's
    rule, O(k^3 + k N log N) for k kept offsets per axis, and is held as its
    in-window terms (TruncatedPropagator.blocks) in Sigma's dtype, float64
    for a Gaussian channel. Its map must pass quantize_linear_map's rule,
    with the same ValueError. A dense u must be numeric, finite and unitary;
    its entries come from the bilinear form, O(k^3 N^2) in all, about half
    the (q', q) blocks filled from their mirror (-q', -q); besides the window
    it holds conj(u) padded by the window's half-width, one N x N buffer and
    a block and its mirror. Its window is float64 when Sigma is real and u is
    parity symmetric bit for bit, as quantize_linear_map(...) *
    np.diag(nonlinear_kick(...)) is, and complex128 otherwise; it is held as
    the dense matrix. The window follows the module convention: dimension
    min(4 W^2, N^2), kept_modes in centered q-major order. Any other
    evolution, a channel with sigma None (it has no window) and a window
    whose build would hold more than _WINDOW_BYTES_BUDGET (16 k^3 + 8 k^2
    bytes kicked, 16 dim^2 dense) raise ValueError.

    Logs one DEBUG record to the "chordnoise.spectral" logger with the branch
    (kicked or dense), dim, the window's dtype (float64 or complex128), the
    entries it stores (dim^2 for a dense window, k per kept kicked target),
    the (q', q) blocks computed and mirrored (all k^2 computed on the kicked
    branch) and the seconds taken.
    """
    start = time.perf_counter()
    n = ch.geometry.n
    kicked = isinstance(evolution, KickedMap)
    if kicked:
        _check_quantizable(evolution.spec, n)
    elif isinstance(evolution, np.ndarray):
        u = evolution
        if u.shape != (n, n) or u.dtype.kind not in "biufc":
            raise ValueError(f"unitary shape {u.shape} and dtype {u.dtype}: need ({n}, {n}) and a numeric dtype")
        uerr = np.abs(u @ u.conj().T - np.eye(n)).max() if np.isfinite(u).all() else np.inf
        if not uerr <= 1e-10:
            raise ValueError(f"u is not unitary (deviation {uerr:.2e})")
    else:
        raise ValueError(f"evolution must be a KickedMap or an N x N array, got {type(evolution).__name__}")
    offs, sigma = _window(ch, a_coeff, kicked)
    k = len(offs)
    kept = np.stack(np.meshgrid(offs, offs, indexing="ij"), axis=-1).reshape(-1, 2)
    if kicked:
        tp, mirrored = TruncatedPropagator(kept, blocks=_covariant_blocks(evolution, n, offs, sigma)), 0
    else:
        blocks, mirrored = _bilinear_entries(u, offs, sigma)
        tp = TruncatedPropagator(kept, blocks.reshape(k * k, k * k))
    _log.debug(
        "build_noisy_propagator branch=%s dim=%d dtype=%s entries=%d blocks_computed=%d blocks_mirrored=%d seconds=%.4f",
        "kicked" if kicked else "dense", tp.dim, tp.dtype, tp._window[-1].size, k * k - mirrored, mirrored, time.perf_counter() - start
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


def _matvec(tp: TruncatedPropagator):
    """x -> window @ x: the dense product, or each row's k terms summed in p order."""
    if tp.blocks is None:
        return tp.matrix.__matmul__
    (rows, groups, vals), dim = tp.blocks, tp.dim

    def matvec(x: np.ndarray) -> np.ndarray:
        out = np.zeros(dim, dtype=np.result_type(vals, x))
        # not *: in place on the gathered copy it is copy * vals, whose complex bits differ
        out[rows] = np.multiply(vals, x.reshape(len(vals), -1).T.take(groups, axis=1)).sum(axis=0)
        return out

    return matvec


def _arnoldi_top(matvec, dim: int, dtype: np.dtype, count: int):
    """Top `count` Ritz values of the dim x dim matrix that matvec applies, grown as leading_spectrum describes.

    dtype is the matrix's: the start vector and the iteration are real when
    it is not complex. Returns (values or None, the last Krylov dimension
    built (0 if none), the number of Hessenberg eigensolves, max
    residual/|theta|, the reason for giving up or None). The factorization
    A V_m = V_m H_m + h_{m+1,m} v_{m+1} e_m^T is extended, not restarted,
    when m grows by ceil(m/4), so each check costs only the new steps.
    """
    m, done, checks, worst = 2 * count + 1, 0, 0, np.nan
    g = np.random.default_rng(0).standard_normal((2, dim))
    v0 = g[0] + 1j * g[1] if np.dtype(dtype).kind == "c" else g[0]
    basis = (v0 / np.linalg.norm(v0))[None]  # rows are the Arnoldi vectors
    hess = np.zeros((1, 0), dtype=basis.dtype)
    while m <= dim / 2 and m * dim * basis.itemsize <= _WINDOW_BYTES_BUDGET:
        basis = np.pad(basis, ((0, m - done), (0, 0)))
        hess = np.pad(hess, ((0, m - done), (0, m - done)))
        for j in range(done, m):
            w = matvec(basis[j])
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
    why = "dim/2" if m > dim / 2 else f"the {_WINDOW_BYTES_BUDGET:,}-byte budget with a {m * dim * basis.itemsize:,}-byte basis"
    return None, done, checks, worst, f"Krylov dimension {m} would pass {why}"


def leading_spectrum(tp: TruncatedPropagator, count: int) -> SpectrumResult:
    """Top `count` eigenvalues of the windowed propagator, in sort_by_modulus order.

    Arnoldi iteration (Lehoucq, Sorensen & Yang, ARPACK Users' Guide, 1998)
    in the window's own dtype (tp.dtype), which only multiplies vectors by
    the window: tp.matrix @ x for a dense window; for one held as terms,
    values * x summed over p, so each row adds its k terms in p order, which
    never forms tp.matrix. From a fixed-seed Gaussian start vector, g[0] for a
    real window and g[0] + 1j g[1] for a complex one, orthogonalized by
    classical Gram-Schmidt applied twice per step, the Krylov dimension m
    starts at 2 count + 1 (ARPACK's default ncv) and grows by ceil(m/4) after
    each failed check until each of the top `count` Ritz values theta, with y
    its eigenvector of the m x m Hessenberg matrix, passes ARPACK's test
    |h_{m+1,m} y_m| <= eps |theta|. Quarter steps stop m near where the test
    first passes: on the dim-484 and dim-1444 windows at N=100, sigma=0.04,
    k=0.2 the top 20 first pass at m = 43 to 48, float64 or complex, and m
    stops at 52 after checks at 41 and 52.
    The result is deterministic and always complex128. The dense
    np.linalg.eigvals of tp.matrix, formed from the terms if need be, is
    used instead when the next m would pass dim/2 or put the m x dim basis
    past _WINDOW_BYTES_BUDGET before the top values pass (at once for count
    near dim), or when the Krylov space turns out invariant, since one start vector cannot see repeated eigenvalues;
    LinAlgError from it propagates as-is. Above dim 4,096 it is refused.

    On a real matrix both paths keep conjugate pairs exact, with equal
    moduli, so sort_by_modulus puts the member with positive imaginary part
    first on both, and a count that splits a pair keeps the same member. On
    the float64 paper windows (N=100, sigma=0.063, cat map 1,1,1,2, k=0.02,
    dims 196 and 576) m stops at 41, the first check.

    The window matrix is strongly non-normal. Past the top few, eigenvalues
    have condition numbers up to ~1e14 and sit at its rounding noise floor
    (Trefethen & Embree, Spectra and Pseudospectra, 2005). On those float64
    windows the two paths agree on the top 3 to 3e-11 (dim 196) and 7e-12
    (dim 576), and on the top 20 only to 1e-4 and 2e-4; at k=0.2 and k=1.0
    (dim 576) the top 20 agree to 4e-7 and 2e-15. Which rounding the matvec
    makes can move the stop: summing the same terms per row in another
    order moved the dim-196 window's stop from m = 41 to 52.

    Logs one DEBUG record to the "chordnoise.spectral" logger with dim,
    count, the path, the final Krylov dimension, the number of checks
    (Hessenberg eigensolves), the max residual/|theta| and, on the dense
    path, the reason.
    """
    count = _integer(count, "eigenvalue count")
    if not 1 <= count <= tp.dim:
        raise ValueError(f"requested {count} eigenvalues; a dim-{tp.dim} propagator has 1 to {tp.dim}")
    vals, m, checks, worst, reason = _arnoldi_top(_matvec(tp), tp.dim, tp.dtype, count)
    if reason is not None:
        if tp.dim > _DENSE_DIM_CAP:
            raise ValueError(f"dim {tp.dim} > {_DENSE_DIM_CAP}, the dense eigensolve cap ({reason}); lower count={count} (--count)")
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
