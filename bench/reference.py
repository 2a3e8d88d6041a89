"""Independent numpy recomputations that the benchmark checks outputs against.

Nothing here imports chordnoise. Every quantity is rebuilt from its
definition (the translation operator, the Gaussian chord spectrum, the
cat-map kernel, the coherent-state formula), so each check compares two
separate computations rather than the program against itself.
"""

from __future__ import annotations

import numpy as np


def centered(k, n: int):
    """Representatives of k mod N in [-N/2, N/2)."""
    return (np.asarray(k) + n // 2) % n - n // 2


def window_halfwidth(a_coeff: float, sigma: float) -> int:
    return int(np.floor(a_coeff / (2 * np.pi * sigma)))


def window_dim(a_coeff: float, sigma: float) -> int:
    """4 * floor(a / (2 pi sigma))^2, the dimension the paper's window keeps."""
    return 4 * window_halfwidth(a_coeff, sigma) ** 2


def window_labels(a_coeff: float, sigma: float, n: int) -> np.ndarray:
    """Canonical (q, p) labels of the centered window [-W, W)^2, row-major, shape (dim, 2)."""
    w = window_halfwidth(a_coeff, sigma)
    offs = np.arange(-w, w) % n
    q, p = np.meshgrid(offs, offs, indexing="ij")
    return np.stack([q.ravel(), p.ravel()], axis=1)


def gaussian_sigma(q, p, n: int, sigma: float):
    """Gaussian channel eigenvalue exp(-2 pi^2 sigma^2 (mu_c^2 + nu_c^2))."""
    return np.exp(-2.0 * np.pi**2 * sigma**2 * (centered(q, n) ** 2 + centered(p, n) ** 2))


def translation(n: int, q: int, p: int) -> np.ndarray:
    """T_(q,p) |m> = exp[(2 pi i / N) p (m + q/2)] |m + q mod N>."""
    m = np.arange(n)
    t = np.zeros((n, n), dtype=complex)
    t[(m + q) % n, m] = np.exp(2j * np.pi * p * (m + q / 2.0) / n)
    return t


def kicked_cat_unitary(n: int, spec: tuple, k: float) -> np.ndarray:
    """U = U_M K with the generating-function kernel of [[a, b], [c, d]] (b != 0)
    and the cosine kick K = diag(exp[-i (k N / 2 pi) cos(2 pi m / N)])."""
    a, b, _, d = spec
    m = np.arange(n)
    col, row = m[None, :], m[:, None]
    um = np.exp(1j * np.pi * (a * col**2 - 2 * col * row + d * row**2) / (n * b)) / np.sqrt(n)
    kick = np.exp(-1j * (k * n / (2 * np.pi)) * np.cos(2 * np.pi * m / n))
    return um * kick[None, :]


def propagator_column(u: np.ndarray, sigma: float, col: tuple, rows: np.ndarray) -> np.ndarray:
    """Entries Sigma(lam') (1/N) Tr[T_lam'^dag U T_lam U^dag] for lam = col over the given rows.

    T_lam' has one nonzero per column, so each trace is a length-N sum,
    gathered directly instead of through a chord transform.
    """
    n = u.shape[0]
    v = u @ translation(n, int(col[0]), int(col[1])) @ u.conj().T
    rq, rp = rows[:, 0][:, None], rows[:, 1][:, None]
    m = np.arange(n)[None, :]
    phase = np.exp(-2j * np.pi * rp * (m + rq / 2.0) / n)
    traces = (v[(m + rq) % n, m] * phase).sum(axis=1)
    return gaussian_sigma(rows[:, 0], rows[:, 1], n, sigma) * traces / n


def cat_state(n: int, c1: tuple, c2: tuple, images: int = 4) -> np.ndarray:
    """Normalized sum of two periodized Gaussian packets centered at c1, c2 in [0, 1)^2."""

    def packet(q0, p0):
        x = np.arange(n) / n
        amp = sum(
            np.exp(-np.pi * n * (x - q0 + j) ** 2 + 2j * np.pi * n * p0 * (x + j))
            for j in range(-images, images + 1)
        )
        return amp / np.linalg.norm(amp)

    psi = packet(*c1) + packet(*c2)
    return psi / np.linalg.norm(psi)


def purity_depolarizing(n: int, eps: float) -> float:
    """Tr rho'^2 for rho' = (1 - eps) rho + eps I/N and a pure rho."""
    return (1 - eps) ** 2 + (2 * eps - eps**2) / n


def purity_position_dephasing(psi: np.ndarray, eps: float) -> float:
    """Tr rho'^2 for rho' = (1 - eps) rho + eps diag(rho): the (0,1,0) line channel."""
    s = float(np.sum(np.abs(psi) ** 4))
    return s + (1 - eps) ** 2 * (1 - s)


def purity_gaussian(psi: np.ndarray, sigma: float) -> float:
    """sum_lam exp(-4 pi^2 sigma^2 |lam_c|^2) |rho_hat(lam)|^2 for rho = |psi><psi|.

    |rho_hat(q, p)|^2 = |sum_m rho[m+q, m] e^{-2 pi i p m / N}|^2 / N; the
    translation phases drop out of the modulus.
    """
    n = psi.shape[0]
    m = np.arange(n)
    diag = psi[(m[None, :] + m[:, None]) % n] * psi.conj()[None, :]
    power = np.abs(np.fft.fft(diag, axis=1)) ** 2 / n
    return float(np.sum(gaussian_sigma(m[:, None], m[None, :], n, sigma) ** 2 * power))


def greedy_partner_distances(e1, e2, count: int) -> list:
    """Distance from each of the top `count` of e1 to its partner among the top `count` of e2.

    Pairing in modulus order, each taking the nearest unused partner, as
    chordnoise's stability report documents it.
    """
    pool = list(e2[:count])
    out = []
    for z in e1[:count]:
        dists = [abs(z - y) for y in pool]
        j = int(np.argmin(dists))
        out.append(dists[j])
        pool.pop(j)
    return out
