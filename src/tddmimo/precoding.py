"""Pseudo-inverse pre-conditioning, its heterogeneous variant, the
trace-inverse statistic chi and the forward-link simulation, for one channel
(N x M, N <= M) or a stack of them with leading sample axes (..., N, M).

The Gram matrix G = H H^H (`gram`) is not inverted directly:
`_inverse_cholesky` inverts its Cholesky factor, G^{-1} = L^{-H} L^{-1},
and guards every draw against cond(G) > COND_LIMIT.  The guard is certified
first: a draw with tr(G) tr(G^{-1}) <= COND_LIMIT passes without its
eigenvalues, and only a stack with a draw that fails the certificate pays
for `eigvalsh`.  The Monte Carlo kernel reads the factor through
`chi_all_n`.  The precoders return (A, chi) as arrays and raise
SingularChannelError when a draw fails the guard, so callers can resample
and count the event.
"""

from __future__ import annotations

import math

import numpy as np

from .channel_model import RngStream, draw_channel
from .errors import SingularChannelError

COND_LIMIT = 1e12


def gram(h: np.ndarray) -> np.ndarray:
    """G = h h^H per channel of a stack (..., N, M), N <= M."""
    n, m = h.shape[-2:]
    if not 1 <= n <= m:
        raise ValueError(f"need 1 <= N <= M, got shape {h.shape}")
    return h @ h.conj().swapaxes(-1, -2)


def _inverse_cholesky(g: np.ndarray):
    """(ok, l_inv, tr_inv) for G = L L^H per matrix of a Gram stack: ok is
    True where lambda_min > 0 and lambda_max <= COND_LIMIT * lambda_min,
    l_inv stacks L^{-1} of those draws only, in order, and tr_inv[j, N-1] =
    tr(G_N^{-1}) = sum_{i<N} ||row_i(L^{-1})||^2 for the leading N x N block.

    The whole stack is factored first.  For a positive-definite G,
    lambda_max <= tr(G) and 1/lambda_min <= tr(G^{-1}), so cond(G) <=
    tr(G) tr(G^{-1}), and a stack whose draws all have tr(G) tr(G^{-1}) <=
    COND_LIMIT passes as it is.  When the stack's Cholesky fails or some draw
    is not certified, the stack takes the eigenvalue guard instead.  Each
    matrix is factored on its own, so both routes give the same bits.
    """
    g = g.reshape((-1,) + g.shape[-2:])
    try:
        l_inv, tr_inv = _factor(g)
        if np.all(np.trace(g, axis1=1, axis2=2).real * tr_inv[:, -1] <= COND_LIMIT):
            return np.ones(len(g), bool), l_inv, tr_inv
    except np.linalg.LinAlgError:
        pass
    lam = np.linalg.eigvalsh(g)
    ok = (lam[:, 0] > 0) & (lam[:, -1] <= COND_LIMIT * lam[:, 0])
    return (ok, *_factor(g[ok]))


def _factor(g: np.ndarray):
    """(L^{-1}, cumulative row norms of L^{-1}) of a Gram stack (n, K, K)."""
    l_inv = np.tril(np.linalg.inv(np.linalg.cholesky(g)))
    return l_inv, np.cumsum(np.sum(np.abs(l_inv) ** 2, axis=2), axis=1)


def chi_all_n(g: np.ndarray) -> np.ndarray:
    """chi of the N leading rows for every N, from the Gram stack g (..., K, K)
    of those rows, indexed [..., N-1], NaN where the draw fails the guard.
    The Cholesky factor of G_N is the leading block of L, so tr(G_N^{-1}) is
    a cumulative sum, and by Cauchy interlacing cond(G_N) <= cond(G).
    """
    ok, _, tr_inv = _inverse_cholesky(g)
    chi = np.full((ok.size, g.shape[-1]), np.nan)
    chi[ok] = tr_inv ** -0.5
    return chi.reshape(g.shape[:-1])


def chi_of(h_hat_s: np.ndarray):
    """Effective-gain statistic (tr[(H_hat_S H_hat_S^H)^{-1}])^{-1/2}."""
    return pinv_precoder(h_hat_s)[1]


def pinv_precoder(h_hat_s: np.ndarray) -> tuple[np.ndarray, float]:
    """Normalized pseudo-inverse precoder A (M x N) and its gain statistic chi.

    A = H^H L^{-H} L^{-1} / sqrt(tr[(H H^H)^{-1}]), so that tr(A^H A) = 1 and
    H A = chi * I_N with chi real positive.  A stack gives stacked A and chi.
    """
    h = np.atleast_2d(h_hat_s)
    ok, l_inv, tr_inv = _inverse_cholesky(gram(h))
    if not np.all(ok):
        raise SingularChannelError(f"Gram matrix condition number exceeds {COND_LIMIT:g}")
    l_inv = l_inv.reshape(h.shape[:-1] + h.shape[-2:-1])
    tr = tr_inv[:, -1].reshape(h.shape[:-2])
    g_inv = l_inv.conj().swapaxes(-1, -2) @ l_inv
    a = h.conj().swapaxes(-1, -2) @ g_inv / np.sqrt(tr)[..., None, None]
    return a, tr ** -0.5


def modified_precoder(h_hat: np.ndarray, p: np.ndarray) -> tuple[np.ndarray, float]:
    """Heterogeneous precoder built from H_D = diag(p^{-1/2}) H_hat.

    Requires strictly positive powers, p.shape == h_hat.shape[:-1]; zero-power
    users must be removed by the scheduler before calling.  Returns
    (A_D, phi) with H_D A_D = phi*I.
    """
    h = np.atleast_2d(h_hat)
    p = np.asarray(p, dtype=float)
    if p.shape != h.shape[:-1]:
        raise ValueError("p must have one entry per row of h_hat")
    if np.any(p <= 0):
        raise ValueError("all powers must be strictly positive")
    return pinv_precoder((p ** -0.5)[..., None] * h)


def simulate_forward(h_s: np.ndarray, a: np.ndarray, q: np.ndarray,
                     rho_f, rng: RngStream, *, _noise: np.ndarray | None = None) -> np.ndarray:
    """Received vector x_f = E_f H_S A q + w_f at the selected users (per
    channel of a stack).  `rho_f` is a scalar or per-user array of forward
    SINRs; `_noise` is a test hook overriding the CN(0,1) noise draw."""
    lead, (n, m) = h_s.shape[:-2], h_s.shape[-2:]
    if a.shape != lead + (m, n):
        raise ValueError(f"precoder has shape {a.shape}, expected {lead + (m, n)}")
    q = np.asarray(q)
    if q.shape != lead + (n,):
        raise ValueError(f"q must have shape {lead + (n,)}")
    rho = np.broadcast_to(np.asarray(rho_f, dtype=float), q.shape)
    w_f = (draw_channel(1, n, rng, math.prod(lead)).reshape(q.shape) if _noise is None
           else np.asarray(_noise))
    if w_f.shape != q.shape:
        raise ValueError("noise hook has wrong shape")
    return np.sqrt(rho) * (h_s @ a @ q[..., None])[..., 0] + w_f
