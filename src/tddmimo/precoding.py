"""Pseudo-inverse pre-conditioning, its heterogeneous variant, the
trace-inverse statistic chi and the forward-link simulation, for one channel
(N x M, N <= M) or a stack of them with leading sample axes (..., N, M).

The Gram matrix G = H H^H (`gram`) is not inverted directly:
`_inverse_cholesky` inverts its Cholesky factor, G^{-1} = L^{-H} L^{-1},
and guards every draw against cond(G) > COND_LIMIT.  The factor comes in
two halves, each a pass of a few numpy operations per step over the whole
stack of draws, so neither makes a call per matrix into LAPACK: `_cholesky`
builds L from G by Crout, and `triangular_inverse` builds L^{-1} and its
cumulative row norms, tr(G_N^{-1}) for every leading block.  The Monte
Carlo kernel (`moments`) draws L itself and shares only the second half.
The guard is certified first: a draw with tr(G) tr(G^{-1}) <= COND_LIMIT
passes without its eigenvalues, and only a stack with a draw that fails
the certificate pays for the eigenvalue check (`well_conditioned`), which
the kernel shares too.  The precoders return (A, chi) as arrays and raise
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
    True where the draw is well conditioned (`well_conditioned`), l_inv
    stacks L^{-1} of those draws only, in order, and tr_inv[j, N-1] =
    tr(G_N^{-1}) = sum_{i<N} ||row_i(L^{-1})||^2 for the leading N x N block.

    The whole stack is factored first.  For a positive-definite G,
    lambda_max <= tr(G) and 1/lambda_min <= tr(G^{-1}), so cond(G) <=
    tr(G) tr(G^{-1}), and a stack whose draws all have tr(G) tr(G^{-1}) <=
    COND_LIMIT passes as it is.  A draw that is not positive definite
    factors to a non-finite trace, which fails the certificate like any
    other uncertified draw, and the stack takes the eigenvalue guard
    instead.  A draw's factor does not depend on the stack around it, so
    both routes give the same bits.
    """
    g = g.reshape((-1,) + g.shape[-2:])
    with np.errstate(divide="ignore", invalid="ignore"):
        l_inv, tr_inv = triangular_inverse(_cholesky(g))
        certified = np.all(np.trace(g, axis1=1, axis2=2).real * tr_inv[:, -1] <= COND_LIMIT)
    if certified:
        return np.ones(len(g), bool), l_inv, tr_inv
    ok = well_conditioned(g)
    return (ok, *triangular_inverse(_cholesky(g[ok])))


def well_conditioned(g: np.ndarray) -> np.ndarray:
    """The guard itself, per Hermitian matrix of a stack (n, K, K): True
    where lambda_min > 0 and lambda_max <= COND_LIMIT * lambda_min."""
    lam = np.linalg.eigvalsh(g)
    return (lam[:, 0] > 0) & (lam[:, -1] <= COND_LIMIT * lam[:, 0])


def _cholesky(g: np.ndarray) -> np.ndarray:
    """The lower Cholesky factor L of G = L L^H per matrix of a Gram stack
    (n, K, K), by one Crout pass over the columns (Golub & Van Loan, Matrix
    Computations, 4.2), every step numpy operations over the n draws.  Step
    j forms row j of L^H, the conjugate of column j of L, as
    (G[j, j:] - L[j, :j] L^H[:j, j:]) / L_jj: one vector-matrix product per
    draw.  Only the upper triangle of G is read.  A draw that is not
    positive definite gets a NaN or infinite pivot."""
    l_h = np.zeros(g.shape, np.promote_types(g.dtype, np.float64))
    for j in range(g.shape[-1]):
        row = g[:, j, j:] - (l_h[:, None, :j, j].conj() @ l_h[:, :j, j:])[:, 0]
        l_h[:, j, j:] = row / np.sqrt(row[:, :1].real)
    return np.conjugate(l_h, out=l_h).swapaxes(1, 2)


def triangular_inverse(l: np.ndarray):
    """(L^{-1}, cumulative row norms of L^{-1}) of a stack (n, K, K) of lower
    triangular L with a real positive diagonal: entry [j, N-1] of the norms
    is sum_{i<N} ||row_i(L^{-1})||^2, which is tr(G_N^{-1}) for G = L L^H.

    Forward substitution by rows, every step numpy operations over the n
    draws: row j of L^{-1} is -L[j, :j] L^{-1}[:j, :j] / L_jj with 1/L_jj on
    its diagonal, one vector-matrix product per draw.  Row j reads only
    the first j + 1 rows of L, and a draw's products are its own matrix
    products, so its bits depend neither on the rows below nor on the size
    of the stack or its place in it.  A zero, NaN or infinite pivot spreads
    to the trace.
    """
    l_inv = np.zeros(l.shape, np.promote_types(l.dtype, np.float64))
    norms = np.empty(l.shape[:-1])  # ||row_j(L^{-1})||^2
    for j in range(l.shape[-1]):
        d = 1 / l[:, j, j].real
        l_inv[:, j, :j] = (l[:, None, j, :j] @ l_inv[:, :j, :j])[:, 0] * -d[:, None]
        l_inv[:, j, j] = d
        w = l_inv[:, j, :j + 1].view(np.float64)
        norms[:, j] = (w * w).sum(axis=1)
    return l_inv, np.cumsum(norms, axis=1)


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
