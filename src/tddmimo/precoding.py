"""Pseudo-inverse pre-conditioning, its heterogeneous variant, the
trace-inverse statistic chi and the forward-link simulation, for one channel
(N x M, N <= M) or a stack of them with leading sample axes (..., N, M).

These are the plain formulas, the reference the Monte Carlo kernel
(`moments`) is checked against: G = H H^H (`gram`) is inverted by
np.linalg.inv once every draw has passed the guard, cond(G) <= COND_LIMIT
(`well_conditioned`, the guard's one definition, which the kernel shares).
The precoders return (A, chi) as arrays and raise SingularChannelError when
a draw fails the guard, so callers can resample and count the event.
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


def well_conditioned(g: np.ndarray) -> np.ndarray:
    """The guard, per Hermitian matrix of a stack (..., K, K): True where
    lambda_min > 0 and lambda_max <= COND_LIMIT * lambda_min."""
    lam = np.linalg.eigvalsh(g)
    return (lam[..., 0] > 0) & (lam[..., -1] <= COND_LIMIT * lam[..., 0])


def chi_of(h_hat_s: np.ndarray):
    """Effective-gain statistic (tr[(H_hat_S H_hat_S^H)^{-1}])^{-1/2}."""
    return pinv_precoder(h_hat_s)[1]


def pinv_precoder(h_hat_s: np.ndarray) -> tuple[np.ndarray, float]:
    """Normalized pseudo-inverse precoder A (M x N) and its gain statistic chi.

    A = H^H G^{-1} / sqrt(tr(G^{-1})) with G = H H^H, so that tr(A^H A) = 1
    and H A = chi * I_N with chi = tr(G^{-1})^{-1/2} real positive.  A stack
    gives stacked A and chi.
    """
    h = np.atleast_2d(h_hat_s)
    g = gram(h)
    if not np.all(well_conditioned(g)):
        raise SingularChannelError(f"Gram matrix condition number exceeds {COND_LIMIT:g}")
    g_inv = np.linalg.inv(g)
    tr = np.trace(g_inv, axis1=-2, axis2=-1).real
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
