"""Pseudo-inverse pre-conditioning, its heterogeneous variant, the scalar
trace-inverse statistics and the forward-link simulation.

The Gram matrix G = H_hat H_hat^H (N x N, N <= M) is inverted directly; its
condition number is checked against COND_LIMIT (`gram_is_regular`, shared
with the Monte Carlo kernel) and a SingularChannelError is raised past it so
Monte Carlo callers can resample and count the event.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .channel_model import RngStream, draw_channel
from .errors import SingularChannelError

COND_LIMIT = 1e12


@dataclass(frozen=True)
class PrecodingMatrix:
    """M x N pre-conditioning matrix with tr(A^H A) = 1."""

    a: np.ndarray


def gram_is_regular(gram: np.ndarray) -> np.ndarray:
    """True where a Hermitian Gram matrix (or each of a stack) has
    lambda_min > 0 and lambda_max <= COND_LIMIT * lambda_min."""
    lam = np.linalg.eigvalsh(gram)
    return (lam[..., 0] > 0) & (lam[..., -1] <= COND_LIMIT * lam[..., 0])


def _gram_inverse(h: np.ndarray) -> np.ndarray:
    """Inverse of h h^H with a condition-number guard."""
    n, m = h.shape
    if n > m:
        raise ValueError(f"need N <= M, got shape {h.shape}")
    gram = h @ h.conj().T
    if n == 0:
        raise ValueError("empty channel matrix")
    if not gram_is_regular(gram):
        raise SingularChannelError(
            f"Gram matrix condition number exceeds {COND_LIMIT:g}")
    return np.linalg.inv(gram)


def chi_of(h_hat_s: np.ndarray) -> float:
    """Effective-gain statistic (tr[(H_hat_S H_hat_S^H)^{-1}])^{-1/2}."""
    inv = _gram_inverse(np.atleast_2d(h_hat_s))
    return float(np.trace(inv).real) ** -0.5


def pinv_precoder(h_hat_s: np.ndarray) -> tuple[PrecodingMatrix, float]:
    """Normalized pseudo-inverse precoder and its gain statistic chi.

    A = H^H (H H^H)^{-1} / sqrt(tr[(H H^H)^{-1}]), so that tr(A^H A) = 1 and
    H A = chi * I_N with chi real positive.
    """
    h = np.atleast_2d(h_hat_s)
    inv = _gram_inverse(h)
    tr = float(np.trace(inv).real)
    a = h.conj().T @ inv / np.sqrt(tr)
    return PrecodingMatrix(a=a), tr ** -0.5


def modified_precoder(h_hat: np.ndarray, p: np.ndarray) -> tuple[PrecodingMatrix, float]:
    """Heterogeneous precoder built from H_D = diag(p^{-1/2}) H_hat.

    Requires strictly positive powers; zero-power users must be removed by
    the scheduler before calling.  Returns (A_D, phi) with H_D A_D = phi*I.
    """
    h = np.atleast_2d(h_hat)
    p = np.asarray(p, dtype=float)
    if p.shape != (h.shape[0],):
        raise ValueError("p must have one entry per row of h_hat")
    if np.any(p <= 0):
        raise ValueError("all powers must be strictly positive")
    d = p ** -0.5
    return pinv_precoder(d[:, None] * h)


def phi_f_of(f_diag: np.ndarray, z: np.ndarray) -> float:
    """Statistic (tr[(F Z Z^H F)^{-1}])^{-1/2} for positive diagonal F."""
    z = np.atleast_2d(z)
    f_diag = np.asarray(f_diag, dtype=float)
    if f_diag.shape != (z.shape[0],):
        raise ValueError("f_diag must have one entry per row of z")
    if np.any(f_diag <= 0):
        raise ValueError("F must be positive diagonal")
    return chi_of(f_diag[:, None] * z)


def simulate_forward(h_s: np.ndarray, a: PrecodingMatrix, q: np.ndarray,
                     rho_f, rng: RngStream, *, _noise: np.ndarray | None = None) -> np.ndarray:
    """Received vector x_f = E_f H_S A q + w_f at the selected users.

    `rho_f` is a scalar or per-user vector of forward SINRs; `_noise` is a
    test hook overriding the CN(0,1) noise draw.
    """
    n, m = h_s.shape
    if a.a.shape != (m, n):
        raise ValueError(f"precoder has shape {a.a.shape}, expected ({m}, {n})")
    q = np.asarray(q)
    if q.shape != (n,):
        raise ValueError(f"q must have length {n}")
    rho = np.broadcast_to(np.asarray(rho_f, dtype=float), (n,))
    w_f = draw_channel(1, n, rng)[0] if _noise is None else np.asarray(_noise)
    if w_f.shape != (n,):
        raise ValueError("noise hook has wrong shape")
    return np.sqrt(rho) * (h_s @ a.a @ q) + w_f
