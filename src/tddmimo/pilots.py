"""Orthonormal pilot construction, reverse-link pilot reception and LMMSE
channel estimation.

Conjugation convention (verified numerically in the tests): with pilots
collected column-wise in Psi (tau_rp x K, Psi^H Psi = I_K), the received
block is

    Y_r = sqrt(tau_rp) * H^T * E_r * Psi^H + V_r        (M x tau_rp)

and the estimator contracts with Psi^T acting on Y_r^T, so that the
noise-free estimate reduces to diag(rho_r*tau / (1 + rho_r*tau)) * H.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .channel_model import RngStream, SystemConfig, draw_channel


def build_pilots(tau_rp: int, K: int) -> np.ndarray:
    """First K columns of the unitary DFT matrix of size tau_rp.

    Exactly orthonormal columns with constant-modulus entries.
    """
    if K < 1 or tau_rp < K:
        raise ValueError(f"pilots require 1 <= K <= tau_rp, got K={K}, tau_rp={tau_rp}")
    t = np.arange(tau_rp)
    k = np.arange(K)
    return np.exp(-2j * np.pi * np.outer(t, k) / tau_rp) / np.sqrt(tau_rp)


def simulate_reverse_pilots(H: np.ndarray, config: SystemConfig, psi: np.ndarray,
                            rng: RngStream, *, _noise: np.ndarray | None = None) -> np.ndarray:
    """Received training block Y_r (M x tau_rp) on the reverse link, or one
    per channel of a stack H (..., K, M).

    `_noise` is a test hook: pass an explicit noise block of the output's
    shape (e.g. zeros) to bypass the random draw.
    """
    lead, shape = H.shape[:-2], (config.M, config.tau_rp)
    if H.shape[-2:] != (config.K, config.M):
        raise ValueError(f"H has shape {H.shape}, expected (..., {config.K}, {config.M})")
    if psi.shape != (config.tau_rp, config.K):
        raise ValueError(f"psi has shape {psi.shape}, expected ({config.tau_rp}, {config.K})")
    v_r = (draw_channel(*shape, rng, math.prod(lead)).reshape(lead + shape) if _noise is None
           else np.asarray(_noise))
    if v_r.shape != lead + shape:
        raise ValueError("noise hook has wrong shape")
    return np.sqrt(config.tau_rp) * np.swapaxes(H, -1, -2) @ config.e_r @ psi.conj().T + v_r


@dataclass(frozen=True)
class EstimatedChannel:
    """LMMSE estimate h_hat (K x M, or a stack of them) with per-row variances.

    est_var[k] = rho_rk*tau / (1 + rho_rk*tau) is the variance of the
    estimate entries; err_var[k] = 1 / (1 + rho_rk*tau) is the variance of
    the estimation-error entries.  They sum to 1 per row.
    """

    h_hat: np.ndarray
    est_var: np.ndarray
    err_var: np.ndarray


def lmmse_estimate(y_r: np.ndarray, psi: np.ndarray, config: SystemConfig) -> EstimatedChannel:
    """LMMSE channel estimate from the received training block, or one per
    block of a stack (..., M, tau_rp)."""
    if y_r.shape[-2:] != (config.M, config.tau_rp):
        raise ValueError(f"y_r has shape {y_r.shape}, expected (..., {config.M}, {config.tau_rp})")
    if psi.shape != (config.tau_rp, config.K):
        raise ValueError(f"psi has shape {psi.shape}, expected ({config.tau_rp}, {config.K})")
    rt = config.rho_r * config.tau_rp
    gains = np.sqrt(config.rho_r * config.tau_rp) / (1.0 + rt)
    h_hat = gains[:, None] * (psi.T @ np.swapaxes(y_r, -1, -2))
    return EstimatedChannel(h_hat=h_hat, est_var=rt / (1.0 + rt), err_var=1.0 / (1.0 + rt))
