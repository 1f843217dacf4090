"""User selection: top-N estimated-gain ordering and its weighted
heterogeneous variant.

Every ordering, the Monte Carlo kernel's included, is `best_first`: ties go
to the lower user index, so selections are deterministic and reproducible.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .channel_model import SystemConfig


@dataclass(frozen=True)
class Selection:
    """Ordered list of selected user indices (0-based), best first."""

    indices: tuple[int, ...]

    def __post_init__(self):
        if len(self.indices) < 1 or len(set(self.indices)) != len(self.indices):
            raise ValueError("indices must be nonempty and distinct")


def best_first(scores: np.ndarray) -> np.ndarray:
    """User indices by descending score along the last axis; the stable sort
    on -score keeps lower indices first among ties."""
    return np.argsort(-scores, axis=-1, kind="stable")


def _top_n(scores: np.ndarray, n: int) -> Selection:
    if n < 1 or n > scores.size:
        raise IndexError(f"need 1 <= N <= {scores.size}, got N={n}")
    return Selection(indices=tuple(int(i) for i in best_first(scores)[:n]))


def select_top_norm(h_hat: np.ndarray, N: int) -> Selection:
    """Indices of the N rows of h_hat with largest Euclidean norms."""
    h = np.atleast_2d(h_hat)
    return _top_n(np.sum(np.abs(h) ** 2, axis=1), N)


def select_weighted_order(h_hat: np.ndarray, p_star: np.ndarray,
                          config: SystemConfig, N: int) -> Selection:
    """Heterogeneous ordering by p_star_k * ||z_k||^2.

    The z rows are the estimate rows rescaled to unit variance by
    sqrt((1 + rho_rk*tau) / (rho_rk*tau)).  Zero-power users rank last and
    are only selected once every positive-score user is taken.
    """
    h = np.atleast_2d(h_hat)
    p_star = np.asarray(p_star, dtype=float)
    if p_star.shape != (h.shape[0],):
        raise ValueError("p_star must have one entry per row of h_hat")
    if np.any(p_star < 0):
        raise ValueError("p_star entries must be nonnegative")
    rt = config.rho_r * config.tau_rp
    z_norm_sq = ((1.0 + rt) / rt) * np.sum(np.abs(h) ** 2, axis=1)
    return _top_n(p_star * z_norm_sq, N)
