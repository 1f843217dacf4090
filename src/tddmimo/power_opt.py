"""Large-antenna power optimization for the heterogeneous precoder.

The weighted-sum bound collapses, in the M-large regime, to the objective
J(p) = sum_i w_i log2(1 + beta_i p_i / sum_j alpha_j p_j), whose maximizers
form the ray c * p_bar with p_bar_i = (w_i / (lambda* alpha_i) - 1/beta_i)^+
and lambda* fixing sum_i alpha_i p_bar_i = 1.  The users with positive power
are a prefix of the users sorted by w_i beta_i / alpha_i (Palomar &
Fonollosa, IEEE Trans. Signal Process. 2005), so lambda* has a closed form.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .channel_model import SystemConfig


@dataclass(frozen=True)
class PowerAllocation:
    """Optimized powers and the multiplier.

    Normalized so that sum_i alpha_i * p_star_i = 1 (the free scale of the
    maximizer family is fixed to c = 1).
    """

    p_star: np.ndarray
    lambda_star: float

    @property
    def active(self) -> np.ndarray:
        """Mask of the users with positive power."""
        return self.p_star > 0.0


def alpha_beta(config: SystemConfig) -> tuple[np.ndarray, np.ndarray]:
    """Coefficients of the M-large objective for the given config.

    alpha_j = (1 + rho_rj*tau) / (rho_rj*tau) and
    beta_i = M * rho_fi / (1 + rho_fi / (1 + rho_ri*tau)).
    """
    rt = config.rho_r * config.tau_rp
    alpha = (1.0 + rt) / rt
    beta = config.M * config.rho_f / (1.0 + config.rho_f / (1.0 + rt))
    return alpha, beta


def j_objective(p, w, alpha, beta) -> float:
    """M-large weighted-sum objective J(p); scale-invariant in p."""
    p = np.asarray(p, dtype=float)
    w = np.asarray(w, dtype=float)
    alpha = np.asarray(alpha, dtype=float)
    beta = np.asarray(beta, dtype=float)
    if np.any(p < 0):
        raise ValueError("powers must be nonnegative")
    denom = float(alpha @ p)
    if denom <= 0:
        raise ValueError("p must have at least one positive entry")
    return float(w @ np.log2(1.0 + beta * p / denom))


def waterfill(w, alpha, beta) -> PowerAllocation:
    """Waterfilling maximizer of J under the normalization alpha . p = 1.

    With the users sorted by threshold t_i = w_i beta_i / alpha_i, best
    first, the multiplier of the n best is lambda_n = W_n / (1 + A_n), where
    W_n and A_n are the partial sums of w and a = alpha / beta.  The active
    set is the longest prefix with t_(n) > lambda_n, and lambda* its
    lambda_n.  The best user is always kept: t_(1) = w_1 / a_1 > lambda_1
    holds in exact arithmetic but fails when 1 + a_1 rounds to a_1.  The
    active powers (w_i + sum_j (w_i a_j - w_j a_i)) / (W_n alpha_i) equal
    w_i / (lambda* alpha_i) - 1/beta_i without cancelling two terms of
    order 1/beta_i: one user gets 1/alpha, however small next to 1/beta.
    """
    w = np.asarray(w, dtype=float)
    alpha = np.asarray(alpha, dtype=float)
    beta = np.asarray(beta, dtype=float)
    if np.any(w < 0) or not np.any(w > 0):
        raise ValueError("weights must be nonnegative with at least one positive")
    if np.any(alpha <= 0) or np.any(beta <= 0):
        raise ValueError("alpha and beta must be strictly positive")

    a = alpha / beta
    thresholds = w * beta / alpha
    order = np.argsort(-thresholds, kind="stable")
    total_w = np.cumsum(w[order])
    lams = total_w / (1.0 + np.cumsum(a[order]))
    n = max(1, int(np.logical_and.accumulate(thresholds[order] > lams).sum()))
    on = order[:n]
    cross = np.sum(w[on, None] * a[on] - w[on] * a[on, None], axis=1)
    p_star = np.zeros(w.size)
    p_star[on] = np.maximum(w[on] + cross, 0.0) / (total_w[n - 1] * alpha[on])
    return PowerAllocation(p_star=p_star, lambda_star=float(lams[n - 1]))
