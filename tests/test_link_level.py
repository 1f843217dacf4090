"""Link-level check of the rate bounds' moments.

Over many coherence blocks, run reverse pilots -> LMMSE -> selection ->
pre-conditioning -> forward link, and estimate from the received samples
the effective gain and the effective noise variance of each served user.
The bounds c_ind_lb and c_wt_lb treat the gain's fluctuation and the
estimation error as uncorrelated noise (Hassibi & Hochwald, "How much
training is needed in multiple-antenna wireless links?", IEEE Trans. IT
2003), so both must match the Monte Carlo moments behind the bounds.
"""

import numpy as np
import pytest

from tddmimo import (RngStream, SystemConfig, build_pilots, draw_channel,
                     eta_moments, lmmse_estimate, modified_precoder,
                     pinv_precoder, simulate_forward, simulate_reverse_pilots,
                     weighted_phi_stats)
from tddmimo.scheduling import best_first

M, K, TAU, BLOCKS = 8, 4, 4, 100_000


def _served(x, order, n):
    """The rows of the n best users of each block, best first."""
    return np.take_along_axis(x, order[:, :n, None], axis=1)


def _run_link(cfg, scores_of, precoder, seed):
    """Per served count N: (order, Re(h_n a_n), x, q) over every block.

    scores_of(est) ranks the users of each block from the LMMSE estimate;
    precoder(h_hat_s, served) builds the forward precoder of the served set.
    """
    psi = build_pilots(TAU, K)
    h = draw_channel(K, M, RngStream(seed, 0), BLOCKS)
    est = lmmse_estimate(simulate_reverse_pilots(h, cfg, psi, RngStream(seed, 1)), psi, cfg)
    order = best_first(scores_of(est))
    runs = []
    for n in range(1, K + 1):
        h_s, served = _served(h, order, n), order[:, :n]
        a, _ = precoder(_served(est.h_hat, order, n), served)
        q = draw_channel(1, n, RngStream(seed, 2 * n), BLOCKS)[:, 0]
        q /= np.abs(q)  # unit-power symbols
        x = simulate_forward(h_s, a, q, cfg.rho_f[served], RngStream(seed, 2 * n + 1))
        runs.append((served, np.einsum("bnm,bmn->bn", h_s, a).real, x, q))
    return runs


def _mean_within_3_se(sample, mean, se):
    return abs(sample.mean() - mean) < 3 * np.hypot(sample.std() / np.sqrt(sample.size), se)


# ---------------------------------------------------------------------------
# (a) scheduled homogeneous users: the N best of K by ||h_hat||, pinv precoder
# ---------------------------------------------------------------------------

RHO_F, RHO_R = 1.0, 0.5
RT = RHO_R * TAU


@pytest.fixture(scope="module")
def homogeneous_link():
    cfg = SystemConfig.homogeneous(M=M, K=K, T=TAU + 2, tau_rp=TAU, rho_f=RHO_F, rho_r=RHO_R)
    return (_run_link(cfg, lambda est: np.sum(np.abs(est.h_hat) ** 2, axis=2),
                      lambda h_hat_s, _: pinv_precoder(h_hat_s), seed=901),
            eta_moments(M, K, 100_000, seed=902))


@pytest.mark.parametrize("n", range(1, K + 1))
def test_scheduled_gain_and_noise_match_eta(homogeneous_link, n):
    runs, eta = homogeneous_link
    _, gains, x, q = runs[n - 1]
    scale = RT / (1 + RT)
    e_chi = np.sqrt(scale) * eta.mean[n - 1]
    predicted = 1 + RHO_F * (1 / (1 + RT) + scale * eta.variance[n - 1])
    for user in range(n):  # each served user sees the same gain law
        assert _mean_within_3_se(gains[:, user], e_chi,
                                 np.sqrt(scale) * eta.std_error_of_mean[n - 1])
        eff_noise = x[:, user] - np.sqrt(RHO_F) * e_chi * q[:, user]
        assert abs(np.mean(np.abs(eff_noise) ** 2) / predicted - 1.0) < 0.03


# ---------------------------------------------------------------------------
# (b) weighted users: order by p_k ||z_k||^2, modified precoder with p_S
# ---------------------------------------------------------------------------

P = np.array([1.6, 1.2, 0.8, 0.4])
WT_RHO_F = np.array([0.5, 1.0, 2.0, 4.0])
WT_RHO_R = np.array([0.2, 0.5, 1.0, 2.0])


@pytest.fixture(scope="module")
def weighted_link():
    cfg = SystemConfig(M=M, K=K, T=TAU + 2, tau_rp=TAU, rho_f=WT_RHO_F, rho_r=WT_RHO_R)
    # z_k = h_hat_k / sqrt(est_var_k) has unit variance
    runs = _run_link(cfg, lambda est: P * np.sum(np.abs(est.h_hat) ** 2, axis=2) / est.est_var,
                     lambda h_hat_s, served: modified_precoder(h_hat_s, P[served]), seed=905)
    rt = WT_RHO_R * TAU
    stats = weighted_phi_stats(P ** -0.5 * np.sqrt(rt / (1 + rt)), P, M, 100_000, seed=906)
    return runs, stats


@pytest.mark.parametrize("n", range(1, K + 1))
def test_weighted_gain_noise_and_fraction_match_weighted_phi(weighted_link, n):
    runs, stats = weighted_link
    served, gains, x, q = runs[n - 1]
    checked = 0
    for k in range(K):
        frac = stats.frac[n - 1, k]
        if frac < 0.05:  # too few draws for a 3% variance gate
            continue
        mask = served == k  # at most one entry per block
        mean, var = stats.mean[n - 1, k], stats.variance[n - 1, k]
        assert _mean_within_3_se(gains[mask] / np.sqrt(P[k]), mean,
                                 stats.std_error_of_mean[n - 1, k])
        eff_noise = x[mask] - np.sqrt(WT_RHO_F[k] * P[k]) * mean * q[mask]
        predicted = 1 + WT_RHO_F[k] * (1 / (1 + WT_RHO_R[k] * TAU) + P[k] * var)
        assert abs(np.mean(np.abs(eff_noise) ** 2) / predicted - 1.0) < 0.03
        binomial_se = np.sqrt(frac * (1 - frac) * (1 / BLOCKS + 1 / stats.samples))
        assert abs(mask.any(axis=1).mean() - frac) <= 3 * binomial_se
        checked += 1
    assert checked >= 1
