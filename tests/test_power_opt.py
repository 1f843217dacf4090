import numpy as np
import pytest

from tddmimo import (RngStream, SystemConfig, alpha_beta, draw_channel,
                     j_objective, waterfill)
from tddmimo.scheduling import best_first


def test_alpha_beta_values():
    cfg = SystemConfig.homogeneous(M=16, K=2, T=30, tau_rp=10,
                                   rho_f=1.0, rho_r=0.1)
    alpha, beta = alpha_beta(cfg)
    assert np.allclose(alpha, 2.0, atol=1e-12)
    assert np.allclose(beta, 16.0 / 1.5, atol=1e-4)


def test_alpha_beta_high_snr_limit():
    cfg = SystemConfig.homogeneous(M=8, K=3, T=300, tau_rp=100,
                                   rho_f=2.0, rho_r=1e7)
    alpha, beta = alpha_beta(cfg)
    assert np.allclose(alpha, 1.0, rtol=1e-6)
    assert np.allclose(beta, 8 * 2.0, rtol=1e-6)


def test_alpha_beta_elementwise_order():
    cfg = SystemConfig(M=4, K=3, T=20, tau_rp=4,
                       rho_f=np.array([0.5, 1.0, 2.0]),
                       rho_r=np.array([0.1, 0.2, 0.4]))
    alpha, beta = alpha_beta(cfg)
    rt = cfg.rho_r * 4
    assert np.allclose(alpha, (1 + rt) / rt, atol=1e-12)
    assert np.allclose(beta, 4 * cfg.rho_f / (1 + cfg.rho_f / (1 + rt)), atol=1e-12)
    assert np.all(alpha > 1)


def test_objective_symmetric_case():
    val = j_objective(np.full(3, 0.2), np.full(3, 1.5), np.full(3, 2.0),
                      np.full(3, 7.0))
    assert val == pytest.approx(3 * 1.5 * np.log2(1 + 7.0 / (3 * 2.0)), abs=1e-12)


def test_objective_scale_invariance():
    p = np.array([0.3, 0.1, 0.6])
    w = np.array([2.0, 1.0, 0.5])
    alpha = np.array([1.0, 2.0, 1.5])
    beta = np.array([5.0, 8.0, 3.0])
    a = j_objective(p, w, alpha, beta)
    assert j_objective(2 * p, w, alpha, beta) == pytest.approx(a, abs=1e-12)


def test_objective_two_user_oracle():
    # independent recomputation of the display formula
    w, alpha, beta = (2.0, 1.0), (1.0, 2.0), (5.0, 8.0)
    p = (0.3, 0.35)
    denom = 1.0 * 0.3 + 2.0 * 0.35
    expected = 2.0 * np.log2(1 + 5.0 * 0.3 / denom) + np.log2(1 + 8.0 * 0.35 / denom)
    assert j_objective(p, w, alpha, beta) == pytest.approx(expected, abs=1e-12)


def test_objective_rejects_zero_vector():
    with pytest.raises(ValueError):
        j_objective(np.zeros(2), np.ones(2), np.ones(2), np.ones(2))


def test_waterfill_symmetric():
    pa = waterfill(np.ones(2), np.ones(2), np.full(2, 10.0))
    assert np.allclose(pa.p_star, 0.5, atol=1e-10)
    assert pa.lambda_star == pytest.approx(5 / 3, abs=1e-10)
    assert np.all(pa.active)


def test_waterfill_weight_proportional_limit():
    pa = waterfill(np.array([2.0, 1.0]), np.ones(2), np.full(2, 1e9))
    assert np.allclose(pa.p_star, [2 / 3, 1 / 3], atol=1e-6)


def test_waterfill_drops_weak_user():
    pa = waterfill(np.ones(2), np.ones(2), np.array([100.0, 0.01]))
    assert pa.p_star[1] == 0.0
    assert pa.p_star[0] == pytest.approx(1.0, abs=1e-10)
    assert list(pa.active) == [True, False]


def test_waterfill_zero_weight_gets_zero_power():
    pa = waterfill(np.array([1.0, 0.0, 2.0]), np.ones(3), np.full(3, 10.0))
    assert pa.p_star[1] == 0.0
    assert not pa.active[1]


# (seed, users or None for 2-5, leading zero weights, equal users in pairs)
_KKT_CASES = [pytest.param(seed, None, 0, False, id=str(seed)) for seed in range(6)] + [
    pytest.param(6, 1, 0, False, id="K1"),
    *(pytest.param(k, k, 0, False, id=f"K{k}") for k in range(7, 12)),
    pytest.param(12, 6, 0, True, id="tied"),
    pytest.param(13, 9, 3, False, id="zero-weights"),
    pytest.param(14, 11, 4, True, id="tied-zero-weights"),
]


@pytest.mark.parametrize("seed,k,zeros,tied", _KKT_CASES)
def test_waterfill_constraint_and_kkt(seed, k, zeros, tied):
    rng = np.random.default_rng(seed)
    k = int(rng.integers(2, 6)) if k is None else k
    w = rng.uniform(0.1, 3.0, k)
    alpha = rng.uniform(1.0, 4.0, k)
    beta = rng.uniform(0.05, 50.0, k)
    if tied:  # users 2j and 2j+1 are equal, so their thresholds tie
        w, alpha, beta = (np.repeat(x[:(k + 1) // 2], 2)[:k] for x in (w, alpha, beta))
    w[:zeros] = 0.0
    pa = waterfill(w, alpha, beta)
    assert abs(alpha @ pa.p_star - 1.0) < 1e-10
    closed = np.maximum(w / (pa.lambda_star * alpha) - 1.0 / beta, 0.0)
    assert np.abs(pa.p_star - closed).max() < 1e-10
    for i in range(k):
        if pa.active[i]:
            assert w[i] / (alpha[i] * (pa.p_star[i] + 1 / beta[i])) == pytest.approx(
                pa.lambda_star, abs=1e-8)
        else:
            assert w[i] * beta[i] / alpha[i] <= pa.lambda_star + 1e-8


@pytest.mark.parametrize("w,alpha,beta", [
    # 1 + alpha/beta rounds to alpha/beta (about 1e17), so lambda_1 rounds to
    # t_1 and the prefix test can find no active user
    ([1.0], [1e19], [100.0]),
    ([2.0, 1.0], [1e19, 3e19], [100.0, 100.0]),
    ([1.0, 1.0, 0.5], [2e18, 2e18, 5e18], [20.0, 20.0, 40.0]),
    ([2.0] * 4 + [1.0] * 4, np.geomspace(1e18, 1e19, 8), np.linspace(8.0, 60.0, 8)),
], ids=["one-user", "two-users", "tied-users", "fig5-shaped"])
def test_waterfill_at_extreme_reverse_sinr(w, alpha, beta):
    alpha = np.asarray(alpha, dtype=float)
    pa = waterfill(w, alpha, beta)
    assert np.all(np.isfinite(pa.p_star)) and np.isfinite(pa.lambda_star)
    assert np.any(pa.p_star > 0) and np.all(pa.p_star >= 0)
    assert abs(alpha @ pa.p_star - 1.0) < 1e-12


def test_waterfill_beats_coarse_grid():
    w = np.array([1.0, 0.4])
    alpha = np.array([1.5, 2.5])
    beta = np.array([12.0, 3.0])
    pa = waterfill(w, alpha, beta)
    best = -np.inf
    for x in np.linspace(1e-6, 1 - 1e-6, 2001):
        p = np.array([x / alpha[0], (1 - x) / alpha[1]])
        best = max(best, j_objective(p, w, alpha, beta))
    assert j_objective(pa.p_star, w, alpha, beta) >= best - 1e-6


def test_waterfill_input_validation():
    with pytest.raises(ValueError):
        waterfill(np.zeros(2), np.ones(2), np.ones(2))
    with pytest.raises(ValueError):
        waterfill(np.ones(2), np.array([1.0, -1.0]), np.ones(2))
    with pytest.raises(ValueError):
        waterfill(np.ones(2), np.ones(2), np.array([1.0, 0.0]))


def test_selection_invariant_to_power_scale():
    cfg = SystemConfig(M=8, K=3, T=20, tau_rp=3,
                       rho_f=np.array([0.5, 1.0, 2.0]),
                       rho_r=np.array([0.05, 0.1, 0.2]))
    alpha, beta = alpha_beta(cfg)
    pa = waterfill(cfg.weights, alpha, beta)
    z_sq = np.sum(np.abs(draw_channel(3, 8, RngStream(77))) ** 2, axis=1)  # ||z_k||^2
    np.testing.assert_array_equal(best_first(pa.p_star * z_sq),
                                  best_first(42.0 * pa.p_star * z_sq))
