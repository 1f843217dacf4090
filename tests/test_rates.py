import numpy as np
import pytest

from tddmimo import (InfeasibleError, SystemConfig, c_ind_lb,
                     c_ind_lb_scheduled, c_net, c_sum_lb, c_wt_lb, c_wt_net,
                     eta_moments)
from tddmimo.rates import MomentSource


def test_zero_gain_gives_zero_rate():
    assert c_ind_lb(1.0, 0.5, 4, 0.0, 0.0) == 0.0
    assert c_ind_lb_scheduled(1.0, 0.5, 4, 0.0, 0.0) == 0.0


def test_perfect_csi_limit():
    val = c_ind_lb(2.0, 1e9, 4, 0.9, 0.0)
    assert val == pytest.approx(np.log2(1 + 2.0 * 0.81), abs=1e-6)


def test_direct_evaluation():
    assert c_ind_lb(1.0, 0.1, 4, 0.9, 0.05) == pytest.approx(0.54518, abs=1e-4)


def test_scheduled_formula_oracle():
    rho_f, rho_r, tau, e_eta, var_eta = 1.0, 0.1, 8, 2.0, 0.1
    gain = rho_r * tau / (1 + rho_r * tau)
    expected = np.log2(1 + rho_f * gain * e_eta ** 2
                       / (1 + rho_f * (1 / (1 + rho_r * tau) + gain * var_eta)))
    assert c_ind_lb_scheduled(rho_f, rho_r, tau, e_eta, var_eta) == pytest.approx(
        expected, abs=1e-6)


@pytest.mark.parametrize("rho_f,rho_r,tau,e_eta,var_eta", [
    (1.0, 0.1, 4, 1.8, 0.2), (0.5, 0.05, 8, 2.5, 0.01), (3.0, 1.0, 2, 1.0, 0.5),
])
def test_substitution_identity(rho_f, rho_r, tau, e_eta, var_eta):
    gain = rho_r * tau / (1 + rho_r * tau)
    via_chi = c_ind_lb(rho_f, rho_r, tau, np.sqrt(gain) * e_eta, gain * var_eta)
    via_eta = c_ind_lb_scheduled(rho_f, rho_r, tau, e_eta, var_eta)
    assert abs(via_chi - via_eta) < 1e-12


def test_monotonicities():
    base = c_ind_lb(1.0, 0.2, 4, 0.9, 0.05)
    for rho_f in (1.5, 2.0, 4.0):
        assert c_ind_lb(rho_f, 0.2, 4, 0.9, 0.05) > base
    for e in (1.0, 1.2):
        assert c_ind_lb(1.0, 0.2, 4, e, 0.05) > base
    for v in (0.1, 0.5):
        assert c_ind_lb(1.0, 0.2, 4, 0.9, v) < base


def test_rejects_bad_inputs():
    with pytest.raises(ValueError):
        c_ind_lb(-1.0, 0.1, 4, 0.9, 0.05)
    with pytest.raises(ValueError):
        c_ind_lb(1.0, 0.1, 4, -0.9, 0.05)


def test_sum_lb_single_user():
    src = MomentSource(5000, 21)
    cfg = SystemConfig.homogeneous(M=4, K=1, T=10, tau_rp=2, rho_f=1.0, rho_r=0.1)
    rp = c_sum_lb(cfg, scheduled=True, moment_source=src)
    mom = eta_moments(4, 1, 5000, 21)
    assert rp.n_selected == 1
    assert rp.rate == pytest.approx(
        c_ind_lb_scheduled(1.0, 0.1, 2, mom.mean[0], mom.variance[0]), abs=1e-12)


def test_sum_lb_matches_hand_assembly():
    src = MomentSource(5000, 22)
    cfg = SystemConfig.homogeneous(M=4, K=2, T=10, tau_rp=2, rho_f=1.0, rho_r=0.1)
    rp = c_sum_lb(cfg, scheduled=False, moment_source=src)
    by_hand = max(
        n * c_ind_lb_scheduled(1.0, 0.1, 2, mom.mean[n - 1], mom.variance[n - 1])
        for n, mom in ((1, eta_moments(4, 1, 5000, 22)),
                       (2, eta_moments(4, 2, 5000, 22))))
    assert rp.rate == pytest.approx(by_hand, abs=1e-12)


def test_sum_lb_requires_homogeneous():
    src = MomentSource(1000, 23)
    cfg = SystemConfig(M=4, K=2, T=10, tau_rp=2,
                       rho_f=np.array([1.0, 2.0]), rho_r=np.array([0.1, 0.1]))
    with pytest.raises(ValueError):
        c_sum_lb(cfg, scheduled=True, moment_source=src)


def test_net_rate_minimal_coherence():
    src = MomentSource(5000, 24)
    rp = c_net(4, 3, 1.0, 0.1, scheduled=True, moment_source=src)
    assert (rp.tau_rp, rp.K, rp.n_selected) == (1, 1, 1)
    cfg = SystemConfig.homogeneous(M=4, K=1, T=3, tau_rp=1, rho_f=1.0, rho_r=0.1)
    inner = c_sum_lb(cfg, scheduled=True, moment_source=src)
    assert rp.rate == pytest.approx(inner.rate / 3, abs=1e-12)


def test_net_rate_prelog_bookkeeping():
    src = MomentSource(3000, 25)
    rp = c_net(4, 8, 1.0, 0.1, scheduled=True, moment_source=src)
    assert rp.auxiliary["prelog"] == pytest.approx((8 - rp.tau_rp - 1) / 8, abs=0)


def test_net_rate_infeasible():
    src = MomentSource(1000, 26)
    with pytest.raises(InfeasibleError):
        c_net(4, 2, 1.0, 0.1, scheduled=True, moment_source=src)


def test_wt_lb_reduces_to_homogeneous():
    cfg = SystemConfig.homogeneous(M=8, K=3, T=20, tau_rp=3, rho_f=1.0, rho_r=0.1)
    p, mean, var = 0.8, 1.7, 0.04
    expected = 3 * c_ind_lb(1.0, 0.1, 3, np.sqrt(p) * mean, p * var)
    assert c_wt_lb(cfg, np.full(3, p), mean, var) == pytest.approx(expected, abs=1e-12)


def test_wt_lb_zero_weight_user():
    cfg = SystemConfig(M=8, K=2, T=20, tau_rp=2,
                       rho_f=np.array([1.0, 50.0]), rho_r=np.array([0.1, 5.0]),
                       weights=np.array([1.0, 0.0]))
    with_user = c_wt_lb(cfg, np.array([0.5, 0.5]), 1.5, 0.1)
    cfg_alone = SystemConfig(M=8, K=2, T=20, tau_rp=2,
                             rho_f=np.array([1.0, 50.0]),
                             rho_r=np.array([0.1, 5.0]),
                             weights=np.array([1.0, 0.0]))
    without = c_wt_lb(cfg_alone, np.array([0.5, 1e9]), 1.5, 0.1)
    # user 2's SINR and power are irrelevant at zero weight
    assert with_user == pytest.approx(without, abs=1e-12)


def paper_hetero_config(M=12, T=20):
    rho_f = 10 ** (np.array([-4, -3, -2, -1, 0, 1, 2, 3], dtype=float) / 10)
    return SystemConfig(M=M, K=8, T=T, tau_rp=8, rho_f=rho_f, rho_r=rho_f / 10,
                        weights=np.array([2, 2, 2, 2, 1, 1, 1, 1], dtype=float))


def test_wt_lb_paper_config_oracle():
    from tddmimo import alpha_beta, waterfill
    cfg = paper_hetero_config()
    alpha, beta = alpha_beta(cfg)
    p = waterfill(cfg.weights, alpha, beta).p_star
    mean, var = 2.3, 0.08
    val = c_wt_lb(cfg, p, mean, var)
    # independent recomputation of the weighted-sum display
    expected = 0.0
    for k in range(8):
        err = 1 / (1 + cfg.rho_r[k] * 8)
        expected += cfg.weights[k] * np.log2(
            1 + cfg.rho_f[k] * p[k] * mean ** 2
            / (1 + cfg.rho_f[k] * (err + p[k] * var)))
    assert val > 0
    assert val == pytest.approx(expected, abs=1e-9)


def test_wt_net_minimal_coherence_forces_tau():
    cfg = paper_hetero_config(T=10)
    src = MomentSource(2000, 27)
    rp = c_wt_net(cfg, scheduled=False, moment_source=src)
    assert rp.tau_rp == 8  # only feasible value at T = K + 2
    assert rp.auxiliary["prelog"] == pytest.approx((10 - 8 - 1) / 10, abs=0)


def test_wt_net_scheduled_at_least_unscheduled():
    cfg = paper_hetero_config(T=14)
    src = MomentSource(2000, 28)
    sched = c_wt_net(cfg, scheduled=True, moment_source=src)
    plain = c_wt_net(cfg, scheduled=False, moment_source=src)
    assert sched.rate >= plain.rate - 1e-9


def test_wt_net_prelog_bound():
    cfg = paper_hetero_config(T=16)
    src = MomentSource(2000, 29)
    rp = c_wt_net(cfg, scheduled=True, moment_source=src)
    assert rp.auxiliary["prelog"] <= (16 - 8 - 1) / 16 + 1e-15


def test_wt_net_infeasible():
    cfg = paper_hetero_config(T=9)
    src = MomentSource(1000, 30)
    with pytest.raises(InfeasibleError):
        c_wt_net(cfg, scheduled=True, moment_source=src)


def test_kernel_runs_once_per_statistic(monkeypatch):
    # a source without a cache path keeps every statistic in memory, so the
    # tau, K and N loops of both searches sample each (kind, M, K, F) once
    import tddmimo.moments as moments
    runs = []
    collect = moments._collect

    def counting(params, *args):
        runs.append(params)
        return collect(params, *args)

    monkeypatch.setattr(moments, "_collect", counting)
    src = MomentSource(200, 31)
    for scheduled in (True, False):
        c_net(4, 10, 1.0, 0.1, scheduled=scheduled, moment_source=src)
    assert len(runs) == len(set(runs)) == src.cache.misses == 4  # K = 1..4 at M = 4
    assert src.cache.hits > 0
    runs.clear()
    cfg = paper_hetero_config(M=8, T=14)
    for scheduled in (True, False):
        c_wt_net(cfg, scheduled=scheduled, moment_source=src)
    assert 0 < len(runs) == len(set(runs)) == src.cache.misses - 4
    assert src.cache.kind_counts() == {"eta": 4, "weighted": len(runs)}
