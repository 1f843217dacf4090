from dataclasses import replace

import numpy as np
import pytest

from tddmimo import (MomentEstimate, PowerAllocation, SystemConfig,
                     c_ind_lb, c_ind_lb_scheduled, c_net, c_sum_lb, c_wt_lb, c_wt_net,
                     eta_moments)
from tddmimo.moments import GROUPS
from tddmimo.rates import MomentSource, _bound, _first_best


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
    assert rp.prelog == pytest.approx((8 - rp.tau_rp - 1) / 8, abs=0)


def test_net_rate_infeasible():
    src = MomentSource(1000, 26)
    with pytest.raises(ValueError, match=r"^net rate needs T >= 3, got T=2$"):
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
    assert rp.prelog == pytest.approx((10 - 8 - 1) / 10, abs=0)


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
    assert rp.prelog <= (16 - 8 - 1) / 16 + 1e-15


def test_wt_net_infeasible():
    cfg = paper_hetero_config(T=9)
    src = MomentSource(1000, 30)
    with pytest.raises(ValueError,
                       match=r"^weighted net rate needs T >= K \+ 2, got T=9, K=8$"):
        c_wt_net(cfg, scheduled=True, moment_source=src)


def _se_over_spread(points):
    """Median reported std_error over the seed-to-seed SD of the rate."""
    return np.median([p.std_error for p in points]) / np.std([p.rate for p in points], ddof=1)


@pytest.mark.parametrize("scheduled", [False, True], ids=["all", "scheduled"])
def test_weighted_se_matches_seed_spread(scheduled):
    # the hetero benchmark spec's users at M = 8; T = K + 2 leaves tau = 8
    cfg = paper_hetero_config(M=8, T=10)
    points = [c_wt_net(cfg, scheduled=scheduled, moment_source=MomentSource(200, seed))
              for seed in range(1, 201)]
    assert 0.8 <= _se_over_spread(points) <= 1.25


def test_homogeneous_se_matches_seed_spread():
    # at 5 dB forward and -5 dB reverse SINR, serving N = 2 of the K = 4
    # users wins by about 0.4 bits, far beyond the noise, at every seed
    cfg = SystemConfig.homogeneous(M=4, K=4, T=12, tau_rp=10, rho_f=10 ** 0.5,
                                   rho_r=10 ** -0.5)
    points = [c_sum_lb(cfg, scheduled=True, moment_source=MomentSource(2000, seed))
              for seed in range(1, 201)]
    assert {p.n_selected for p in points} == {2}
    assert 0.8 <= _se_over_spread(points) <= 1.25


def test_kernel_runs_once_per_statistic(monkeypatch):
    # a source without a cache path keeps every statistic in memory, so the
    # tau, K and N loops of both searches sample each (kind, M, K, F) once,
    # and each search samples what it lacks in one pass
    import tddmimo.moments as moments
    runs = []
    collect = moments._collect

    def counting(passes, pool):
        runs.extend(passes)
        return collect(passes, pool)

    monkeypatch.setattr(moments, "_collect", counting)
    src = MomentSource(200, 31)
    for scheduled in (True, False):
        c_net(4, 10, 1.0, 0.1, scheduled=scheduled, moment_source=src)
    # K = 1..4 at M = 4: four statistics from one pass over the blocks
    assert len(runs) == len(set(runs)) == 1 and src.cache.misses == 4
    assert src.cache.hits > 0
    runs.clear()
    cfg = paper_hetero_config(M=8, T=14)
    for scheduled in (True, False):
        c_wt_net(cfg, scheduled=scheduled, moment_source=src)
    # one pass (M = 8) that holds the weighted statistic of every tau
    views = [view for _, pass_views, *_ in runs for view in pass_views]
    assert len(runs) == 1 and 0 < len(views) == len(set(views)) == src.cache.misses - 4
    assert src.cache.kind_counts() == {"eta": 4, "weighted": len(views)}


@pytest.mark.parametrize("T", [3, 12, 200])
def test_net_rate_requests_each_statistic_once(monkeypatch, T):
    # the search reads one eta table per (M, T) call, however many tau it
    # scans, with one fetch that names every K it needs
    requests = []
    fetch = MomentSource.fetch

    def counting(self, keys):
        requests.append(list(keys))
        return fetch(self, keys)

    monkeypatch.setattr(MomentSource, "fetch", counting)
    src = MomentSource(200, 32)
    for scheduled in (True, False):
        requests.clear()
        c_net(4, T, 1.0, 0.1, scheduled=scheduled, moment_source=src)
        assert len(requests) == 1
        assert requests[0] == src.eta_keys(4, [key.K for key in requests[0]])
        ks = [key.K for key in requests[0]]
        assert ks == sorted(set(ks)) == list(range(1, min(4, T - 2) + 1))


# The nested-loop searches that the array searches replaced, kept here as the
# oracle of the tie rule: N within each (tau, K), then (tau, K) with tau
# outer, each stage picking the first rate within 1e-12 of its largest.  The
# bound is evaluated on Python floats.

def _first_within(rates):
    """Index of the first of `rates` within 1e-12 of the largest number among
    them, one Python float at a time; NaN is skipped, and all-NaN gives 0."""
    top = max((r for r in rates if r == r), default=np.nan)
    return next((i for i, r in enumerate(rates) if r >= top - 1e-12), 0)


def _ref_bound(rho_f, rho_r, tau, e, v):
    rt = rho_r * tau
    gain = rt / (1.0 + rt)
    return float(np.log2(1.0 + rho_f * gain * e ** 2
                         / (1.0 + rho_f * (1.0 / (1.0 + rt) + gain * v))))


def _ref_sum(M, K, tau, rho_f, rho_r, scheduled, src):
    rates = []
    for n in range(1, K + 1):
        eta, = src.fetch(src.eta_keys(M, [K if scheduled else n]))
        rates.append(n * _ref_bound(rho_f, rho_r, tau, float(eta.mean[n - 1]),
                                    float(eta.variance[n - 1])))
    n = _first_within(rates) + 1
    return rates[n - 1], n


def _ref_net(M, T, rho_f, rho_r, scheduled, src):
    points = []
    for tau in range(1, T - 1):
        for k in range(1, min(M, tau) + 1):
            inner, n = _ref_sum(M, k, tau, rho_f, rho_r, scheduled, src)
            points.append(((T - tau - 1) / T * inner, tau, k, n))
    return points[_first_within([pt[0] for pt in points])]


def _ref_wt_net(cfg, scheduled, src, power_source):
    points = []
    for tau in range(cfg.K, cfg.T - 1):
        c = replace(cfg, tau_rp=tau)
        p = power_source(c.weights).p_star
        active = np.flatnonzero(p > 0)
        rt = c.rho_r[active] * tau
        stats, = src.fetch([src.weighted_key(p[active] ** -0.5 * np.sqrt(rt / (1.0 + rt)),
                                             p[active], c.M)])
        rates = []
        for n in range(active.size):
            total = 0.0
            for j, k in enumerate(active):
                if stats.count[n, j] == 0:
                    continue
                m, v = stats.mean[n, j], stats.variance[n, j]
                err = 1.0 / (1.0 + c.rho_r[k] * tau)
                total += c.weights[k] * (stats.frac[n, j] * float(np.log2(
                    1.0 + c.rho_f[k] * p[k] * m ** 2 / (1.0 + c.rho_f[k] * (err + p[k] * v)))))
            rates.append(total)
        n_idx = _first_within(rates) if scheduled else active.size - 1
        points.append(((cfg.T - tau - 1) / cfg.T * rates[n_idx], tau, n_idx + 1))
    return points[_first_within([pt[0] for pt in points])]


def _one_draw_estimate(mean, var, served=None):
    """An estimate with the given moments in which each served entry (all by
    default) is one draw in group 0, so that its mean is exact."""
    mean, var = np.asarray(mean, dtype=float), np.asarray(var, dtype=float)
    count = np.ones(mean.shape, dtype=int) if served is None else np.asarray(served, dtype=int)

    def group_0(a):
        return np.concatenate([a[None], np.zeros((GROUPS - 1,) + a.shape, a.dtype)])
    return MomentEstimate(1, 0, group_0(count), group_0(np.where(count > 0, mean, 0.0)),
                          group_0(np.where(count > 0, var + mean * mean, 0.0)))


class TableSource:
    """A source whose eta of (M, K) is read from fixed tables, entry N-1 of
    mean[K] and var[K]: its keys are (M, K), fetched as MomentSource's are."""

    def __init__(self, mean, var):
        self.mean, self.var = mean, var

    def eta_keys(self, M, ks):
        return [(M, k) for k in ks]

    def fetch(self, keys):
        return [_one_draw_estimate(self.mean[k], self.var[k]) for _, k in keys]


# a reverse SINR so large that the bound hardly depends on tau, so that rates
# chosen at one tau stay near-ties at every tau
RHO_F, RHO_R = 1.0, 1e9


def _eta_mean_for(rates, tau=1):
    """eta means at which n * bound(tau, mean, var=0) is rates[n-1]."""
    rt = RHO_R * tau
    gain = rt / (1.0 + rt)
    per_user = np.asarray(rates) / np.arange(1, len(rates) + 1)
    return np.sqrt(np.expm1(per_user * np.log(2.0)) * (1.0 + RHO_F / (1.0 + rt))
                   / (RHO_F * gain))


def _sum_pick(rates, scheduled):
    """N chosen by c_sum_lb at tau = K when n * bound is rates[n-1]."""
    K = len(rates)
    mean = _eta_mean_for(rates, K)
    # eta(M, K) holds every N for scheduled cells, eta(M, N) entry N-1 otherwise
    src = TableSource({n: mean[:n] for n in range(1, K + 1)},
                      {n: np.zeros(n) for n in range(1, K + 1)})
    cfg = SystemConfig.homogeneous(M=8, K=K, T=K + 2, tau_rp=K, rho_f=RHO_F, rho_r=RHO_R)
    rp = c_sum_lb(cfg, scheduled=scheduled, moment_source=src)
    assert (rp.rate, rp.n_selected) == _ref_sum(8, K, K, RHO_F, RHO_R, scheduled, src)
    return rp.n_selected


@pytest.mark.parametrize("scheduled", [True, False])
def test_tie_rule_picks_the_first_near_best(scheduled):
    assert _sum_pick([0.0, 0.0, 0.0], scheduled) == 1  # exact ties: the first
    assert _sum_pick([1e-12, 1.5e-12], scheduled) == 1  # within 1e-12: not argmax
    # a chain of near-ties: 1.6 is the first value within 1e-12 of the
    # maximum 2.5, though 2.2 beats the earlier 1.0 by more than 1e-12
    assert _sum_pick([1.0e-12, 1.6e-12, 2.2e-12, 2.5e-12], scheduled) == 2
    assert _sum_pick([3e-12, 1e-12, 4.1e-12], scheduled) == 3


def _scalar_first_best(values):
    """The tie rule that `_first_best` applies to every row at once, kept as
    its oracle: one row at a time, on Python floats."""
    values = np.asarray(values, dtype=float)
    picks = [_first_within(row) for row in values.reshape(-1, values.shape[-1]).tolist()]
    return np.array(picks).reshape(values.shape[:-1])


def _near_tie_table(rng, shape):
    """Walks along the last axis from a few shared bases: exact ties, steps
    of 0.4e-12, 0.6e-12 and 1.2e-12 either way, the odd large jump, NaNs,
    leading ones included, and infinities."""
    steps = rng.choice([0.0, 0.4e-12, 0.6e-12, 1.2e-12, -0.6e-12, -1.2e-12], size=shape)
    jumps = rng.random(shape) < 0.05
    steps[jumps] = rng.normal(0.0, 1e-3, jumps.sum())
    values = rng.choice([0.0, 1.0, 1e-3], size=shape[:-1] + (1,)) + np.cumsum(steps, axis=-1)
    values[rng.random(shape) < rng.choice([0.0, 0.05, 0.3])] = np.nan
    if rng.random() < 0.2:
        values[..., 0] = np.nan
    values[rng.random(shape) < 0.01] = np.inf
    values[rng.random(shape) < 0.01] = -np.inf
    return values


def test_vectorized_scan_matches_the_scalar_scan():
    rng = np.random.default_rng(27)
    for case in range(2000):
        if case % 10 == 0:  # a single long row, as the net-rate search passes
            shape = (int(rng.integers(780, 821)),)
        else:
            lead = tuple(int(n) for n in rng.integers(1, 6, size=rng.integers(0, 3)))
            shape = lead + (int(rng.integers(1, 41)),)
        values = _near_tie_table(rng, shape)
        picks = _first_best(values)
        expected = _scalar_first_best(values)
        assert picks.shape == expected.shape == shape[:-1]
        np.testing.assert_array_equal(picks, expected, err_msg=f"case {case}")


def test_net_rate_chain_picks_the_first_near_best():
    # only K = 3 has a positive rate, so tau = 3 has the largest prelog; its
    # N values form a chain that argmax resolves to N = 3 and the first
    # value within 1e-12 of the maximum to N = 2
    c = 1e-3
    mean = {k: np.zeros(k) for k in range(1, 5)}
    mean[3] = _eta_mean_for([c, c + 0.6e-12, c + 1.2e-12], tau=3)
    src = TableSource(mean, {k: np.zeros(k) for k in range(1, 5)})
    rp = c_net(4, 12, RHO_F, RHO_R, scheduled=True, moment_source=src)
    assert (rp.rate, rp.tau_rp, rp.K, rp.n_selected) == _ref_net(4, 12, RHO_F, RHO_R, True, src)
    assert (rp.tau_rp, rp.K, rp.n_selected) == (3, 3, 2)


@pytest.mark.parametrize("scheduled", [True, False])
def test_net_rate_tie_rule_matches_nested_loops(scheduled):
    rng = np.random.default_rng(33)
    chains = {1: [1e-12], 2: [0.0, 0.6e-12], 3: [1.0e-12, 1.6e-12, 2.2e-12],
              4: [0.5e-12, 1.6e-12, 2.2e-12, 2.5e-12]}
    tables = [  # exact ties, chains of near-ties, random rates near 1e-12
        ({k: np.zeros(k) for k in chains}, {k: np.zeros(k) for k in chains}),
        ({k: _eta_mean_for(r) for k, r in chains.items()}, {k: np.zeros(k) for k in chains}),
        ({k: _eta_mean_for(rng.uniform(0, 4e-12, k)) for k in chains},
         {k: np.zeros(k) for k in chains}),
    ]
    for mean, var in tables:
        src = TableSource(mean, var)
        for T in (3, 4, 5, 7, 12):
            rp = c_net(4, T, RHO_F, RHO_R, scheduled=scheduled, moment_source=src)
            assert (rp.rate, rp.tau_rp, rp.K, rp.n_selected) == _ref_net(
                4, T, RHO_F, RHO_R, scheduled, src)
    tied = c_net(4, 12, RHO_F, RHO_R, scheduled=scheduled, moment_source=TableSource(*tables[0]))
    assert (tied.rate, tied.tau_rp, tied.K, tied.n_selected) == (0.0, 1, 1, 1)  # the first


@pytest.mark.parametrize("scheduled", [True, False])
def test_net_rate_bit_exact_on_random_tables(scheduled):
    rng = np.random.default_rng(34)
    for trial in range(6):
        M = int(rng.integers(1, 9))
        src = TableSource({k: rng.uniform(0.1, 4.0, k) for k in range(1, M + 1)},
                          {k: rng.uniform(0.0, 0.5, k) for k in range(1, M + 1)})
        rho_f, rho_r = 10 ** rng.uniform(-1, 1.5), 10 ** rng.uniform(-2, 0)
        for T in (3, 9, 30):
            rp = c_net(M, T, rho_f, rho_r, scheduled=scheduled, moment_source=src)
            assert (rp.rate, rp.tau_rp, rp.K, rp.n_selected) == _ref_net(
                M, T, rho_f, rho_r, scheduled, src)
        for K in range(1, M + 1):
            cfg = SystemConfig.homogeneous(M=M, K=K, T=K + 5, tau_rp=K + 3,
                                           rho_f=rho_f, rho_r=rho_r)
            rp = c_sum_lb(cfg, scheduled=scheduled, moment_source=src)
            assert (rp.rate, rp.n_selected) == _ref_sum(M, K, K + 3, rho_f, rho_r,
                                                        scheduled, src)


def test_bound_array_matches_scalar_evaluation():
    # ndarray ** 2 rounds e*e, the scalar bound uses pow; they differ for
    # about one mean in a thousand, and a few of those reach the bound's bits
    rng = np.random.default_rng(35)
    mean, var = rng.uniform(0.1, 4.0, 50_000), rng.uniform(0.0, 0.01, 50_000)
    for rho_f, rho_r, tau in ((1.0, 0.1, 4), (100.0, 10.0, 3), (1000.0, 100.0, 7)):
        ref = [_ref_bound(rho_f, rho_r, tau, m, v) for m, v in zip(mean.tolist(), var.tolist())]
        assert np.array_equal(_bound(rho_f, rho_r, tau, mean, var), ref)
        assert c_ind_lb_scheduled(rho_f, rho_r, tau, float(mean[0]), float(var[0])) == ref[0]


class WeightedTableSource:
    """A source whose every weighted statistic is one fixed [N-1, user]
    table of phi moments, served where `served` is nonzero."""

    def __init__(self, served, mean, var):
        self.est = _one_draw_estimate(mean, var, served)

    def weighted_key(self, f_diag, p_star, M):
        return (M, tuple(f_diag), tuple(p_star))

    def fetch(self, keys):
        return [self.est for _ in keys]


def _equal_powers(w, *_):
    """A stand-in for waterfill(w, alpha, beta): power 0.5 for every user."""
    return PowerAllocation(p_star=np.full(np.size(w), 0.5), lambda_star=1.0)


def _wt_rate_for(rates, w=1.0, rho_f=1.0, p=0.5):
    """phi means at which user 0 alone, served with weight w, has rates[n]."""
    return np.sqrt(np.expm1(np.asarray(rates) / w * np.log(2.0)) / (rho_f * p))


@pytest.mark.parametrize("scheduled", [True, False])
def test_weighted_tie_rule_matches_nested_loops(scheduled, monkeypatch):
    monkeypatch.setattr("tddmimo.rates.waterfill", _equal_powers)
    rng = np.random.default_rng(36)
    K = 4
    cfg = SystemConfig(M=8, K=K, T=9, tau_rp=K, rho_f=np.ones(K), rho_r=np.full(K, 1e12),
                       weights=np.array([1.0, 2.0, 1.0, 1.0]))
    only_user_0 = np.zeros((K, K), dtype=int)
    only_user_0[:, 0] = 1
    sources = [  # exact ties, a chain of near-ties, random moments of every user
        WeightedTableSource(only_user_0, np.zeros((K, K)), np.zeros((K, K))),
        WeightedTableSource(only_user_0, np.tile(_wt_rate_for(
            [1.0e-12, 1.6e-12, 2.2e-12, 2.5e-12])[:, None], (1, K)), np.zeros((K, K))),
        WeightedTableSource(np.tril(np.ones((K, K))), rng.uniform(0.5, 3.0, (K, K)),
                            rng.uniform(0.0, 0.3, (K, K))),
    ]
    for src in sources:
        rp = c_wt_net(cfg, scheduled=scheduled, moment_source=src)
        assert (rp.rate, rp.tau_rp, rp.n_selected) == _ref_wt_net(
            cfg, scheduled, src, _equal_powers)
    chain = c_wt_net(cfg, scheduled=True, moment_source=sources[1])
    assert (chain.tau_rp, chain.n_selected) == (K, 2)
