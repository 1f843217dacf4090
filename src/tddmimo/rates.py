"""Capacity lower bounds and net-rate searches.

All rates are bits per symbol.  Monte Carlo inputs carry standard errors;
rate-level standard errors are propagated with a numerical delta method and
are approximate (cross-moment correlations are ignored).
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from .channel_model import SystemConfig
from .errors import InfeasibleError
from .moments import (MomentCache, MomentEstimate, MomentKey, eta_moments,
                      f_fingerprint, phi_f_moments, weighted_phi_stats)
from .power_opt import PowerAllocation, alpha_beta, waterfill

_TIE_TOL = 1e-12


@dataclass(frozen=True)
class RatePoint:
    """A rate value with its optimizers and the moments behind it."""

    rate: float
    n_selected: int
    tau_rp: int
    K: int
    std_error: float = 0.0
    auxiliary: dict = field(default_factory=dict)


def c_ind_lb(rho_f: float, rho_r: float, tau_rp: int,
             e_chi: float, var_chi: float) -> float:
    """Per-selected-user rate bound from the chi statistic moments."""
    if rho_f <= 0 or rho_r <= 0 or e_chi < 0 or var_chi < 0:
        raise ValueError("SINRs must be positive and moments nonnegative")
    err_var = 1.0 / (1.0 + rho_r * tau_rp)
    return float(np.log2(1.0 + rho_f * e_chi ** 2
                         / (1.0 + rho_f * (err_var + var_chi))))


def c_ind_lb_scheduled(rho_f: float, rho_r: float, tau_rp: int,
                       e_eta: float, var_eta: float) -> float:
    """Per-selected-user bound in terms of the unit-variance eta moments."""
    if rho_f <= 0 or rho_r <= 0 or e_eta < 0 or var_eta < 0:
        raise ValueError("SINRs must be positive and moments nonnegative")
    rt = rho_r * tau_rp
    gain = rt / (1.0 + rt)
    return float(np.log2(
        1.0 + rho_f * gain * e_eta ** 2
        / (1.0 + rho_f * (1.0 / (1.0 + rt) + gain * var_eta))))


def _delta_se(fn, mom: MomentEstimate, i) -> float:
    """Propagate the standard errors of entry i through fn(mean, variance)."""
    mean, var = float(mom.mean[i]), float(mom.variance[i])
    hm = max(1e-7, 1e-7 * abs(mean))
    hv = max(1e-9, 1e-7 * abs(var))
    d_mean = (fn(mean + hm, var) - fn(max(mean - hm, 0.0), var)) / (2 * hm)
    d_var = (fn(mean, var + hv) - fn(mean, max(var - hv, 0.0))) / (2 * hv)
    return float(np.hypot(d_mean * mom.std_error_of_mean[i], d_var * mom.se_variance[i]))


class MomentSource:
    """Sampling protocol (samples, seed) and the MomentCache, in memory only
    without `cache_path`, behind every statistic it serves.  Statistics are
    sampled on `pool` (see moments.worker_pool), or in-process without one.
    Keys are built here only: each statistic is sampled once per source."""

    def __init__(self, samples: int, seed: int, *, pool=None, cache_path=None):
        self.samples = samples
        self.seed = seed
        self.pool = pool
        self.cache = MomentCache(cache_path)

    def _cached(self, kind: str, M: int, K: int, fingerprint: str, compute):
        key = MomentKey(kind, M, K, fingerprint, self.samples, self.seed)
        return self.cache.cached(key, compute)

    def eta(self, M: int, K: int) -> MomentEstimate:
        """eta moments for every served count N <= K (entry N-1)."""
        return self._cached("eta", M, K, "-", lambda: eta_moments(
            M, K, self.samples, self.seed, pool=self.pool))

    def phi(self, f_diag, M: int) -> MomentEstimate:
        return self._cached("phi_F", M, np.size(f_diag), f_fingerprint(f_diag),
                            lambda: phi_f_moments(f_diag, M, self.samples, self.seed,
                                                  pool=self.pool))

    def weighted(self, f_diag, p_star, M: int) -> MomentEstimate:
        fingerprint = f_fingerprint(np.concatenate([f_diag, p_star]))
        return self._cached("weighted", M, np.size(f_diag), fingerprint,
                            lambda: weighted_phi_stats(f_diag, p_star, M, self.samples,
                                                       self.seed, pool=self.pool))


def c_sum_lb(config: SystemConfig, scheduled: bool,
             moment_source: MomentSource) -> RatePoint:
    """Sum-capacity bound: max over N <= K of N times the per-user bound.

    Scheduled selection draws the eta moments of the N best of K rows;
    the unscheduled baseline serves N channel-independent users, i.e. the
    eta moments of an N x M matrix.
    """
    if not config.is_homogeneous:
        raise ValueError("sum-rate bound requires a homogeneous config")
    if config.K > min(config.M, config.tau_rp):
        raise ValueError("homogeneous runs require K <= min(M, tau_rp)")
    rho_f = float(config.rho_f[0])
    rho_r = float(config.rho_r[0])
    bound = lambda e, v: c_ind_lb_scheduled(rho_f, rho_r, config.tau_rp, e, v)
    etas = ([moment_source.eta(config.M, config.K)] * config.K if scheduled
            else [moment_source.eta(config.M, n) for n in range(1, config.K + 1)])
    best = None
    for n, eta in enumerate(etas, start=1):
        mean, var = float(eta.mean[n - 1]), float(eta.variance[n - 1])
        rate = n * bound(mean, var)
        if best is None or rate > best.rate + _TIE_TOL:
            best = RatePoint(rate=rate, n_selected=n, tau_rp=config.tau_rp,
                             K=config.K, std_error=n * _delta_se(bound, eta, n - 1),
                             auxiliary={"e_eta": mean, "var_eta": var,
                                        "scheduled": scheduled})
    return best


def c_net(M: int, T: int, rho_f: float, rho_r: float, scheduled: bool,
          moment_source: MomentSource) -> RatePoint:
    """Net sum rate: exhaustive search over training length and user count.

    Maximizes ((T - tau - 1)/T) * C_sum_lb over tau <= T-2 and
    K <= min(M, tau); ties within 1e-12 resolve to the smallest tau, then
    the smallest K.
    """
    if T < 3:
        raise InfeasibleError(f"net rate needs T >= 3, got T={T}")
    best = None
    for tau in range(1, T - 1):
        for k in range(1, min(M, tau) + 1):
            config = SystemConfig.homogeneous(M=M, K=k, T=T, tau_rp=tau,
                                              rho_f=rho_f, rho_r=rho_r)
            inner = c_sum_lb(config, scheduled, moment_source)
            prelog = (T - tau - 1) / T
            rate = prelog * inner.rate
            if best is None or rate > best.rate + _TIE_TOL:
                aux = dict(inner.auxiliary)
                aux["prelog"] = prelog
                best = RatePoint(rate=rate, n_selected=inner.n_selected,
                                 tau_rp=tau, K=k, std_error=prelog * inner.std_error,
                                 auxiliary=aux)
    return best


def c_wt_lb(config: SystemConfig, p, phi_mean: float, phi_var: float) -> float:
    """Weighted-sum bound for given powers and phi_F moments."""
    p = np.asarray(p, dtype=float)
    if p.shape != (config.K,):
        raise ValueError("p must have length K")
    if np.any(p < 0) or phi_mean < 0 or phi_var < 0:
        raise ValueError("powers and moments must be nonnegative")
    err_var = 1.0 / (1.0 + config.rho_r * config.tau_rp)
    sinr = (config.rho_f * p * phi_mean ** 2
            / (1.0 + config.rho_f * (err_var + p * phi_var)))
    return float(config.weights @ np.log2(1.0 + sinr))


def _weighted_rates_per_n(config: SystemConfig, active: np.ndarray,
                          p_star: np.ndarray, stats: MomentEstimate):
    """Weighted rate and SE for every served-count N over the active users."""
    ka = active.size
    w = config.weights[active]
    rho_f = config.rho_f[active]
    err = 1.0 / (1.0 + config.rho_r[active] * config.tau_rp)
    p = p_star[active]
    rates = np.zeros(ka)
    ses = np.zeros(ka)
    for n in range(ka):
        var_sum = 0.0
        total = 0.0
        for k in range(ka):
            if stats.count[n, k] == 0:
                continue
            frac = stats.frac[n, k]

            def term(m, v, k=k, frac=frac):
                return frac * float(np.log2(
                    1.0 + rho_f[k] * p[k] * m ** 2
                    / (1.0 + rho_f[k] * (err[k] + p[k] * v))))

            t = term(stats.mean[n, k], stats.variance[n, k])
            total += w[k] * t
            se_frac = np.sqrt(max(frac * (1 - frac), 0.0) / stats.samples)
            se_t = np.hypot(_delta_se(term, stats, (n, k)),
                            (t / frac) * se_frac if frac > 0 else 0.0)
            var_sum += (w[k] * se_t) ** 2
        rates[n] = total
        ses[n] = np.sqrt(var_sum)
    return rates, ses


def default_power_source(config: SystemConfig) -> PowerAllocation:
    """Waterfilling on the M-large coefficients of the config."""
    alpha, beta = alpha_beta(config)
    return waterfill(config.weights, alpha, beta)


def c_wt_net(config: SystemConfig, scheduled: bool, moment_source: MomentSource,
             power_source=default_power_source) -> RatePoint:
    """Net weighted-sum rate, maximized over the training length.

    For each feasible tau the powers are re-optimized, users with zero
    power are dropped, and the weighted selection statistics are sampled
    once per coherence block.  With `scheduled` the served count N is also
    maximized; otherwise all active users are served (N fixed).
    """
    if config.T < config.K + 2:
        raise InfeasibleError(
            f"weighted net rate needs T >= K + 2, got T={config.T}, K={config.K}")
    best = None
    for tau in range(config.K, config.T - 1):
        cfg = replace(config, tau_rp=tau)
        pa = power_source(cfg)
        active = np.flatnonzero(pa.p_star > 0)
        if active.size == 0:
            continue
        rt = cfg.rho_r[active] * tau
        f_diag = pa.p_star[active] ** -0.5 * np.sqrt(rt / (1.0 + rt))
        stats = moment_source.weighted(f_diag, pa.p_star[active], config.M)
        rates, ses = _weighted_rates_per_n(cfg, active, pa.p_star, stats)
        prelog = (config.T - tau - 1) / config.T
        if scheduled:
            n_idx = 0
            for n in range(1, active.size):
                if rates[n] > rates[n_idx] + _TIE_TOL:
                    n_idx = n
        else:
            n_idx = active.size - 1
        rate = prelog * rates[n_idx]
        if best is None or rate > best.rate + _TIE_TOL:
            best = RatePoint(rate=rate, n_selected=n_idx + 1, tau_rp=tau,
                             K=config.K, std_error=prelog * ses[n_idx],
                             auxiliary={"prelog": prelog,
                                        "p_star": pa.p_star.copy(),
                                        "active_users": active.copy(),
                                        "scheduled": scheduled})
    return best
