"""Capacity lower bounds and net-rate searches.

All rates are bits per symbol.  Each search has one request builder
(`c_sum_lb_request`, `c_net_request`, `c_wt_net_request`) that checks its
inputs and returns (keys, finish): the MomentKeys of the statistics it
reads, and the search itself, `finish(estimates)` on one estimate per key.
`c_sum_lb`, `c_net` and `c_wt_net` are `finish(moment_source.fetch(keys))`.
The searches evaluate their bounds as arrays and pick the optimum by one
tie rule (`_first_best`).  A result's standard error is the delete-a-group
jackknife (`_jackknife_se`) of the array that gives its rate, evaluated at
the chosen optimum only on the moments with one group of draws left out
(`MomentEstimate.leave_one_out`).
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from .channel_model import SystemConfig
from .moments import MomentCache, MomentEstimate, MomentKey, key_of, sample
# unused here, but kept under these names: perfbench/traced.py wraps them
from .moments import eta_moments, weighted_phi_stats  # noqa: F401
from .power_opt import alpha_beta, waterfill

_TIE_TOL = 1e-12


@dataclass(frozen=True)
class RatePoint:
    """A rate value with its optimizers; auxiliary["prelog"] is the factor
    (T - tau - 1) / T already in rate and std_error (1 for a sum bound)."""

    rate: float
    n_selected: int
    tau_rp: int
    K: int
    std_error: float = 0.0
    auxiliary: dict = field(default_factory=dict)


def _user_rate(rho_f, p, err, m, v):
    """The per-user rate behind every bound here, over broadcast arrays: power
    p, estimation-error variance err and gain moments (m, v).  float_power
    is libm pow, as `m ** 2` is for a float; `ndarray ** 2` rounds m*m,
    which differs for about one value in a thousand."""
    return np.log2(1.0 + rho_f * p * np.float_power(m, 2) / (1.0 + rho_f * (err + p * v)))


def c_ind_lb(rho_f: float, rho_r: float, tau_rp: int,
             e_chi: float, var_chi: float) -> float:
    """Per-selected-user rate bound from the chi statistic moments."""
    if rho_f <= 0 or rho_r <= 0 or e_chi < 0 or var_chi < 0:
        raise ValueError("SINRs must be positive and moments nonnegative")
    return float(_user_rate(rho_f, 1.0, 1.0 / (1.0 + rho_r * tau_rp), e_chi, var_chi))


def _bound(rho_f, rho_r, tau, e, var):
    """c_ind_lb_scheduled over broadcast arrays, unchecked."""
    rt = rho_r * tau
    return _user_rate(rho_f, rt / (1.0 + rt), 1.0 / (1.0 + rt), e, var)


def c_ind_lb_scheduled(rho_f: float, rho_r: float, tau_rp: int,
                       e_eta: float, var_eta: float) -> float:
    """Per-selected-user bound in terms of the unit-variance eta moments."""
    if rho_f <= 0 or rho_r <= 0 or e_eta < 0 or var_eta < 0:
        raise ValueError("SINRs must be positive and moments nonnegative")
    return float(_bound(rho_f, rho_r, tau_rp, e_eta, var_eta))


def _first_best(values) -> np.ndarray:
    """Index of the optimum along the last axis under the tie rule: scan in
    order, keep the running best, and replace it only by a value larger by
    more than _TIE_TOL.  This is neither argmax (a, a + 0.5e-12 picks a) nor
    the first value within _TIE_TOL of the maximum (a, a + 0.6e-12,
    a + 1.2e-12 picks the last).  NaN never replaces the running best."""
    values = np.asarray(values, dtype=float)
    picks = []
    for row in values.reshape(-1, values.shape[-1]).tolist():
        best = 0
        for i, v in enumerate(row):
            if v > row[best] + _TIE_TOL:
                best = i
        picks.append(best)
    return np.array(picks).reshape(values.shape[:-1])


def _jackknife_se(held_out) -> float:
    """Delete-a-group jackknife standard error (Efron & Stein 1981) from the
    replicates held_out[g] computed with group g left out, G of them:
    sqrt((G-1)/G * sum_g (held_out[g] - mean)^2), or NaN when G < 2."""
    g = np.size(held_out)
    return float(np.sqrt((g - 1) / g * np.sum((held_out - np.mean(held_out)) ** 2))
                 if g > 1 else np.nan)


class MomentSource:
    """Sampling protocol (samples, seed) and the MomentCache, in memory only
    without `cache_path`, behind every statistic it serves.  Keys are built
    here only (`eta_keys`, `weighted_key`), and every statistic goes through
    `fetch`, the one lookup, which samples the keys found nowhere in one
    call of moments.sample, on up to `workers` processes.  `eta`, `phi` and
    `weighted` are shorthands that fetch their statistics' keys."""

    def __init__(self, samples: int, seed: int, *, workers: int = 1, cache_path=None):
        self.samples = samples
        self.seed = seed
        self.workers = workers
        self.cache = MomentCache(cache_path)

    def _key(self, kind: str, M: int, K: int, *diags) -> MomentKey:
        return key_of(kind, M, K, self.samples, self.seed, *diags)

    def eta_keys(self, M: int, ks) -> list[MomentKey]:
        return [self._key("eta", M, k) for k in ks]

    def weighted_key(self, f_diag, p_star, M: int) -> MomentKey:
        return self._key("weighted", M, np.size(f_diag), f_diag, p_star)

    def fetch(self, keys) -> list[MomentEstimate]:
        """One estimate per key, in order, repeats included.  Each distinct
        key is looked up once (`key in self.cache`: memory, then its record),
        those found nowhere are sampled in one call of moments.sample, and
        each passes once through `cache.cached`, a hit or, sampled, a miss."""
        keys = list(keys)
        distinct = dict.fromkeys(keys)
        missing = [key for key in distinct if key not in self.cache]
        sampled = sample(missing, self.workers) if missing else {}
        ests = {key: self.cache.cached(key, lambda key=key: sampled[key]) for key in distinct}
        return [ests[key] for key in keys]

    def eta(self, M: int, K):
        """eta moments for every served count N <= K (entry N-1).  K may be a
        sequence of user counts, which gives a dict K -> estimate."""
        ks = [K] if np.ndim(K) == 0 else list(K)
        ests = dict(zip(ks, self.fetch(self.eta_keys(M, ks))))
        return ests[K] if np.ndim(K) == 0 else ests

    def phi(self, f_diag, M: int) -> MomentEstimate:
        return self.fetch([self._key("phi_F", M, np.size(f_diag), f_diag)])[0]

    def weighted(self, f_diag, p_star, M: int) -> MomentEstimate:
        return self.fetch([self.weighted_key(f_diag, p_star, M)])[0]


def _sum_ks(ks, scheduled: bool) -> list[int]:
    """The user counts whose eta a sum search over K in `ks` reads: each K
    when scheduled (the N best of K rows), every N <= max(K) otherwise (N
    channel-independent users)."""
    return list(ks) if scheduled else list(range(1, max(ks) + 1))


def _net_ks(M: int, T: int) -> range:
    """The user counts c_net searches: K <= min(M, T-2)."""
    if T < 3:
        raise ValueError(f"net rate needs T >= 3, got T={T}")
    return range(1, min(M, T - 2) + 1)


def _sum_request(M: int, rho_f: float, rho_r: float, taus, ks, prelogs, scheduled: bool,
                 moment_source: MomentSource):
    """Request of the optimum of prelogs[tau] * N * bound over tau in
    `taus`, K in `ks` with K <= tau and N <= K, prelog included.  The
    moments of (K, N) are entry N-1 of eta(M, K) when scheduled (the N best
    of K rows) and of eta(M, N) otherwise (N channel-independent users)."""
    eta_ks = _sum_ks(ks, scheduled)

    def finish(estimates) -> RatePoint:
        stats = dict(zip(eta_ks, estimates))
        est = lambda k, n: stats[k if scheduled else n]

        def table(attr):  # [K, N], NaN where N > K
            return np.array([[getattr(est(k, n), attr)[n - 1] if n <= k else np.nan
                              for n in range(1, max(ks) + 1)] for k in ks])
        mean, var = table("mean"), table("variance")
        col = np.asarray(taus)[:, None]
        sums = np.arange(1, max(ks) + 1) * _bound(rho_f, rho_r, col[..., None], mean, var)
        sums[np.asarray(ks) > col] = np.nan  # [tau, K, N]
        n_best = _first_best(sums)  # [tau, K]
        net = prelogs[:, None] * np.take_along_axis(sums, n_best[..., None], axis=2)[..., 0]
        t, row = divmod(int(_first_best(net.ravel())), len(ks))
        tau, k, n = int(taus[t]), ks[row], int(n_best[t, row]) + 1
        _, mean, var, _ = est(k, n).leave_one_out()
        held_out = n * _bound(rho_f, rho_r, tau, mean[:, n - 1], var[:, n - 1])
        prelog = float(prelogs[t])
        return RatePoint(rate=prelog * float(sums[t, row, n - 1]), n_selected=n, tau_rp=tau,
                         K=k, std_error=prelog * _jackknife_se(held_out),
                         auxiliary={"prelog": prelog})
    return moment_source.eta_keys(M, eta_ks), finish


def _check_sum_config(config: SystemConfig):
    if not config.is_homogeneous:
        raise ValueError("sum-rate bound requires a homogeneous config")
    if config.K > min(config.M, config.tau_rp):
        raise ValueError("homogeneous runs require K <= min(M, tau_rp)")


def c_sum_lb_request(config: SystemConfig, scheduled: bool, moment_source: MomentSource):
    """(keys, finish) of `c_sum_lb`."""
    _check_sum_config(config)
    return _sum_request(config.M, float(config.rho_f[0]), float(config.rho_r[0]),
                        [config.tau_rp], [config.K], np.ones(1), scheduled, moment_source)


def c_sum_lb(config: SystemConfig, scheduled: bool,
             moment_source: MomentSource) -> RatePoint:
    """Sum-capacity bound: max over N <= K of N times the per-user bound.

    Scheduled selection draws the eta moments of the N best of K rows;
    the unscheduled baseline serves N channel-independent users, i.e. the
    eta moments of an N x M matrix.
    """
    keys, finish = c_sum_lb_request(config, scheduled, moment_source)
    return finish(moment_source.fetch(keys))


def c_net_request(M: int, T: int, rho_f: float, rho_r: float, scheduled: bool,
                  moment_source: MomentSource):
    """(keys, finish) of `c_net`: the eta of every K it searches."""
    ks = _net_ks(M, T)
    taus = np.arange(1, T - 1)
    return _sum_request(M, float(rho_f), float(rho_r), taus, ks, (T - taus - 1) / T,
                        scheduled, moment_source)


def c_net(M: int, T: int, rho_f: float, rho_r: float, scheduled: bool,
          moment_source: MomentSource) -> RatePoint:
    """Net sum rate: exhaustive search over training length and user count.

    Maximizes ((T - tau - 1)/T) * C_sum_lb over tau <= T-2 and
    K <= min(M, tau); ties within 1e-12 resolve to the smallest tau, then
    the smallest K.
    """
    keys, finish = c_net_request(M, T, rho_f, rho_r, scheduled, moment_source)
    return finish(moment_source.fetch(keys))


def c_wt_lb(config: SystemConfig, p, phi_mean: float, phi_var: float) -> float:
    """Weighted-sum bound for given powers and phi_F moments."""
    p = np.asarray(p, dtype=float)
    if p.shape != (config.K,):
        raise ValueError("p must have length K")
    if np.any(p < 0) or phi_mean < 0 or phi_var < 0:
        raise ValueError("powers and moments must be nonnegative")
    err_var = 1.0 / (1.0 + config.rho_r * config.tau_rp)
    return float(config.weights @ _user_rate(config.rho_f, p, err_var, phi_mean, phi_var))


def _weighted_rates(config: SystemConfig, active: np.ndarray, p_star: np.ndarray,
                    count, mean, variance, frac):
    """Weighted rate for every served count N (entry N-1) over the active
    users, from moments indexed [..., N-1, k] (MomentEstimate.moments, or
    its leave_one_out replicates along a leading axis)."""
    w = config.weights[active]
    rho_f = config.rho_f[active]
    err = 1.0 / (1.0 + config.rho_r[active] * config.tau_rp)
    p = p_star[active]
    rates = 0.0
    for k in range(active.size):  # in user order: one sum over k would reorder the bits
        t = frac[..., k] * _user_rate(rho_f[k], p[k], err[k], mean[..., k], variance[..., k])
        rates = rates + np.where(count[..., k] > 0, w[k] * t, 0.0)
    return rates


def _tau_points(config: SystemConfig):
    """(config at tau, active users, p_star, F of the active users) for
    every training length tau = K..T-2 that c_wt_net searches: the powers
    are waterfilled on the M-large coefficients (`waterfill`, closed form),
    and waterfilling powers at least one user."""
    if config.T < config.K + 2:
        raise ValueError(
            f"weighted net rate needs T >= K + 2, got T={config.T}, K={config.K}")
    for tau in range(config.K, config.T - 1):
        cfg = replace(config, tau_rp=tau)
        pa = waterfill(cfg.weights, *alpha_beta(cfg))
        active = np.flatnonzero(pa.active)
        rt = cfg.rho_r[active] * tau
        yield cfg, active, pa.p_star, pa.p_star[active] ** -0.5 * np.sqrt(rt / (1.0 + rt))


def c_wt_net_request(config: SystemConfig, scheduled: bool, moment_source: MomentSource):
    """(keys, finish) of `c_wt_net`: the weighted statistic of every tau,
    its powers waterfilled once, here."""
    taus = list(_tau_points(config))

    def finish(estimates) -> RatePoint:
        points = []  # each tau's best N, with what its standard error needs
        for (cfg, active, p_star, _), stats in zip(taus, estimates):
            rates = _weighted_rates(cfg, active, p_star, *stats.moments)
            n_idx = int(_first_best(rates)) if scheduled else active.size - 1
            prelog = (config.T - cfg.tau_rp - 1) / config.T
            points.append((RatePoint(rate=prelog * rates[n_idx], n_selected=n_idx + 1,
                                     tau_rp=cfg.tau_rp, K=config.K, auxiliary={"prelog": prelog}),
                           cfg, active, p_star, stats))
        best, cfg, active, p_star, stats = points[int(_first_best([pt[0].rate for pt in points]))]
        held_out = _weighted_rates(cfg, active, p_star, *stats.leave_one_out())
        return replace(best, std_error=best.auxiliary["prelog"]
                       * _jackknife_se(held_out[:, best.n_selected - 1]))
    return [moment_source.weighted_key(f_diag, p_star[active], config.M)
            for _, active, p_star, f_diag in taus], finish


def c_wt_net(config: SystemConfig, scheduled: bool,
             moment_source: MomentSource) -> RatePoint:
    """Net weighted-sum rate, maximized over the training length.

    For each feasible tau the powers are re-optimized by waterfilling
    (`_tau_points`), users with zero power are dropped, and the weighted
    selection statistics are sampled once per coherence block.  With
    `scheduled` the served count N is also maximized; otherwise all active
    users are served (N fixed).
    """
    keys, finish = c_wt_net_request(config, scheduled, moment_source)
    return finish(moment_source.fetch(keys))

