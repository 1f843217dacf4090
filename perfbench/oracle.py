"""Independent oracle for the benchmark's output checks.

Everything here is written from the paper's formulas with plain numpy and
shares no code with tddmimo: the trace-inverse statistics are drawn from
numpy's default generator with seeds of the oracle's own, and waterfilling
is solved by bisection on the KKT conditions.  Run this file to execute the
self-test against closed forms:

    python3 perfbench/oracle.py
"""

from __future__ import annotations

import math

import numpy as np

BATCH = 4096
SELF_TEST_SIGMAS = 5.0


def rng_for(*key: int) -> np.random.Generator:
    """Generator keyed by integers, independent of the program's Philox streams."""
    return np.random.default_rng(np.random.SeedSequence([0x0ACE, *key]))


def _cn(rng: np.random.Generator, shape) -> np.ndarray:
    """i.i.d. CN(0, 1) entries: real and imaginary parts of variance 1/2."""
    return (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)) / math.sqrt(2.0)


def _trace_inv_stat(u: np.ndarray) -> np.ndarray:
    """(tr[(U U^H)^{-1}])^{-1/2} over a leading batch axis."""
    gram = u @ u.conj().swapaxes(-1, -2)
    tr = np.trace(np.linalg.inv(gram), axis1=-2, axis2=-1).real
    return tr ** -0.5


def eta_draws(M: int, K: int, N: int, n: int, rng: np.random.Generator) -> np.ndarray:
    """eta: the statistic of the N largest-norm rows of a K x M CN(0,1) matrix."""
    out = []
    for start in range(0, n, BATCH):
        z = _cn(rng, (min(BATCH, n - start), K, M))
        order = np.argsort(-np.sum(np.abs(z) ** 2, axis=2), axis=1)[:, :N]
        out.append(_trace_inv_stat(np.take_along_axis(z, order[:, :, None], axis=1)))
    return np.concatenate(out)


def phi_f_draws(f_diag, M: int, n: int, rng: np.random.Generator) -> np.ndarray:
    """phi_F = (tr[(F Z Z^H F)^{-1}])^{-1/2} with Z of size len(f_diag) x M."""
    f = np.asarray(f_diag, dtype=float)[None, :, None]
    out = []
    for start in range(0, n, BATCH):
        out.append(_trace_inv_stat(f * _cn(rng, (min(BATCH, n - start), f.shape[1], M))))
    return np.concatenate(out)


def rate_and_sd(fn, draws: np.ndarray) -> tuple[float, float]:
    """fn(mean, variance) at the sample moments of draws, with the standard
    deviation of its per-sample influence, so that sd / sqrt(n) is the
    standard error of fn from n draws.  The mean and variance estimates are
    correlated; the delta method here carries that correlation."""
    x = draws[np.isfinite(draws)]
    s1, s2 = float(x.mean()), float((x * x).mean())

    def g(a, b):
        return fn(a, max(b - a * a, 0.0))

    h1, h2 = 1e-6 * max(abs(s1), 1e-3), 1e-6 * max(abs(s2), 1e-3)
    d1 = (g(s1 + h1, s2) - g(s1 - h1, s2)) / (2 * h1)
    d2 = (g(s1, s2 + h2) - g(s1, s2 - h2)) / (2 * h2)
    influence = d1 * (x - s1) + d2 * (x * x - s2)
    return g(s1, s2), float(influence.std())


# ---------------------------------------------------------------------------
# Rate formulas
# ---------------------------------------------------------------------------

def homog_net_rate(e_eta: float, var_eta: float, *, rho_f: float, rho_r: float,
                   T: int, tau: int, N: int) -> float:
    """Net sum rate of N served users: the training pre-log (T - tau - 1)/T
    times N copies of the per-user bound
    log2(1 + rho_f g E[eta]^2 / (1 + rho_f (1/(1 + rho_r tau) + g Var eta)))
    with estimate gain g = rho_r tau / (1 + rho_r tau)."""
    rt = rho_r * tau
    g = rt / (1.0 + rt)
    per_user = math.log2(1.0 + rho_f * g * e_eta ** 2
                         / (1.0 + rho_f * (1.0 / (1.0 + rt) + g * var_eta)))
    return (T - tau - 1) / T * N * per_user


def waterfill_bisect(w, alpha, beta, iters: int = 400) -> tuple[np.ndarray, float]:
    """Maximize sum_i w_i log(1 + beta_i p_i) subject to alpha . p = 1, p >= 0.

    KKT: w_i beta_i / (1 + beta_i p_i) = lam alpha_i where p_i > 0, and
    w_i beta_i <= lam alpha_i where p_i = 0, so p_i(lam) =
    (w_i / (lam alpha_i) - 1 / beta_i)^+.  alpha . p(lam) falls strictly in
    lam, and lam is found by bisection on a log scale.
    """
    w, alpha, beta = (np.asarray(a, dtype=float) for a in (w, alpha, beta))

    def powers(lam):
        return np.maximum(w / (lam * alpha) - 1.0 / beta, 0.0)

    hi = float(np.max(w * beta / alpha))  # every power is zero from here up
    lo = hi
    while alpha @ powers(lo) < 1.0:
        lo /= 4.0
    for _ in range(iters):
        mid = math.sqrt(lo * hi)
        if alpha @ powers(mid) > 1.0:
            lo = mid
        else:
            hi = mid
    lam = math.sqrt(lo * hi)
    return powers(lam), lam


def hetero_unscheduled(*, M: int, T: int, tau: int, rho_f, rho_r, weights):
    """Waterfilled powers and the rate function of the unscheduled weighted
    net rate at training length tau.

    Returns (active, f_diag, rate_fn): the users with positive power, the
    pre-conditioner diagonal F = P^{-1/2} (rho_r tau / (1 + rho_r tau))^{1/2}
    over them, and rate_fn(E[phi_F], Var phi_F) = the pre-log times
    sum_k w_k log2(1 + rho_f p_k E[phi]^2 / (1 + rho_f (1/(1 + rho_r tau) + p_k Var phi))).
    """
    rho_f, rho_r, weights = (np.asarray(a, dtype=float) for a in (rho_f, rho_r, weights))
    rt = rho_r * tau
    alpha = (1.0 + rt) / rt
    beta = M * rho_f / (1.0 + rho_f / (1.0 + rt))
    p, _ = waterfill_bisect(weights, alpha, beta)
    active = np.flatnonzero(p > 0)
    f_diag = p[active] ** -0.5 * np.sqrt(rt[active] / (1.0 + rt[active]))
    prelog = (T - tau - 1) / T

    def rate_fn(e_phi, var_phi):
        k = active
        sinr = (rho_f[k] * p[k] * e_phi ** 2
                / (1.0 + rho_f[k] * (1.0 / (1.0 + rt[k]) + p[k] * var_phi)))
        return prelog * float(weights[k] @ np.log2(1.0 + sinr))

    return active, f_diag, rate_fn


# ---------------------------------------------------------------------------
# Self-test
# ---------------------------------------------------------------------------

def _within(name: str, draws: np.ndarray, target: float, failures: list):
    se = draws.std() / math.sqrt(draws.size)
    if abs(draws.mean() - target) > SELF_TEST_SIGMAS * se:
        failures.append(f"{name}: mean {draws.mean():.6g} vs closed form "
                        f"{target:.6g} (se {se:.3g})")


def self_test() -> list[str]:
    """Check the sampler and the solver against closed forms; returns failures."""
    failures: list[str] = []
    n = 100_000
    # one 1 x M row: eta = ||z||, and E||z|| = Gamma(M + 1/2) / Gamma(M)
    for M in (1, 2, 4, 8):
        _within(f"E||z|| M={M}", eta_draws(M, 1, 1, n, rng_for(1, M)),
                math.gamma(M + 0.5) / math.gamma(M), failures)
    # complex Wishart W = Z Z^H, Z of size N x M: E[tr W^-1] = N / (M - N)
    # (Tulino & Verdu 2004); eta of all N rows is (tr W^-1)^{-1/2}
    for N, M in ((1, 4), (2, 6), (4, 8)):
        _within(f"E[tr W^-1] N={N} M={M}",
                eta_draws(M, N, N, n, rng_for(2, N, M)) ** -2.0, N / (M - N), failures)
    # E[W^-1] = I / (M - N), so E[tr (F W F)^-1] = sum_k f_k^-2 / (M - N)
    f = np.array([0.5, 1.0, 2.0])
    _within("E[tr (FWF)^-1] M=8", phi_f_draws(f, 8, n, rng_for(3)) ** -2.0,
            float(np.sum(f ** -2.0)) / (8 - f.size), failures)

    # waterfilling: KKT conditions, and no feasible point does better
    rng = rng_for(4)
    for trial in range(20):
        w = rng.uniform(0.1, 3.0, 4)
        alpha = rng.uniform(1.0, 4.0, 4)
        beta = rng.uniform(0.05, 50.0, 4)
        p, lam = waterfill_bisect(w, alpha, beta)
        on = p > 0
        if abs(alpha @ p - 1.0) > 1e-9:
            failures.append(f"waterfill trial {trial}: alpha.p = {alpha @ p!r}")
        grad = w * beta / (1.0 + beta * p)
        if np.any(np.abs(grad[on] / (lam * alpha[on]) - 1.0) > 1e-9) \
                or np.any(grad[~on] > lam * alpha[~on] * (1 + 1e-9)):
            failures.append(f"waterfill trial {trial}: KKT conditions violated")
        x = rng.dirichlet(np.ones(4), 20_000) / alpha  # alpha . x = 1 on every row
        best = float(w @ np.log(1.0 + beta * p))
        if np.max(np.log1p(beta * x) @ w) > best + 1e-12:
            failures.append(f"waterfill trial {trial}: a feasible point beats it")
    return failures


if __name__ == "__main__":
    problems = self_test()
    for problem in problems:
        print(f"oracle self-test FAIL: {problem}")
    print("oracle self-test:", "FAIL" if problems else "PASS")
    raise SystemExit(1 if problems else 0)
