"""The kernel's law against an independent sampler.

The Monte Carlo kernel draws each Cholesky factor of W = Z Z^H directly
(Bartlett) and serves the ranked norms along the directions of the leading
rows.  The sampler here shares no code with it: it draws explicit CN(0, 1)
rows from numpy's default generator, orders them by score, scales them by
F and reads tr(G_N^{-1}) from LAPACK's Cholesky factor and inverse.  Every
entry of eta at M - K = 0, 1 and 2, and of a fig5-shaped weighted view,
must agree between the two: max |z| under the Bonferroni bound of a family
alpha of 0.001 and an RMS z in [0.7, 1.3].  The seeds were fixed before
the results were first seen.
"""

from statistics import NormalDist

import numpy as np

from tddmimo import eta_moments, weighted_phi_stats
from tddmimo.moments import eta_samples

DRAWS = 2 ** 16
BATCH = 4096
LIMIT = 1e12  # the condition number a draw may have
MIN_COUNT = 200  # draws behind an entry before its mean is compared


def _explicit(M, scores, f, draws, seed):
    """(phi, rank) of the regular draws: phi[d, N-1] for the N best rows by
    scores_k ||z_k||^2 and rank[d, k] user k's place among them, from
    explicit rows, LAPACK's Cholesky factor and inverse, with the draws whose
    Gram matrix has a condition number over LIMIT discarded."""
    K = len(f)
    rng = np.random.default_rng(seed)
    phis, ranks = [], []
    for start in range(0, draws, BATCH):
        size = min(BATCH, draws - start)
        z = rng.standard_normal((size, K, M)) + 1j * rng.standard_normal((size, K, M))
        z /= np.sqrt(2)
        order = np.argsort(-scores * np.sum(np.abs(z) ** 2, axis=2), axis=1, kind="stable")
        h = np.take_along_axis(f[:, None] * z, order[:, :, None], axis=1)
        g = h @ h.conj().transpose(0, 2, 1)
        lam = np.linalg.eigvalsh(g)
        ok = (lam[:, 0] > 0) & (lam[:, -1] <= LIMIT * lam[:, 0])
        l_inv = np.linalg.inv(np.linalg.cholesky(g[ok]))
        phis.append(np.cumsum(np.sum(np.abs(l_inv) ** 2, axis=2), axis=1) ** -0.5)
        ranks.append(np.argsort(order[ok], axis=1))
    return np.concatenate(phis), np.concatenate(ranks)


def _z(a, se_a, b, se_b):
    return (a - b) / np.hypot(se_a, se_b)


def _binomial(count, n):
    """A served fraction and its standard error."""
    q = count / n
    return q, np.sqrt(q * (1 - q) / n)


def _family() -> dict:
    """Every z of the comparison, by name."""
    zs = {}
    # eta at M - K = 0, 1 and 2, every N
    for i, (M, K) in enumerate([(5, 5), (6, 5), (8, 6)]):
        est = eta_moments(M, K, DRAWS, seed=11)
        phi, _ = _explicit(M, np.ones(K), np.ones(K), DRAWS, seed=1000 + i)
        se = phi.std(axis=0) / np.sqrt(len(phi))
        for N in range(1, K + 1):
            zs[f"eta(M={M},K={K})[N={N}]"] = _z(est.mean[N - 1], est.std_error_of_mean[N - 1],
                                               phi[:, N - 1].mean(), se[N - 1])
    # a fig5-shaped weighted view, M = 16 and K = 8 with unequal F and p_star:
    # the mean of phi_N given that user k is served, and how often it is.
    # At N = K every user is served in every regular draw, so that row has
    # one mean and no fraction to compare
    M = 16
    f = np.array([0.55, 0.7, 0.85, 1.0, 1.15, 1.3, 1.5, 1.8])
    p = np.array([2.4, 0.6, 1.9, 0.8, 1.5, 1.0, 1.2, 0.7])
    K = len(f)
    est = weighted_phi_stats(f, p, M, DRAWS, seed=11)
    phi, rank = _explicit(M, p, f, DRAWS, seed=2000)
    for N in range(1, K + 1):
        for k in range(K if N < K else 1):
            vals = phi[rank[:, k] < N, N - 1]
            counts = [(est.count[N - 1, k], est.count.max()), (len(vals), len(phi))]
            if min(c for c, _ in counts) < MIN_COUNT:
                continue
            zs[f"weighted[N={N},k={k}] mean"] = _z(
                est.mean[N - 1, k], est.std_error_of_mean[N - 1, k],
                vals.mean(), vals.std() / np.sqrt(len(vals)))
            if N < K and min(n - c for c, n in counts) >= MIN_COUNT:
                zs[f"weighted[N={N},k={k}] frac"] = _z(*_binomial(*counts[0]),
                                                       *_binomial(*counts[1]))
    # the exact E tr(G_K^-1) = K / (M - K) at M = 8
    for K in (2, 4):
        tr = eta_samples(8, K, DRAWS, seed=12)[:, K - 1] ** -2.0
        tr = tr[np.isfinite(tr)]
        zs[f"E tr G^-1 (M=8,K={K})"] = (tr.mean() - K / (8 - K)) / (tr.std() / np.sqrt(tr.size))
    return zs


def test_kernel_law_matches_an_independent_sampler():
    zs = _family()
    z = np.array(list(zs.values()))
    bound = NormalDist().inv_cdf(1 - 0.001 / (2 * z.size))
    worst = max(zs, key=lambda name: abs(zs[name]))
    assert z.size > 100 and np.all(np.isfinite(z))
    assert abs(zs[worst]) < bound, (worst, zs[worst], bound)
    assert 0.7 <= np.sqrt(np.mean(z ** 2)) <= 1.3, np.sqrt(np.mean(z ** 2))
