"""best_first, the one ordering behind both schedulers.

The homogeneous scheduler scores user k by ||h_hat_k||^2 and the weighted
one by p_star_k * ||z_k||^2, where z_k = h_hat_k / sqrt(est_var_k) has unit
variance; each serves the N leading users of best_first(scores).  Each
behaviour is checked on one score vector and on a stack of them.
"""

import numpy as np

from tddmimo import (RngStream, SystemConfig, build_pilots, draw_channel,
                     lmmse_estimate, simulate_reverse_pilots)
from tddmimo.scheduling import best_first


def norm_scores(h_hat):
    return np.sum(np.abs(h_hat) ** 2, axis=-1)


def weighted_scores(est, p):
    return p * norm_scores(est.h_hat) / est.est_var


def estimate(rho_r, seed, blocks=None):
    """LMMSE estimate of K = len(rho_r) users at M = 8, one block or a stack."""
    K = len(rho_r)
    cfg = SystemConfig(M=8, K=K, T=20, tau_rp=K, rho_f=np.ones(K),
                       rho_r=np.asarray(rho_r, dtype=float))
    psi = build_pilots(K, K)
    h = draw_channel(K, 8, RngStream(seed, 0), blocks)
    return lmmse_estimate(simulate_reverse_pilots(h, cfg, psi, RngStream(seed, 1)), psi, cfg)


def order(scores):
    """best_first of one score vector, which must equal its order as the
    middle row of a (2, 3, K) stack whose other rows order differently."""
    scores = np.asarray(scores, dtype=float)
    stack = np.stack([np.stack([scores[::-1], scores, -scores])] * 2)
    single = best_first(scores)
    np.testing.assert_array_equal(best_first(stack)[1, 1], single)
    return tuple(single)


def test_top_norm_ordering():
    assert order(norm_scores(np.diag([3.0, 1.0, 2.0])))[:2] == (0, 2)


def test_top_norm_full_selection():
    assert order(norm_scores(np.diag([1.0, 5.0, 3.0]))) == (1, 2, 0)


def test_top_norm_tie_break():
    assert order(norm_scores(np.eye(3))) == (0, 1, 2)
    assert order([1.0, 2.0, 1.0, 2.0]) == (1, 3, 0, 2)


def test_weighted_reduces_to_top_norm():
    for blocks in (None, 50):
        est = estimate(np.full(4, 0.3), seed=1, blocks=blocks)
        np.testing.assert_array_equal(best_first(weighted_scores(est, np.ones(4))),
                                      best_first(norm_scores(est.h_hat)))


def test_weighted_ordering_and_zero_powers():
    norms = norm_scores(np.eye(3))
    assert order(np.array([0.5, 0.0, 2.0]) * norms) == (2, 0, 1)
    # zero-power users rank last, lower index first among them
    assert order(np.array([0.0, 0.0, 1.0]) * norms) == (2, 0, 1)


def test_weighted_tie_break():
    assert order(np.ones(2) * norm_scores(2.0 * np.eye(2))) == (0, 1)


def test_permutation_equivariance():
    for blocks in (None, 50):
        est = estimate(np.array([0.1, 0.2, 0.3, 0.4, 0.5]), seed=2, blocks=blocks)
        p = np.array([0.4, 1.0, 0.1, 2.0, 0.7])
        perm = np.array([3, 0, 4, 1, 2])
        permuted = type(est)(h_hat=est.h_hat[..., perm, :], est_var=est.est_var[perm],
                             err_var=est.err_var[perm])
        # user i of the permuted set is user perm[i] of the original
        np.testing.assert_array_equal(perm[best_first(weighted_scores(permuted, p[perm]))],
                                      best_first(weighted_scores(est, p)))


def test_weighted_scale_invariance():
    for blocks in (None, 50):
        est = estimate(np.full(4, 0.2), seed=3, blocks=blocks)
        p = np.array([0.3, 1.1, 0.05, 0.7])
        np.testing.assert_array_equal(best_first(weighted_scores(est, p)),
                                      best_first(weighted_scores(est, 17.0 * p)))


def test_stack_orders_each_row_on_its_own():
    est = estimate(np.array([0.1, 0.2, 0.3, 0.4, 0.5]), seed=4, blocks=24)
    scores = weighted_scores(est, np.array([0.4, 1.0, 0.1, 2.0, 0.7])).reshape(4, 6, 5)
    ordered = best_first(scores)
    assert ordered.shape == (4, 6, 5)
    for i in np.ndindex(4, 6):
        np.testing.assert_array_equal(ordered[i], best_first(scores[i]))
