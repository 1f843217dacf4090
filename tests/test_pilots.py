import numpy as np
import pytest

from tddmimo import (RngStream, SystemConfig, build_pilots, draw_channel,
                     lmmse_estimate, simulate_reverse_pilots)


def cfg_for(K, M, tau, rho_r, rho_f=1.0):
    return SystemConfig.homogeneous(M=M, K=K, T=tau + 2, tau_rp=tau,
                                    rho_f=rho_f, rho_r=rho_r)


@pytest.mark.parametrize("tau,K", [(2, 2), (4, 2), (1, 1), (8, 5)])
def test_pilot_orthonormality(tau, K):
    psi = build_pilots(tau, K)
    assert psi.shape == (tau, K)
    assert np.abs(psi.conj().T @ psi - np.eye(K)).max() < 1e-10


def test_single_pilot_unit_modulus():
    psi = build_pilots(1, 1)
    assert abs(abs(psi[0, 0]) - 1.0) < 1e-12


def test_pilot_dimension_error():
    with pytest.raises(ValueError):
        build_pilots(2, 3)


def test_reverse_pilots_noise_free_scalar():
    cfg = cfg_for(K=1, M=3, tau=1, rho_r=1.0)
    psi = build_pilots(1, 1)
    h = draw_channel(1, 3, RngStream(5))
    y = simulate_reverse_pilots(h, cfg, psi, RngStream(5, 1),
                                _noise=np.zeros((3, 1)))
    # tau=1, psi=1, rho_r=1: the received block is the channel column
    assert np.allclose(y[:, 0], h[0] * psi[0, 0].conj(), atol=1e-12)


def test_reverse_pilots_noise_free_general():
    cfg = cfg_for(K=3, M=5, tau=4, rho_r=0.3)
    psi = build_pilots(4, 3)
    h = draw_channel(3, 5, RngStream(6))
    y = simulate_reverse_pilots(h, cfg, psi, RngStream(6, 1),
                                _noise=np.zeros((5, 4)))
    expected = np.sqrt(4) * h.T @ cfg.e_r @ psi.conj().T
    assert np.allclose(y, expected, atol=1e-12)


def test_reverse_pilots_noise_variance():
    cfg = cfg_for(K=2, M=50, tau=4, rho_r=0.2)
    psi = build_pilots(4, 2)
    resid = []
    for i in range(500):  # 500 * 200 entries = 1e5 noise samples
        h = draw_channel(2, 50, RngStream(100, 2 * i))
        y = simulate_reverse_pilots(h, cfg, psi, RngStream(100, 2 * i + 1))
        resid.append(y - np.sqrt(4) * h.T @ cfg.e_r @ psi.conj().T)
    power = np.mean(np.abs(np.concatenate(resid)) ** 2)
    assert abs(power - 1.0) < 0.02


def test_lmmse_noise_free_is_scaled_truth():
    cfg = cfg_for(K=3, M=4, tau=4, rho_r=0.25)
    psi = build_pilots(4, 3)
    h = draw_channel(3, 4, RngStream(7))
    y = simulate_reverse_pilots(h, cfg, psi, RngStream(7, 1),
                                _noise=np.zeros((4, 4)))
    est = lmmse_estimate(y, psi, cfg)
    rt = 0.25 * 4
    assert np.allclose(est.h_hat, rt / (1 + rt) * h, atol=1e-12)


def test_lmmse_high_snr_limit():
    cfg = cfg_for(K=2, M=4, tau=2, rho_r=1e8)
    psi = build_pilots(2, 2)
    h = draw_channel(2, 4, RngStream(8))
    y = simulate_reverse_pilots(h, cfg, psi, RngStream(8, 1))
    est = lmmse_estimate(y, psi, cfg)
    assert np.abs(est.h_hat - h).max() < 1e-3


def test_variance_split_sums_to_one():
    cfg = cfg_for(K=3, M=4, tau=5, rho_r=0.7)
    psi = build_pilots(5, 3)
    y = simulate_reverse_pilots(draw_channel(3, 4, RngStream(9)), cfg, psi,
                                RngStream(9, 1))
    est = lmmse_estimate(y, psi, cfg)
    assert np.abs(est.est_var + est.err_var - 1.0).max() < 1e-12
    assert np.all((est.est_var > 0) & (est.est_var < 1))
    assert np.all((est.err_var > 0) & (est.err_var < 1))


def test_lmmse_linearity():
    cfg = cfg_for(K=2, M=3, tau=2, rho_r=0.4)
    psi = build_pilots(2, 2)
    y = simulate_reverse_pilots(draw_channel(2, 3, RngStream(10)), cfg, psi,
                                RngStream(10, 1))
    a, b = lmmse_estimate(y, psi, cfg), lmmse_estimate(2.5 * y, psi, cfg)
    assert np.allclose(b.h_hat, 2.5 * a.h_hat, atol=1e-12)


@pytest.fixture(scope="module")
def estimation_runs():
    cfg = cfg_for(K=2, M=50, tau=2, rho_r=0.5)
    psi = build_pilots(2, 2)
    # 2000 trials * 50 antennas = 1e5 entries per row
    hs = draw_channel(2, 50, RngStream(4242, 0), 2000)
    y = simulate_reverse_pilots(hs, cfg, psi, RngStream(4242, 1))
    return cfg, hs, lmmse_estimate(y, psi, cfg).h_hat


def test_estimate_and_error_variances(estimation_runs):
    cfg, hs, h_hats = estimation_runs
    rt = cfg.rho_r * cfg.tau_rp
    est_var = np.mean(np.abs(h_hats) ** 2, axis=(0, 2))
    err_var = np.mean(np.abs(hs - h_hats) ** 2, axis=(0, 2))
    assert np.all(np.abs(est_var / (rt / (1 + rt)) - 1.0) < 0.02)
    assert np.all(np.abs(err_var / (1 / (1 + rt)) - 1.0) < 0.02)


def test_estimate_error_orthogonality(estimation_runs):
    _, hs, h_hats = estimation_runs
    err = (hs - h_hats).ravel()
    est = h_hats.ravel()
    corr = np.mean(est * err.conj())
    se = np.sqrt(np.mean(np.abs(est) ** 2) * np.mean(np.abs(err) ** 2) / est.size)
    assert abs(corr) < 3 * se


def test_shape_errors():
    cfg = cfg_for(K=2, M=3, tau=2, rho_r=0.4)
    psi = build_pilots(2, 2)
    with pytest.raises(ValueError):
        simulate_reverse_pilots(np.zeros((3, 3), complex), cfg, psi, RngStream(0))
    with pytest.raises(ValueError):
        lmmse_estimate(np.zeros((2, 2), complex), psi, cfg)


def test_stack_matches_single_calls():
    cfg = SystemConfig(M=5, K=3, T=6, tau_rp=4, rho_f=np.ones(3),
                       rho_r=np.array([0.2, 0.7, 1.5]))
    psi = build_pilots(4, 3)
    hs = draw_channel(3, 5, RngStream(11, 0), 6)
    noise = draw_channel(5, 4, RngStream(11, 1), 6)
    y = simulate_reverse_pilots(hs, cfg, psi, RngStream(0), _noise=noise)
    h_hat = lmmse_estimate(y, psi, cfg).h_hat
    for i in range(6):
        y_i = simulate_reverse_pilots(hs[i], cfg, psi, RngStream(0), _noise=noise[i])
        np.testing.assert_allclose(y[i], y_i, rtol=1e-12)
        np.testing.assert_allclose(h_hat[i], lmmse_estimate(y_i, psi, cfg).h_hat, rtol=1e-12)


def test_stack_draws_its_noise_in_one_block():
    # draw i of the stack is draw i of one block on the stream; the first is
    # the single call's draw
    cfg = cfg_for(K=2, M=3, tau=2, rho_r=0.4)
    psi = build_pilots(2, 2)
    hs = draw_channel(2, 3, RngStream(12, 0), 4)
    y = simulate_reverse_pilots(hs, cfg, psi, RngStream(12, 1))
    noise = draw_channel(3, 2, RngStream(12, 1), 4)
    np.testing.assert_allclose(
        y, simulate_reverse_pilots(hs, cfg, psi, RngStream(0), _noise=noise), rtol=1e-12)
    np.testing.assert_allclose(y[0], simulate_reverse_pilots(hs[0], cfg, psi, RngStream(12, 1)),
                               rtol=1e-12)
