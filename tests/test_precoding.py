import numpy as np
import pytest

from tddmimo import (RngStream, SingularChannelError, SystemConfig,
                     build_pilots, chi_of, draw_channel, eta_moments,
                     lmmse_estimate, modified_precoder, pinv_precoder,
                     simulate_forward, simulate_reverse_pilots)


def random_full_rank(n, m, seed):
    return draw_channel(n, m, RngStream(seed))


def test_identity_channel():
    h = np.hstack([np.eye(3), np.zeros((3, 2))]).astype(complex)
    a, chi = pinv_precoder(h)
    assert chi == pytest.approx(1 / np.sqrt(3), abs=1e-12)
    assert np.allclose(a, np.vstack([np.eye(3), np.zeros((2, 3))]) / np.sqrt(3))
    a_int, chi_int = pinv_precoder(np.hstack([np.eye(3, dtype=int), np.zeros((3, 2), int)]))
    np.testing.assert_array_equal(a_int, a.real)
    assert chi_int == chi


def test_diagonal_example():
    a, chi = pinv_precoder(np.diag([2.0, 1.0]).astype(complex))
    assert chi == pytest.approx(0.894427191, abs=1e-8)
    assert np.allclose(a, np.diag([0.4472135955, 0.894427191]), atol=1e-8)
    assert np.trace(a.conj().T @ a).real == pytest.approx(1.0, abs=1e-10)


def test_single_row_is_matched_filter():
    h = random_full_rank(1, 6, 3)
    a, chi = pinv_precoder(h)
    norm = np.linalg.norm(h)
    assert chi == pytest.approx(norm, rel=1e-12)
    assert np.allclose(a[:, 0], h[0].conj() / norm, atol=1e-12)


def test_chi_examples():
    row = random_full_rank(1, 5, 4)
    assert chi_of(row) == pytest.approx(np.linalg.norm(row), rel=1e-12)
    assert chi_of(np.hstack([np.eye(2), np.zeros((2, 3))])) == pytest.approx(
        1 / np.sqrt(2), abs=1e-12)
    x = random_full_rank(3, 6, 5)
    assert chi_of(3 * x) == pytest.approx(3 * chi_of(x), rel=1e-12)
    # a positive diagonal F scales the rows: phi_F of F Z
    z0 = np.hstack([np.eye(2), np.zeros((2, 3))]).astype(complex)
    assert chi_of(np.array([1.0, 2.0])[:, None] * z0) == pytest.approx(0.894427191, abs=1e-8)


@pytest.mark.parametrize("seed", range(5))
def test_diagonalization_and_normalization(seed):
    h = random_full_rank(4, 7, 100 + seed)
    a, chi = pinv_precoder(h)
    assert chi > 0
    assert np.abs(h @ a - chi * np.eye(4)).max() < 1e-8
    assert abs(np.trace(a.conj().T @ a).real - 1.0) < 1e-10


def test_singular_channel_raises():
    h = random_full_rank(1, 5, 6)
    with pytest.raises(SingularChannelError):
        pinv_precoder(np.vstack([h, h]))
    with pytest.raises(SingularChannelError):
        chi_of(np.vstack([h, h]))


def test_modified_equal_powers_matches_plain():
    h = random_full_rank(3, 6, 7)
    a_plain, chi = pinv_precoder(h)
    a_mod, phi = modified_precoder(h, np.full(3, 2.7))
    assert np.abs(a_mod - a_plain).max() < 1e-10
    # D = c*I rescales the statistic but not the precoder
    assert phi == pytest.approx(chi / np.sqrt(2.7), rel=1e-10)


def test_modified_single_user():
    h = random_full_rank(1, 5, 8)
    a_plain, _ = pinv_precoder(h)
    a_mod, phi = modified_precoder(h, np.array([4.0]))
    assert np.abs(a_mod - a_plain).max() < 1e-10
    assert phi == pytest.approx(np.linalg.norm(h) / 2, rel=1e-10)


def test_modified_extreme_power_ratio_is_finite():
    h = random_full_rank(2, 6, 9)
    a, phi = modified_precoder(h, np.array([1.0, 1e-8]))
    assert np.all(np.isfinite(a))
    # tr[(H_D H_D^H)^{-1}] >= 1/||row 1||^2 bounds phi by the unscaled row
    assert 0 < phi <= np.linalg.norm(h[0]) + 1e-9


def test_modified_rejects_nonpositive_power():
    h = random_full_rank(2, 4, 10)
    with pytest.raises(ValueError):
        modified_precoder(h, np.array([1.0, 0.0]))


def test_modified_diagonalizes_scaled_channel():
    h = random_full_rank(3, 8, 11)
    p = np.array([0.5, 2.0, 1.25])
    a, phi = modified_precoder(h, p)
    h_d = (p ** -0.5)[:, None] * h
    assert np.abs(h_d @ a - phi * np.eye(3)).max() < 1e-8
    # equivalently H A_D = phi * D^{-1} on the diagonal
    assert np.allclose(np.diag(h @ a), phi * np.sqrt(p), atol=1e-8)


def test_forward_noise_free_diagonalization():
    h = random_full_rank(3, 6, 13)
    a, chi = pinv_precoder(h)  # perfect estimate
    q = draw_channel(1, 3, RngStream(14))[0]
    x = simulate_forward(h, a, q, 2.0, RngStream(15), _noise=np.zeros(3, complex))
    assert np.allclose(x, np.sqrt(2.0) * chi * q, atol=1e-8)


def test_forward_basis_vector_picks_column():
    h = random_full_rank(2, 4, 16)
    a, _ = pinv_precoder(random_full_rank(2, 4, 17))
    q = np.array([0.0, 1.0], dtype=complex)
    x = simulate_forward(h, a, q, 1.5, RngStream(18), _noise=np.zeros(2, complex))
    assert np.allclose(x, np.sqrt(1.5) * (h @ a)[:, 1], atol=1e-12)


def test_stack_matches_single_calls():
    hs = draw_channel(3, 6, RngStream(19, 0), 5)
    p = 0.5 + draw_channel(5, 3, RngStream(19, 1)).real ** 2
    q = draw_channel(5, 3, RngStream(19, 2))
    noise = draw_channel(5, 3, RngStream(19, 3))
    rho = np.array([0.5, 1.0, 2.0])
    a, chi = pinv_precoder(hs)
    chis = chi_of(hs)
    a_mod, phi = modified_precoder(hs, p)
    x = simulate_forward(hs, a, q, rho, RngStream(0), _noise=noise)
    for i in range(5):
        a_i, chi_i = pinv_precoder(hs[i])
        np.testing.assert_allclose(a[i], a_i, rtol=1e-12)
        assert chi[i] == pytest.approx(chi_i, rel=1e-12)
        assert chis[i] == pytest.approx(chi_of(hs[i]), rel=1e-12)
        x_i = simulate_forward(hs[i], a_i, q[i], rho, RngStream(0), _noise=noise[i])
        np.testing.assert_allclose(x[i], x_i, rtol=1e-12)
        a_i, phi_i = modified_precoder(hs[i], p[i])
        np.testing.assert_allclose(a_mod[i], a_i, rtol=1e-12)
        assert phi[i] == pytest.approx(phi_i, rel=1e-12)
    # the stack draws its noise in one block; draw 0 is the single call's
    x = simulate_forward(hs, a, q, rho, RngStream(20))
    w = x - simulate_forward(hs, a, q, rho, RngStream(0), _noise=np.zeros((5, 3)))
    np.testing.assert_allclose(w, draw_channel(1, 3, RngStream(20), 5)[:, 0], rtol=1e-12)
    x_0 = simulate_forward(hs[0], a[0], q[0], rho, RngStream(20))
    np.testing.assert_allclose(x[0], x_0, rtol=1e-12)


def test_stack_with_one_singular_draw_raises():
    hs = draw_channel(2, 5, RngStream(21), 4)
    hs[2, 1] = 2 * hs[2, 0]
    with pytest.raises(SingularChannelError):
        pinv_precoder(hs)
    with pytest.raises(SingularChannelError):
        modified_precoder(hs, np.ones((4, 2)))
    with pytest.raises(SingularChannelError):
        chi_of(hs)
    pinv_precoder(np.delete(hs, 2, axis=0))  # the other draws are regular


# ---------------------------------------------------------------------------
# Statistical invariants of the homogeneous forward link (no scheduling)
# ---------------------------------------------------------------------------

M, K, TAU, RHO_F, RHO_R = 4, 2, 2, 1.0, 0.5
TRIALS = 100_000


@pytest.fixture(scope="module")
def forward_runs():
    cfg = SystemConfig.homogeneous(M=M, K=K, T=TAU + 2, tau_rp=TAU,
                                   rho_f=RHO_F, rho_r=RHO_R)
    psi = build_pilots(TAU, K)
    h = draw_channel(K, M, RngStream(777, 0), TRIALS)
    y = simulate_reverse_pilots(h, cfg, psi, RngStream(777, 1))
    a, _ = pinv_precoder(lmmse_estimate(y, psi, cfg).h_hat)
    q = draw_channel(1, K, RngStream(777, 2), TRIALS)[:, 0]
    q /= np.abs(q)  # unit-power symbols
    x = simulate_forward(h, a, q, RHO_F, RngStream(777, 3))
    gains = (np.sqrt(RHO_F) * h @ a)[:, 0, 0]  # g_nn for user 0
    return gains, x[:, 0], q[:, 0]


@pytest.fixture(scope="module")
def chi_moments():
    rt = RHO_R * TAU
    eta = eta_moments(M, K, 100_000, 778)
    scale = rt / (1 + rt)
    return np.sqrt(scale) * eta.mean[K - 1], scale * eta.variance[K - 1], \
        np.sqrt(scale) * eta.std_error_of_mean[K - 1]


def test_effective_gain_mean(forward_runs, chi_moments):
    gains, _, _ = forward_runs
    e_chi, _, se_chi = chi_moments
    sample = gains.real / np.sqrt(RHO_F)
    se = np.hypot(sample.std() / np.sqrt(TRIALS), se_chi)
    assert abs(sample.mean() - e_chi) < 3 * se
    # gain is real up to estimation noise: imaginary mean is ~0
    assert abs(np.mean(gains.imag)) < 3 * np.std(gains.imag) / np.sqrt(TRIALS)


def test_effective_noise_variance(forward_runs, chi_moments):
    gains, xs, qs = forward_runs
    e_chi, var_chi, _ = chi_moments
    eff_noise = xs - np.sqrt(RHO_F) * e_chi * qs
    predicted = 1 + RHO_F * (1 / (1 + RHO_R * TAU) + var_chi)
    assert abs(np.mean(np.abs(eff_noise) ** 2) / predicted - 1.0) < 0.03


def test_symbol_uncorrelated_with_effective_noise(forward_runs, chi_moments):
    _, xs, qs = forward_runs
    e_chi, _, _ = chi_moments
    eff_noise = xs - np.sqrt(RHO_F) * e_chi * qs
    corr = np.mean(qs * eff_noise.conj())
    se = np.sqrt(np.mean(np.abs(eff_noise) ** 2) / TRIALS)
    assert abs(corr) < 3 * se
