"""Acceptance gate: one test per criterion, one printed pass/fail line each.

Runs the full statistical battery, so expect several minutes of wall time.
Use `pytest tests/test_acceptance.py -v -s` to see the per-criterion lines.
"""

import math

import numpy as np
import pytest

from tddmimo import (RngStream, build_pilots, c_ind_lb, c_ind_lb_scheduled,
                     draw_channel, eta_moments, j_objective,
                     lmmse_estimate, phi_f_moments, pinv_precoder,
                     simulate_reverse_pilots, waterfill)
from tddmimo.channel_model import SystemConfig
from tddmimo.experiments import parse_spec, run_experiment
from tddmimo.moments import eta_samples


def _report(num: int, label: str, failures: list):
    status = "FAIL" if failures else "PASS"
    print(f"\nacceptance criterion {num} ({label}): {status}")
    assert not failures, "; ".join(failures)


def _read_csv(path):
    lines = path.read_text().splitlines()
    header = lines[0].split(",")
    return [dict(zip(header, row.split(","))) for row in lines[1:]]


@pytest.fixture(scope="module")
def sum_bound_run(tmp_path_factory):
    """Scheduled vs unscheduled sum-bound sweep, single worker."""
    spec = parse_spec("preset=fig2\nsamples=10000\nseed=1\n")
    out = tmp_path_factory.mktemp("sum_bound_w1")
    run_experiment(spec, out, workers=1)
    return out / spec.output


def test_criterion_1_exact_identities():
    failures = []
    psi = build_pilots(8, 3)
    if np.abs(psi.conj().T @ psi - np.eye(3)).max() > 1e-10:
        failures.append("pilot columns not orthonormal")

    h = draw_channel(3, 8, RngStream(5))
    a, chi = pinv_precoder(h)
    if abs(np.trace(a.conj().T @ a) - 1.0) > 1e-10:
        failures.append("precoder power not normalized")
    if np.abs(h @ a - chi * np.eye(3)).max() > 1e-8:
        failures.append("precoder does not diagonalize the channel")

    # the per-user bound written in chi moments must equal the same bound
    # written in unit-variance eta moments
    for rho_f, rho_r, tau, e_eta, var_eta in ((1.0, 0.1, 4, 1.8, 0.2),
                                              (0.5, 0.05, 8, 2.5, 0.01),
                                              (3.0, 1.0, 2, 1.0, 0.5)):
        gain = rho_r * tau / (1 + rho_r * tau)
        via_chi = c_ind_lb(rho_f, rho_r, tau,
                           np.sqrt(gain) * e_eta, gain * var_eta)
        via_eta = c_ind_lb_scheduled(rho_f, rho_r, tau, e_eta, var_eta)
        if abs(via_chi - via_eta) > 1e-12:
            failures.append("chi/eta substitution identity broken")

    p = np.array([0.3, 0.1, 0.6])
    w = np.array([2.0, 1.0, 0.5])
    alpha = np.array([1.0, 2.0, 1.5])
    beta = np.array([5.0, 8.0, 3.0])
    if abs(j_objective(2 * p, w, alpha, beta)
           - j_objective(p, w, alpha, beta)) > 1e-12:
        failures.append("weighted objective not scale invariant")

    pa = waterfill(w, alpha, beta)
    closed = np.maximum(w / (pa.lambda_star * alpha) - 1.0 / beta, 0.0)
    if abs(alpha @ pa.p_star - 1.0) > 1e-8:
        failures.append("waterfill power constraint residual too large")
    if np.abs(pa.p_star - closed).max() > 1e-8:
        failures.append("waterfill KKT residual too large")

    _report(1, "exact identities", failures)


def test_criterion_2_closed_form_oracles():
    failures = []
    K, M, tau, rho_r = 2, 50, 2, 0.5
    cfg = SystemConfig.homogeneous(M=M, K=K, T=10, tau_rp=tau,
                                   rho_f=1.0, rho_r=rho_r)
    psi = build_pilots(tau, K)
    est_pow = np.zeros(K)
    err_pow = np.zeros(K)
    trials = 1000  # K * M * trials = 1e5 entries
    for t in range(trials):
        rng = RngStream(100, t)
        h = draw_channel(K, M, rng)
        y = simulate_reverse_pilots(h, cfg, psi, rng.substream(1))
        est = lmmse_estimate(y, psi, cfg)
        est_pow += np.mean(np.abs(est.h_hat) ** 2, axis=1) / trials
        err_pow += np.mean(np.abs(est.h_hat - h) ** 2, axis=1) / trials
    rt = rho_r * tau
    if np.abs(est_pow - rt / (1 + rt)).max() > 0.02 * rt / (1 + rt):
        failures.append("estimate variance off by more than 2%")
    if np.abs(err_pow - 1 / (1 + rt)).max() > 0.02 / (1 + rt):
        failures.append("estimation error variance off by more than 2%")

    single = eta_moments(4, 1, 100_000, seed=1)
    target = math.gamma(4.5) / math.gamma(4)
    if abs(single.mean[0] - target) > 3 * single.std_error_of_mean[0]:
        failures.append("single-row mean outside 3 standard errors")

    vals = eta_samples(4, 2, 100_000, seed=2)[:, 1]
    inv_sq = vals[~np.isnan(vals)] ** -2
    se = inv_sq.std() / np.sqrt(inv_sq.size)
    if abs(inv_sq.mean() - 1.0) > 3 * se:
        failures.append("trace-inverse mean outside 3 standard errors")

    _report(2, "closed-form statistical oracles", failures)


def test_criterion_3_m_large_validation():
    failures = []
    f = np.array([0.7, 1.0, 1.3, 2.0])
    gaps = []
    for m in (16, 64, 256):
        est = phi_f_moments(f, m, 20_000, seed=3)
        approx = np.sqrt(m / np.sum(f ** -2.0))
        gaps.append(abs(est.mean[-1] - approx) / est.mean[-1])
    if not gaps[0] > gaps[1] > gaps[2]:
        failures.append(f"relative gap not decreasing: {gaps}")
    if gaps[2] >= 0.05:
        failures.append(f"gap at M=256 is {gaps[2]:.3f}, expected < 5%")
    _report(3, "M-large approximation", failures)


def test_criterion_4_waterfilling_optimality():
    failures = []
    step = 1000  # simplex grid resolution 1e-3
    i, j = np.meshgrid(np.arange(step + 1), np.arange(step + 1), indexing="ij")
    keep = (i + j) <= step
    x = np.stack([i[keep], j[keep], step - i[keep] - j[keep]], axis=0) / step
    rng = np.random.default_rng(0)
    for trial in range(20):
        w = rng.uniform(0.1, 3.0, 3)
        alpha = rng.uniform(1.0, 4.0, 3)
        beta = rng.uniform(0.05, 50.0, 3)
        # x parametrizes alpha * p on the unit simplex so the constraint
        # alpha @ p = 1 holds exactly on every grid point
        p = x / alpha[:, None]
        grid_best = np.log2(1.0 + beta[:, None] * p).T @ w
        grid_best = grid_best.max()
        pa = waterfill(w, alpha, beta)
        val = j_objective(pa.p_star, w, alpha, beta)
        if val < grid_best - 1e-6:
            failures.append(f"trial {trial}: waterfill {val} < grid {grid_best}")
    _report(4, "waterfilling optimality vs grid search", failures)


def test_criterion_5_scheduling_gain(sum_bound_run):
    failures = []
    cells = {}
    for row in _read_csv(sum_bound_run):
        key = (int(row["M"]), int(row["K"]))
        cells.setdefault(key, {})[int(row["scheme"])] = (
            float(row["rate"]), float(row["std_error"]))
    for (m, k), by_scheme in cells.items():
        (r0, se0), (r1, se1) = by_scheme[0], by_scheme[1]
        tol = 3 * np.hypot(se0, se1)
        if r1 < r0 - tol:
            failures.append(f"scheduled below unscheduled at M={m}, K={k}")
        if k == m and m >= 8 and r1 - r0 <= tol:
            failures.append(f"no significant scheduling gain at K=M={m}")
    _report(5, "scheduled sum bound dominates unscheduled", failures)


def test_criterion_6_net_rate_trends(tmp_path_factory):
    failures = []
    spec3 = parse_spec("preset=fig3\nT=20\nsamples=10000\nseed=1\n")
    out3 = tmp_path_factory.mktemp("net_rate")
    run_experiment(spec3, out3, workers=4)
    for scheme in (0, 1):
        rows = [r for r in _read_csv(out3 / spec3.output)
                if int(r["scheme"]) == scheme and r["status"] == "ok"]
        rows.sort(key=lambda r: int(r["M"]))
        for lo, hi in zip(rows, rows[1:]):
            tol = 3 * np.hypot(float(lo["std_error"]), float(hi["std_error"]))
            if float(hi["net_rate"]) < float(lo["net_rate"]) - tol:
                failures.append(
                    f"net rate drops from M={lo['M']} to M={hi['M']}"
                    f" (scheme {scheme})")

    spec5 = parse_spec("preset=fig5\nsamples=10000\nseed=1\n")
    out5 = tmp_path_factory.mktemp("weighted_net_rate")
    run_experiment(spec5, out5, workers=4)
    rows5 = [r for r in _read_csv(out5 / spec5.output) if r["status"] == "ok"]
    for scheme in (2, 3):
        rows = sorted((r for r in rows5 if int(r["scheme"]) == scheme),
                      key=lambda r: int(r["M"]))
        for lo, hi in zip(rows, rows[1:]):
            tol = 3 * np.hypot(float(lo["std_error"]), float(hi["std_error"]))
            if float(hi["wt_net_rate"]) < float(lo["wt_net_rate"]) - tol:
                failures.append(
                    f"weighted net rate drops from M={lo['M']} to M={hi['M']}"
                    f" (scheme {scheme})")
    by_m = {}
    for r in rows5:
        by_m.setdefault(int(r["M"]), {})[int(r["scheme"])] = float(r["wt_net_rate"])
    for m, by_scheme in by_m.items():
        if by_scheme[3] < by_scheme[2] - 1e-9:
            failures.append(f"scheduled scheme below unscheduled at M={m}")
    _report(6, "net-rate trends and scheme ordering", failures)


def test_criterion_7_joint_optimizer_structure(tmp_path_factory):
    failures = []
    spec = parse_spec("preset=fig4\nsamples=10000\nseed=1\n")
    out = tmp_path_factory.mktemp("optimizers")
    run_experiment(spec, out, workers=4)
    for row in _read_csv(out / spec.output):
        if row["status"] != "ok":
            failures.append(f"cell rho_f_db={row['rho_f_db']} not evaluated")
        elif row["K_star"] != row["tau_star"]:
            failures.append(
                f"K*={row['K_star']} != tau*={row['tau_star']}"
                f" at rho_f_db={row['rho_f_db']}")
    _report(7, "optimal user count equals optimal training length", failures)


def test_criterion_8_reproducibility(sum_bound_run, tmp_path_factory):
    failures = []
    spec = parse_spec("preset=fig2\nsamples=10000\nseed=1\n")
    out = tmp_path_factory.mktemp("sum_bound_w4")
    run_experiment(spec, out, workers=4)
    if (out / spec.output).read_bytes() != sum_bound_run.read_bytes():
        failures.append("CSV differs between worker counts 1 and 4")
    _report(8, "bit-identical reruns across worker counts", failures)
