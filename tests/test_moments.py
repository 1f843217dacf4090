import math
import os
import signal
import sys
import tracemalloc
import warnings
import zlib
from dataclasses import replace

import numpy as np
import pytest

from tddmimo import (MomentCache, MomentKey, RngStream, chi_of, draw_channel, moments,
                     eta_moments, phi_f_moments, precoding, weighted_phi_stats)
from tddmimo.experiments import parse_spec, run_experiment
from tddmimo.moments import CHUNK, GROUPS, SLICE, _slices, eta_samples, f_fingerprint
from tddmimo.precoding import COND_LIMIT
from tddmimo.rates import MomentSource


def test_closed_form_single_row_moments():
    # ||z||^2 ~ Gamma(M, 1) for a unit-variance complex row
    est = eta_moments(4, 1, 100_000, seed=1)
    mean_exact = math.gamma(4.5) / math.gamma(4)
    var_exact = 4 - mean_exact ** 2
    assert abs(est.mean[0] - mean_exact) < 3 * est.std_error_of_mean[0]
    vals = eta_samples(4, 1, 100_000, seed=1)[:, 0]
    se_var = np.sqrt((np.mean((vals - vals.mean()) ** 4) - est.variance[0] ** 2)
                     / vals.size)
    assert abs(est.variance[0] - var_exact) < 3 * se_var


@pytest.mark.parametrize("N,M", [(1, 3), (2, 4), (2, 8), (4, 8), (4, 16), (8, 16)])
def test_wishart_trace_inverse_identity(N, M):
    # E[tr((Z Z^H)^{-1})] = N / (M - N) for an N x M complex Gaussian Z
    # (Tulino & Verdu 2004); M - N >= 2 keeps its variance finite.  A draw
    # costs more as N grows, so larger N get fewer draws, 25,000 at least
    vals = eta_samples(M, N, min(100_000, 200_000 // N), seed=2)[:, N - 1]
    inv_sq = vals[~np.isnan(vals)] ** -2
    se = inv_sq.std() / np.sqrt(inv_sq.size)
    assert abs(inv_sq.mean() - N / (M - N)) < 3 * se


def test_scheduling_gain_in_k():
    a = eta_moments(8, 2, 100_000, seed=3)
    b = eta_moments(8, 4, 100_000, seed=4)
    gap = b.mean[1] - a.mean[1]
    assert gap > 3 * np.hypot(a.std_error_of_mean[1], b.std_error_of_mean[1])


def test_mean_nonincreasing_in_n():
    ests = [(eta_moments(8, 8, 100_000, seed=5 + n), n - 1) for n in (2, 4, 8)]
    for (lo, i), (hi, j) in zip(ests[1:], ests[:-1]):
        gap = hi.mean[j] - lo.mean[i]
        assert gap > 3 * np.hypot(lo.std_error_of_mean[i], hi.std_error_of_mean[j])


def test_jensen_consistency():
    est = eta_moments(6, 3, 5000, seed=6)
    assert np.all(est.variance >= 0.0)
    np.testing.assert_array_equal(est.count, est.samples - est.singular_events)
    np.testing.assert_allclose(
        est.std_error_of_mean,
        np.sqrt(est.variance / (est.samples - est.singular_events)), rtol=0, atol=1e-15)


# three blocks, the last partial
SHARED_SAMPLES = 2 * CHUNK + 17


def test_phi_reduces_to_eta_at_identity_f():
    # phi_F reads eta's draws in eta's row order, so at F = I every entry,
    # N < K included, holds eta's sums bit for bit
    eta = eta_moments(6, 3, SHARED_SAMPLES, seed=7)
    phi = phi_f_moments(np.ones(3), 6, SHARED_SAMPLES, seed=7)
    assert phi.singular_events == eta.singular_events
    for name in ("group_count", "group_sum", "group_sum_sq"):
        np.testing.assert_array_equal(getattr(phi, name), getattr(eta, name))


def test_weighted_stats_at_unit_f_and_p_are_eta():
    # at unit F and p_star the weighted kernel is eta's: the same rows, the
    # same order and the same factorization, so every served user's N = K
    # entry holds eta's sums bit for bit
    M, K = 6, 4
    eta = eta_moments(M, K, SHARED_SAMPLES, seed=7)
    wtd = weighted_phi_stats(np.ones(K), np.ones(K), M, SHARED_SAMPLES, seed=7)
    assert wtd.singular_events == eta.singular_events
    for k in range(K):
        np.testing.assert_array_equal(wtd.group_sum[:, K - 1, k], eta.group_sum[:, K - 1])
        np.testing.assert_array_equal(wtd.group_count[:, K - 1, k], eta.group_count[:, K - 1])


def test_phi_homogeneity():
    f = np.array([0.5, 1.5, 1.0])
    a = phi_f_moments(f, 6, 20_000, seed=8)
    b = phi_f_moments(3.0 * f, 6, 20_000, seed=8)
    assert b.mean == pytest.approx(3.0 * a.mean, rel=1e-10)
    assert b.variance == pytest.approx(9.0 * a.variance, rel=1e-9)


def test_phi_m_large_approximation():
    f = np.array([0.7, 1.0, 1.3, 2.0])
    est = phi_f_moments(f, 256, 10_000, seed=9)
    approx = np.sqrt(256 / np.sum(f ** -2.0))
    assert abs(est.mean[-1] - approx) / est.mean[-1] < 0.05


def test_dimension_errors():
    with pytest.raises(IndexError):
        eta_moments(4, 5, 100, seed=0)
    with pytest.raises(IndexError):
        eta_moments(4, 0, 100, seed=0)
    with pytest.raises(IndexError):
        phi_f_moments(np.ones(5), 4, 100, seed=0)


def _sample_key(kind, M, f, p):
    fingerprint = {"eta": "-", "phi_F": f_fingerprint(f), "weighted": f_fingerprint(f + p)}
    return moments.sample([MomentKey(kind, M, len(f), fingerprint[kind], 100, 0)])


# entry point -> (statistic kind, call at M antennas, F and p_star); K = len(F)
_ENTRY_POINTS = {
    "eta_moments": ("eta", lambda M, f, p: eta_moments(M, len(f), 100, 0)),
    "MomentSource.eta": ("eta", lambda M, f, p: MomentSource(100, 0).eta(M, len(f))),
    "phi_f_moments": ("phi_F", lambda M, f, p: phi_f_moments(f, M, 100, 0)),
    "MomentSource.phi": ("phi_F", lambda M, f, p: MomentSource(100, 0).phi(f, M)),
    "weighted_phi_stats": ("weighted", lambda M, f, p: weighted_phi_stats(f, p, M, 100, 0)),
    "MomentSource.weighted": ("weighted",
                              lambda M, f, p: MomentSource(100, 0).weighted(f, p, M)),
    **{f"sample-{kind}": (kind, lambda M, f, p, kind=kind: _sample_key(kind, M, f, p))
       for kind in ("eta", "phi_F", "weighted")},
}
# bad input -> (M, F, p_star, error, the kinds that read it)
_BAD_INPUTS = {
    "K>M": (1, [1.0, 1.0], [1.0, 1.0], IndexError, ("eta", "phi_F", "weighted")),
    "K=0": (2, [], [], IndexError, ("eta", "phi_F", "weighted")),
    "F<0": (2, [-1.0, 1.0], [1.0, 1.0], ValueError, ("phi_F", "weighted")),
    "F-nan": (2, [np.nan, 1.0], [1.0, 1.0], ValueError, ("phi_F", "weighted")),
    "F-inf": (2, [np.inf, 1.0], [1.0, 1.0], ValueError, ("phi_F", "weighted")),
    "p_star<0-nan": (2, [1.0, 1.0], [-1.0, np.nan], ValueError, ("weighted",)),
    "p_star-length": (2, [1.0, 1.0], [1.0], ValueError, ("weighted",)),
}


@pytest.mark.parametrize("entry,bad", [
    (entry, bad) for entry, (kind, _) in _ENTRY_POINTS.items()
    for bad, (*_, kinds) in _BAD_INPUTS.items() if kind in kinds],
    ids=lambda name: name)
def test_every_entry_point_checks_its_inputs(entry, bad):
    # one check on the key path: 1 <= K <= M, and F and p_star finite and
    # positive, K values each
    M, f, p, error, _ = _BAD_INPUTS[bad]
    with pytest.raises(error):
        _ENTRY_POINTS[entry][1](M, f, p)


def test_worker_count_independence(monkeypatch):
    # every statistic on two and three workers, as in a run, with four CPUs
    # so that three workers are not capped: 3 or 4 blocks over 2 children
    # and 4 over 3 are uneven shares; the last block of each sample count is
    # partial
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2, 3})
    f = np.array([0.5, 1.5, 1.0, 2.0])
    p = np.array([1.0, 2.0, 0.5, 1.0])
    runs = [
        lambda workers: eta_moments(6, 4, 6000, seed=10, workers=workers),
        lambda workers: eta_moments(5, 3, 2 * CHUNK + 17, seed=10, workers=workers),
        lambda workers: eta_moments(4, 2, 3 * CHUNK + 17, seed=10, workers=workers),
        lambda workers: phi_f_moments(f, 6, 5000, seed=10, workers=workers),
        lambda workers: weighted_phi_stats(f, p, 6, 2500, seed=10, workers=workers),
    ]
    for workers in (2, 3):
        for a, b in zip([run(1) for run in runs], [run(workers) for run in runs]):
            for name, value in vars(a).items():
                np.testing.assert_array_equal(getattr(b, name), value)


def test_pool_size_is_bounded_by_cpu_count(monkeypatch, tmp_path):
    # a sampling call builds a pool of min(workers, tasks, CPUs) processes,
    # counting the CPUs this process may run on, and only when that is at
    # least 2; the stand-in records the size and runs the tasks in-process
    sizes = []

    class RecordingPool:
        def __init__(self, max_workers=None):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return None

        def map(self, fn, tasks):
            return map(fn, tasks)

    monkeypatch.setattr(moments, "ProcessPoolExecutor", RecordingPool)
    keys = [MomentKey("eta", M, 2, "-", CHUNK, 3) for M in (2, 3, 4)]  # one task each
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(4)))
    moments.sample([replace(key, samples=2 * CHUNK) for key in keys], 10**6)  # 6 tasks
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(8)))
    moments.sample(keys, 8)
    assert sizes == [4, 3]
    # one CPU: a run of several blocks at --workers 2 samples in-process
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(1)))
    spec = parse_spec("preset=custom\nscheme=1\nM=4\nK=2\nrho_f_db=0\nrho_r_db=-10\n"
                      f"seed=4\nsamples={2 * CHUNK + 17}\n")
    assert run_experiment(spec, tmp_path, workers=2)["cache_misses"] == 1
    assert sizes == [4, 3]


@pytest.mark.skipif(sys.platform != "linux", reason="the pool forks only on Linux")
def test_fork_pool_failures_reap_every_child():
    # a task's exception comes back with its type and message, a child that
    # ends without a result is a RuntimeError rather than a hang, and no
    # child outlives either; SIGALRM turns a hang into a failure
    def fail(i):
        if i == 3:
            raise ValueError(f"task {i} failed")
        return i

    def die(i):
        if i == 1:
            os.kill(os.getpid(), signal.SIGKILL)
        return i

    def hung(signum, frame):
        raise TimeoutError("the pool hung")

    previous = signal.signal(signal.SIGALRM, hung)
    signal.alarm(60)
    try:
        with moments.ProcessPoolExecutor(2) as pool:
            assert pool.map(lambda i: i * i, range(5)) == [0, 1, 4, 9, 16]
            with pytest.raises(ValueError, match="^task 3 failed$"):
                pool.map(fail, range(6))
            with pytest.raises(RuntimeError, match=f"exit status {-signal.SIGKILL}"):
                pool.map(die, range(6))
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_eta_batch_matches_each_k_alone():
    # the Ks of one M share their draws; each K's estimate is the same bits
    # whichever other Ks it is sampled with and on however many workers
    samples, M = 2 * CHUNK + 17, 5
    alone = [eta_moments(M, k, samples, seed=26) for k in range(1, M + 1)]
    shuffled = eta_moments(M, [4, 1, 5, 2, 3], samples, seed=26)
    pooled = eta_moments(M, range(1, M + 1), samples, seed=26, workers=2)
    source = MomentSource(samples, 26, workers=2)
    source.eta(M, 2)
    from_source = source.eta(M, range(1, M + 1))
    assert source.cache.misses == M and source.cache.hits == 1
    for k, est in enumerate(alone, start=1):
        for other in (shuffled[[4, 1, 5, 2, 3].index(k)], pooled[k - 1], from_source[k]):
            _assert_same(est, other)


def test_shared_pass_matches_each_statistic_alone():
    # one pass per (M, block) over every statistic of two M: the eta of every
    # K, a phi_F, and weighted statistics of several K, two of one K sharing
    # their Gram matrix.  At F = (1, 1e-4) and M = K = 2 this seed has 3
    # singular draws of 4113.  Each estimate is the same bits, group sums and
    # singular count included, as alone, in-process or on a pool.  A weighted
    # fingerprint holds F, then p_star
    samples, seed = 2 * CHUNK + 17, 33
    weighted = [(2, [1.0, 1e-4], [1.0, 1.0]), (2, [0.5, 2.0], [2.0, 1.0]),
                (3, [1.0, 1e-4, 1.0], [1.0, 1.0, 1.0]), (3, [0.5, 1.5], [1.0, 2.0]),
                (3, [0.7, 1.1], [3.0, 0.5])]
    keys = [MomentKey("eta", M, k, "-", samples, seed) for M in (3, 2) for k in range(1, M + 1)]
    keys += [MomentKey("weighted", M, len(f), f_fingerprint(f + p), samples, seed)
             for M, f, p in weighted]
    keys.append(MomentKey("phi_F", 3, 2, f_fingerprint([0.5, 1.5]), samples, seed))
    alone = [eta_moments(key.M, key.K, samples, seed) for key in keys[:5]]
    alone += [weighted_phi_stats(f, p, M, samples, seed) for M, f, p in weighted]
    alone.append(phi_f_moments([0.5, 1.5], 3, samples, seed))
    assert [est.singular_events for est in alone[5:]] == [3, 0, 1, 0, 0, 0]
    assert list(moments._passes(keys)) == [(3, samples, seed), (2, samples, seed)]
    serial = moments.sample(keys)
    pooled = moments.sample(keys, 2)
    assert list(serial) == list(pooled) and set(serial) == set(keys)
    for key, est in zip(keys, alone):
        _assert_same(est, serial[key])
        _assert_same(est, pooled[key])


def test_eta_kernel_reads_the_first_k_rows_of_the_row_draws():
    # eta(M, K) orders the first K rows of each draw by norm, best first,
    # row r of block b being drawn from RngStream(seed, b, r)
    M, K, seed, count = 5, 3, 27, 300
    vals = eta_samples(M, K, count, seed)
    for i, z in enumerate(_row_draws(M, M, count, seed)):
        rows = z[:K][np.argsort(-np.sum(np.abs(z[:K]) ** 2, axis=1), kind="stable")]
        ref = [_per_n_oracle(rows, n) for n in range(1, K + 1)]
        np.testing.assert_allclose(vals[i], ref, rtol=1e-9)
    # at K = M every row is served, and chi does not depend on their order
    np.testing.assert_allclose(eta_samples(M, M, count, seed)[:, -1],
                               chi_of(_row_draws(M, M, count, seed)), rtol=1e-12)
    # fewer samples read a prefix of the draws of more
    np.testing.assert_array_equal(vals, eta_samples(M, K, CHUNK + 5, seed)[:count])


def test_eta_draws_only_the_rows_it_reads(monkeypatch):
    # a block draws max(K) rows of M, so a small K at a large M stays cheap;
    # each slice of a block draws every row once, continuing its generator
    import tddmimo.moments as moments
    calls = []
    draw = moments.draw_channel
    monkeypatch.setattr(moments, "draw_channel", lambda K, M, rng, count:
                        calls.append((K, M, count)) or draw(K, M, rng, count))
    eta_moments(64, 2, 100, seed=30)
    assert calls == [(1, 64, 100)] * 2
    calls.clear()
    eta_moments(64, [3, 1, 5], 100, seed=30)
    assert calls == [(1, 64, 100)] * 5
    calls.clear()
    eta_moments(64, 2, CHUNK + 300, seed=30)  # whole slices, then a slice and 44 draws
    assert calls == [(1, 64, SLICE)] * 2 * (CHUNK // SLICE + 1) + [(1, 64, 44)] * 2


def _eigvalsh_guard(g):
    """The guard without its certificate: every draw's eigenvalues decide,
    and the draws that pass are factored on their own stack."""
    g = g.reshape((-1,) + g.shape[-2:])
    lam = np.linalg.eigvalsh(g)
    ok = (lam[:, 0] > 0) & (lam[:, -1] <= COND_LIMIT * lam[:, 0])
    return (ok, *precoding._factor(g[ok]))


def _with_cond(z, cond):
    """z (K x M) with its singular vectors kept and its squared singular
    values set to 1, ..., 1, 1/cond: a Gram matrix of condition number cond."""
    u, _, vh = np.linalg.svd(z, full_matrices=False)
    s = np.ones(len(z))
    s[-1] = cond ** -0.5
    return (u * s) @ vh


def _hard_block(K, M, count, seed):
    """A block whose draws 3, 7 and 11 are singular, just above COND_LIMIT,
    and below it but not certified (tr(G) tr(G^-1) about 1.6e12 at K = 4)."""
    z = draw_channel(K, M, RngStream(seed, 0), count)
    z[3, 1] = z[3, 0]
    z[7] = _with_cond(z[7], 1.1 * COND_LIMIT)
    z[11] = _with_cond(z[11], 0.55 * COND_LIMIT)
    return z


def test_certified_guard_matches_eigenvalue_guard(monkeypatch):
    from tddmimo.precoding import _inverse_cholesky, chi_all_n, gram
    g = gram(_hard_block(4, 6, 64, 28))
    assert np.trace(g[11]).real * np.trace(np.linalg.inv(g[11])).real > COND_LIMIT
    stacks = (g[:3], g[:8], g[8:], g[:12], g)
    refs = [_eigvalsh_guard(stack) for stack in stacks]
    eigvalsh, fallbacks = np.linalg.eigvalsh, []
    monkeypatch.setattr(np.linalg, "eigvalsh", lambda a: fallbacks.append(len(a)) or eigvalsh(a))
    for stack, ref in zip(stacks, refs):
        for got, want in zip(_inverse_cholesky(stack), ref):
            np.testing.assert_array_equal(got, want)
    assert fallbacks == [8, 56, 12, 64]  # only the first stack is certified whole
    chi = chi_all_n(g)
    assert np.flatnonzero(np.isnan(chi[:, 0])).tolist() == [3, 7]


def test_certified_blocks_call_no_lapack(monkeypatch):
    # a certified block is factored by numpy operations over its draws: with
    # LAPACK's cholesky, inv and eigvalsh made to raise, an eta pass, a
    # phi_F and a weighted view give the same block sums as with them
    M, seed = 6, 31
    f, p = [0.5, 1.5, 1.0, 2.0], [1.0, 2.0, 0.5, 1.0]
    keys = [moments.key_of("eta", M, k, CHUNK, seed) for k in (1, 2, 4)]
    keys += [moments.key_of("phi_F", M, 4, CHUNK, seed, f),
             moments.key_of("weighted", M, 4, CHUNK, seed, f, p)]
    [views] = [tuple(map(moments._view, group)) for group in moments._passes(keys).values()]
    task = (M, views, seed, 0, CHUNK)
    want = moments._block_sums(task)

    def lapack(*args, **kwargs):
        raise RuntimeError("LAPACK called on a certified block")

    for name in ("cholesky", "inv", "eigvalsh"):
        monkeypatch.setattr(np.linalg, name, lapack)
    got = moments._block_sums(task)
    assert len(got) == len(views) and all(sums[0] == 0 for sums in got)
    for sums, ref in zip(got, want):
        for a, b in zip(sums, ref):
            np.testing.assert_array_equal(a, b)


def _hard_draws(monkeypatch):
    """Start block 0 of every pass with the 12 draws of `_hard_block`, row r
    of the block taking row r of them: one block, within the singular-draw
    budget.  The kernel continues one generator per row of a block, so each
    generator is tagged with its stream when it is made, and the hook counts
    the draws taken from it."""
    draw, generator, made = moments.draw_channel, RngStream.generator, {}

    def tagged(stream):
        g = generator(stream)
        made[g] = stream, [0]
        return g

    def hard(K, M, rng, count):
        z = draw(K, M, rng, count)
        stream, taken = made[rng]
        if stream.stream_id == 0 and taken[0] == 0:  # the first slice of block 0
            z[:12] = _hard_block(4, M, 12, stream.seed)[:, stream.row:stream.row + 1]
        taken[0] += count
        return z

    monkeypatch.setattr(RngStream, "generator", tagged)
    monkeypatch.setattr(moments, "draw_channel", hard)


def test_certificate_fallback_gives_the_eigenvalue_guards_statistics(monkeypatch):
    # the kernel's certificate fails on these blocks; the eigenvalue guard
    # alone must give the same singular draws and the same phi
    _hard_draws(monkeypatch)
    f = np.array([0.5, 1.5, 1.0, 2.0])
    p = np.array([1.0, 2.0, 0.5, 1.0])
    runs = [lambda: eta_moments(4, [2, 3, 4], 4000, seed=29),
            lambda: [phi_f_moments(f, 6, 4000, seed=29)],
            lambda: [weighted_phi_stats(f, p, 6, 4000, seed=29)]]
    certified = [run() for run in runs]
    monkeypatch.setattr(precoding, "_inverse_cholesky", _eigvalsh_guard)
    for ests, run in zip(certified, runs):
        for est, ref in zip(ests, run()):
            assert est.singular_events == ref.singular_events > 0
            _assert_same(est, ref)


def _block(task) -> list:
    """`_slices`' (phi, order) per view, each joined over the block's slices."""
    made, views = list(_slices(*task)), len(task[1])
    return [tuple(map(np.concatenate, zip(*made[v::views]))) for v in range(views)]


@pytest.mark.parametrize("hard", [False, True], ids=["regular", "hard-first-slice"])
def test_slices_give_the_bits_of_one_stack(monkeypatch, hard):
    # a block runs in slices of SLICE draws; run as one stack (SLICE = CHUNK)
    # it gives the same phi, order and block sums for a multi-K eta pass, a
    # phi_F and a weighted view.  The second block of CHUNK + 300 samples is
    # one full slice plus 44 draws.  With hard draws in block 0's first slice,
    # that slice alone takes the eigenvalue fallback, once per view
    M, seed, samples = 6, 29, CHUNK + 300
    f, p = [0.5, 1.5, 1.0, 2.0], [1.0, 2.0, 0.5, 1.0]
    keys = [moments.key_of("eta", M, k, samples, seed) for k in (2, 3, 4)]
    keys += [moments.key_of("phi_F", M, 4, samples, seed, f),
             moments.key_of("weighted", M, 4, samples, seed, f, p)]
    [views] = [tuple(map(moments._view, group)) for group in moments._passes(keys).values()]
    tasks = [(M, views, seed, 0, CHUNK), (M, views, seed, 1, samples - CHUNK)]
    if hard:
        _hard_draws(monkeypatch)
    eigvalsh, fallbacks = np.linalg.eigvalsh, []
    monkeypatch.setattr(np.linalg, "eigvalsh", lambda a: fallbacks.append(len(a)) or eigvalsh(a))

    def run():
        fallbacks.clear()
        return [(_block(task), moments._block_sums(task)) for task in tasks], fallbacks[:]

    sliced, sliced_fallbacks = run()
    assert samples - CHUNK == SLICE + 44 and SLICE < CHUNK
    monkeypatch.setattr(moments, "SLICE", CHUNK)
    whole, whole_fallbacks = run()
    # _slices and _block_sums each run block 0 once
    assert sliced_fallbacks == ([SLICE] * 2 * len(views) if hard else [])
    assert whole_fallbacks == ([CHUNK] * 2 * len(views) if hard else [])
    for (block, sums), (ref_block, ref_sums) in zip(sliced, whole):
        for got, want in zip(block + sums, ref_block + ref_sums):
            for a, b in zip(got, want):
                np.testing.assert_array_equal(a, b)
    if hard:  # draws 3 and 7 of block 0 are singular at K = 4
        assert np.flatnonzero(np.isnan(sliced[0][0][2][0][:, 0])).tolist() == [3, 7]


def _peak(M: int, count: int) -> int:
    """tracemalloc's peak over one eta block of `count` draws at M, K = 1..M."""
    views = tuple(moments._view(moments.key_of("eta", M, k, CHUNK, 1)) for k in range(1, M + 1))
    tracemalloc.start()
    try:
        moments._block_sums((M, views, 1, 0, count))
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_a_block_holds_one_slice_of_its_gram_work(monkeypatch):
    # one block of the largest eta pass of fig2 and fig3 (M = 16, K = 1..16)
    # holds one slice's rows and Gram matrices, so its allocation peak is at
    # most a third of the same block's peak as one stack: a bound relative to
    # the same test's own measurement
    sliced = _peak(16, CHUNK)
    monkeypatch.setattr(moments, "SLICE", CHUNK)
    assert 3 * sliced <= _peak(16, CHUNK)


def test_a_task_does_not_grow_with_its_blocks_draws():
    # each slice is folded into the group sums as it is made, so a block of
    # CHUNK draws holds no more than a block of one slice plus the sums: at
    # M = 32, K = 1..32 holding phi and order of the whole block would take
    # the ratio to 1.6
    assert _peak(32, CHUNK) <= 1.25 * _peak(32, SLICE)


@pytest.mark.parametrize("count", [CHUNK, 2 * SLICE + 37], ids=["whole", "padded"])
@pytest.mark.parametrize("shape", [(20,), (1,), (8, 8)], ids=["eta-phi_F", "K=1", "weighted"])
def test_fold_by_slice_gives_the_bits_of_one_block_sum(shape, count):
    # _block_sums folds each slice into the group sums as it is made; that
    # must be the bits of padding the whole block to rounds of GROUPS draws
    # and summing over the rounds axis, which holds while numpy adds an outer
    # axis in order.  Heavy-tailed values make any other order show: adding
    # the rounds in reverse changes the bits
    a = np.random.default_rng(5).pareto(0.5, (count,) + shape)
    rounds = np.concatenate([a, np.zeros((-count % GROUPS,) + shape)])
    rounds = rounds.reshape((-1, GROUPS) + shape)
    whole = rounds.sum(axis=0)
    assert rounds[::-1].sum(axis=0).tobytes() != whole.tobytes()
    folded = served = 0
    for s in range(0, count, SLICE):
        folded = moments._fold(folded, a[s:s + SLICE])
        served = moments._fold(served, a[s:s + SLICE] > 1.0)
    assert folded.dtype == whole.dtype and folded.shape == whole.shape
    assert folded.tobytes() == whole.tobytes()
    np.testing.assert_array_equal(served, (rounds > 1.0).sum(axis=0))


def _row_draws(K: int, M: int, samples: int, seed: int) -> np.ndarray:
    """Every statistic's draws: sample i is draw i % CHUNK of block
    i // CHUNK, whose row r is drawn from RngStream(seed, b, r)."""
    return np.concatenate([
        np.concatenate([draw_channel(1, M, RngStream(seed, b, r), min(CHUNK, samples - start))
                        for r in range(K)], axis=1)
        for b, start in enumerate(range(0, samples, CHUNK))])


def _per_n_oracle(z: np.ndarray, n: int) -> float:
    gram = z[:n] @ z[:n].conj().T
    return float(np.trace(np.linalg.inv(gram)).real) ** -0.5


@pytest.mark.parametrize("M", [4, 6])
def test_all_n_kernel_matches_per_n_inverse(M):
    # at M = K = 4 some draws are ill-conditioned square matrices
    K, seed, count = 4, 15, 400
    scores = np.array([1.0, 2.0, 0.5, 1.0])
    f = np.array([0.5, 1.5, 1.0, 2.0])
    [(phi, order)] = _block((M, ((False, tuple(scores), tuple(f)),), seed, 0, count))
    worst = 0.0
    for i, z in enumerate(_row_draws(K, M, count, seed)):
        expected = np.argsort(-scores * np.sum(np.abs(z) ** 2, axis=1), kind="stable")
        np.testing.assert_array_equal(order[i], expected)
        if np.isnan(phi[i, 0]):
            continue
        zf = (f[:, None] * z)[expected]
        for n in range(1, K + 1):
            ref = _per_n_oracle(zf, n)
            worst = max(worst, abs(phi[i, n - 1] - ref) / ref)
        # the kernel reads the precoders' factorization: keep the paths joined
        assert phi[i, -1] == pytest.approx(chi_of(zf), rel=1e-12)
    assert worst < 1e-9


def _weighted_oracle(f_diag, p_star, M, samples, seed):
    """Per-sample, per-N reference for weighted_phi_stats: per-group count,
    sum and sum of squares, draw i in group i % GROUPS."""
    Ka = f_diag.size
    cnt = np.zeros((GROUPS, Ka, Ka), dtype=np.int64)
    s1 = np.zeros((GROUPS, Ka, Ka))
    s2 = np.zeros((GROUPS, Ka, Ka))
    for i, z in enumerate(_row_draws(Ka, M, samples, seed)):
        order = np.argsort(-p_star * np.sum(np.abs(z) ** 2, axis=1), kind="stable")
        zf = (f_diag[:, None] * z)[order]
        grams = [zf[:n] @ zf[:n].conj().T for n in range(1, Ka + 1)]
        if any(np.linalg.cond(g) > COND_LIMIT for g in grams):
            continue
        for n in range(1, Ka + 1):
            phi = _per_n_oracle(zf, n)
            cnt[i % GROUPS, n - 1, order[:n]] += 1
            s1[i % GROUPS, n - 1, order[:n]] += phi
            s2[i % GROUPS, n - 1, order[:n]] += phi ** 2
    return cnt, s1, s2


def test_weighted_stats_match_per_sample_oracle():
    f = np.array([0.5, 1.5, 1.0, 2.0])
    p = np.array([1.0, 2.0, 0.5, 1.0])
    stats = weighted_phi_stats(f, p, 6, 300, seed=16)
    group_cnt, group_s1, group_s2 = _weighted_oracle(f, p, 6, 300, seed=16)
    np.testing.assert_array_equal(stats.group_count, group_cnt)
    np.testing.assert_allclose(stats.group_sum, group_s1, rtol=1e-12)
    np.testing.assert_allclose(stats.group_sum_sq, group_s2, rtol=1e-12)
    cnt, s1, s2 = (a.sum(axis=0) for a in (group_cnt, group_s1, group_s2))
    with np.errstate(all="ignore"):
        mean = s1 / cnt
        var = s2 / cnt - mean * mean
    np.testing.assert_array_equal(stats.count, cnt)
    assert np.any(cnt == 0)  # the NaN convention for never-served users is exercised
    np.testing.assert_allclose(stats.mean, mean, rtol=1e-12, equal_nan=True)
    np.testing.assert_allclose(stats.variance, np.maximum(var, 0.0), rtol=1e-12,
                               equal_nan=True)


def test_draw_i_is_in_group_i_mod_groups():
    # two blocks, the second partial and not a whole number of rounds
    samples = CHUNK + 37
    est = eta_moments(5, 3, samples, seed=25)
    vals = eta_samples(5, 3, samples, seed=25)
    for g in range(GROUPS):
        group = vals[g::GROUPS]
        np.testing.assert_array_equal(est.group_count[g], np.isfinite(group).sum(axis=0))
        np.testing.assert_allclose(est.group_sum[g], np.nansum(group, axis=0), rtol=1e-12)
        np.testing.assert_allclose(est.group_sum_sq[g], np.nansum(group ** 2, axis=0), rtol=1e-12)
    count, mean, var, frac = est.leave_one_out()
    assert count.shape == (GROUPS, 3)
    rest = np.delete(vals, np.s_[5::GROUPS], axis=0)  # group 5 left out
    np.testing.assert_allclose(mean[5], np.nanmean(rest, axis=0), rtol=1e-12)
    np.testing.assert_allclose(var[5], np.nanvar(rest, axis=0), rtol=1e-9)
    np.testing.assert_array_equal(frac, 1.0)


def _assert_same(a, b):
    assert a.samples == b.samples and a.singular_events == b.singular_events
    assert a.group_count.dtype.kind == b.group_count.dtype.kind == "i"
    for name in ("group_count", "group_sum", "group_sum_sq",
                 "count", "mean", "variance", "frac", "std_error_of_mean"):
        np.testing.assert_array_equal(getattr(a, name), getattr(b, name))


def test_cache_miss_then_hit(tmp_path):
    source = MomentSource(2000, 11, cache_path=tmp_path / "cache")
    a = source.eta(5, 3)
    b = source.eta(5, 3)
    assert a is b
    assert source.cache.hits == 1 and source.cache.misses == 1


def test_cache_keys_include_seed(tmp_path):
    path = tmp_path / "cache"
    a = MomentSource(2000, 12, cache_path=path).eta(5, 3)
    b = MomentSource(2000, 13, cache_path=path).eta(5, 3)
    assert not np.array_equal(a.mean, b.mean)
    assert len(MomentCache(path)) == 2


def test_cache_persistence_round_trip(tmp_path):
    path = tmp_path / "cache"
    a = MomentSource(2000, 14, cache_path=path).eta(5, 3)
    reloaded = MomentSource(2000, 14, cache_path=path)
    _assert_same(a, reloaded.eta(5, 3))
    assert reloaded.cache.hits == 1 and reloaded.cache.misses == 0
    crc = format(zlib.crc32(b"-"), "08x")
    version = MomentCache.VERSION.rpartition(" ")[2]
    assert os.listdir(path) == [version] and os.listdir(path / version) == [f"eta_5_3_2000_14_{crc}"]


def test_cache_is_lazy(tmp_path):
    # nothing is created or read before a statistic is requested
    path = tmp_path / "cache"
    cache = MomentCache(path)
    assert len(cache) == 0 and cache.kind_counts() == {} and not path.exists()


def test_cache_round_trips_every_kind(tmp_path):
    # weighted statistics persist with the others, NaN entries included: the
    # last user ranks first only if every other ||z_k||^2 is about 1e12 times
    # smaller than its own, so its N = 1 entry is never served
    path = tmp_path / "cache"
    f = np.array([0.5, 1.5, 1.0, 2.0])
    p = np.array([1.0, 2.0, 0.5, 1e-12])
    requests = [lambda s: s.eta(6, 4), lambda s: s.phi(f, 6),
                lambda s: s.weighted(f, p, 6), lambda s: s.weighted(f, 2 * p, 6)]
    first = MomentSource(300, 19, cache_path=path)
    ests = [request(first) for request in requests]
    assert ests[2].count[0, 3] == 0 and np.isnan(ests[2].mean[0, 3])
    reloaded = MomentSource(300, 19, cache_path=path)
    assert reloaded.cache.kind_counts() == {"eta": 1, "phi_F": 1, "weighted": 2}
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for request, est in zip(requests, ests):
            _assert_same(est, request(reloaded))
    assert reloaded.cache.misses == 0
    assert ests[2].count.shape == (4, 4)


def test_cache_counts_singular_draws_once_per_statistic(tmp_path):
    path = tmp_path / "cache"
    source = MomentSource(500, 20, cache_path=path)
    est = source.eta(5, 3)
    source.eta(5, 2)
    # the eta(5, 3) record, rewritten with one singular draw
    source.cache._write(MomentKey("eta", 5, 3, "-", 500, 20), replace(est, singular_events=1))
    reloaded = MomentSource(500, 20, cache_path=path)
    for _ in range(4):
        assert reloaded.eta(5, 3).singular_events == 1
        reloaded.eta(5, 2)
    assert reloaded.cache.hits == 8
    assert reloaded.cache.singular_events == 1


@pytest.mark.parametrize("damage", ["truncated-data", "truncated-header", "empty", "garbage",
                                    "wrong-shape", "wrong-dtype"])
def test_unreadable_record_is_recomputed_and_replaced(tmp_path, damage):
    path = tmp_path / "cache"
    source = MomentSource(500, 17, cache_path=path)
    a = source.eta(5, 3)
    key = MomentKey("eta", 5, 3, "-", 500, 17)
    record = source.cache._file(key)
    good = record.read_bytes()
    if damage == "wrong-shape":  # eta(5, 2)'s estimate in eta(5, 3)'s record
        source.cache._write(key, eta_moments(5, 2, 500, 17))
    elif damage == "wrong-dtype":
        source.cache._write(key, replace(a, group_count=a.group_count.astype(float)))
    else:  # what a disk or an editor, not a killed writer, can leave
        record.write_bytes({"truncated-data": good[:-1], "truncated-header": good[:100],
                            "empty": b"", "garbage": b"\xff\xfe garbage\n"}[damage])
    assert record.read_bytes() != good
    reloaded = MomentSource(500, 17, cache_path=path)
    with pytest.warns(UserWarning, match="unreadable, recomputing"):
        _assert_same(reloaded.eta(5, 3), a)
    assert reloaded.cache.misses == 1
    assert record.read_bytes() == good


def test_other_versions_and_temporary_files_are_ignored(tmp_path):
    # a v8 cache file beside the directory, another version's directory and a
    # killed writer's temporary file are neither read, warned about nor counted
    path = tmp_path / "moments_cache"
    first = MomentSource(300, 21, cache_path=path)
    a = first.eta(5, 3)
    other = first.cache._file(MomentKey("eta", 5, 2, "-", 300, 21))
    leftovers = {tmp_path / "moments_cache.txt": b"tddmimo-moments-cache v8\n\neta,5,2\n",
                 path / "v8" / other.name: b"garbage",
                 other.with_name(f".{other.name}.12345"): b"garbage"}
    (path / "v8").mkdir()
    for leftover, data in leftovers.items():
        leftover.write_bytes(data)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        second = MomentSource(300, 21, cache_path=path)
        assert len(second.cache) == 1
        _assert_same(second.eta(5, 3), a)
        b = second.eta(5, 2)
    _assert_same(b, eta_moments(5, 2, 300, 21))
    assert second.cache.misses == 1 and second.cache.kind_counts() == {"eta": 2}
    assert all(leftover.read_bytes() == data for leftover, data in leftovers.items())
    assert len(MomentCache(tmp_path / "moments_cache.txt")) == 0  # a path that is a file


def test_fingerprint_mismatch_behind_a_shared_crc_is_a_miss(tmp_path):
    # two F diagonals whose fingerprints share a crc32, and so a record name
    f, g = ([float.fromhex(x)] for x in ("0x1.c2fc89d2486e5p+0", "0x1.44dcfd2065064p+0"))
    assert f_fingerprint(f) != f_fingerprint(g)
    assert zlib.crc32(f_fingerprint(f).encode()) == zlib.crc32(f_fingerprint(g).encode())
    path = tmp_path / "cache"
    a = MomentSource(300, 26, cache_path=path).phi(f, 3)
    for diag, expected in ((g, phi_f_moments(g, 3, 300, 26)), (f, a)):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            source = MomentSource(300, 26, cache_path=path)
            _assert_same(source.phi(diag, 3), expected)
        assert source.cache.misses == 1 and source.cache.hits == 0
        assert len(source.cache) == 1  # the record of the other diagonal is replaced


def test_second_source_sees_records_written_after_it_was_built(tmp_path):
    # two runs on one directory: each lookup sees what the other has finished
    path = tmp_path / "cache"
    first = MomentSource(300, 28, cache_path=path)
    second = MomentSource(300, 28, cache_path=path)
    a = first.eta(5, 3)
    _assert_same(second.eta(5, 3), a)
    assert second.cache.hits == 1 and second.cache.misses == 0


def test_record_name_fits_a_file_name_at_64_users(tmp_path):
    # a weighted fingerprint of 64 users is 2 x 64 x 16 = 2048 hex digits, far
    # over the 255 bytes a file name may hold
    f = np.linspace(0.5, 2.0, 64)
    p = np.linspace(2.0, 0.5, 64)
    path = tmp_path / "cache"
    source = MomentSource(20, 27, cache_path=path)
    est = source.weighted(f, p, 64)
    [name] = os.listdir(source.cache.dir)
    assert len(name.encode()) < 255 < len(f_fingerprint(np.concatenate([f, p])))
    reloaded = MomentSource(20, 27, cache_path=path)
    _assert_same(reloaded.weighted(f, p, 64), est)
    assert reloaded.cache.misses == 0


def test_fingerprint_sensitivity():
    # keys are exact: one ulp apart is another key, and the key is the bits
    f = np.array([0.5, 1.0])
    g = f.copy()
    g[1] = np.nextafter(g[1], 2.0)
    assert f_fingerprint(f) != f_fingerprint(g)
    assert f_fingerprint(f) == f_fingerprint(f.copy())
    np.testing.assert_array_equal(np.frombuffer(bytes.fromhex(f_fingerprint(g)), "<f8"), g)
    assert "," not in f_fingerprint(g)


def test_moment_key_identity():
    k1 = MomentKey("eta", 4, 2, "-", 100, 7)
    k2 = MomentKey("eta", 4, 2, "-", 100, 7)
    assert k1 == k2 and hash(k1) == hash(k2)
