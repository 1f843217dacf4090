"""Monte Carlo estimation of the trace-inverse gain statistics.

Every statistic is one kernel (`_block_sums`) over a sample axis, built on
norms and directions.  Write row k of a K x M i.i.d. CN(0, 1) matrix Z as
z_k = sqrt(r_k) u_k: the norm r_k = ||z_k||^2 ~ Gamma(M, 1) and the
direction u_k, uniform on the unit sphere, are independent (Muirhead,
Aspects of Multivariate Statistical Theory, 1982, sec. 1.5).  Every selection
reads only norms, so the directions of the selected rows are i.i.d.
uniform whatever was selected, and the j-th best row may take the
direction of row j.  Each draw is therefore the Cholesky factor L of
W = Z Z^H, drawn directly (`_bartlett`: the complex Bartlett decomposition,
Goodman 1963), with r_k = W_kk, and one triangular inverse L^{-1} at the
pass's max(K) (`triangular_inverse`, the kernel's own) serves every K and
every view: with A = |L^{-1}|^2 scaled by r along its columns and
w = 1 / (f^2 r) in rank order, tr(G_{S,N}^{-1}) = cumsum(A[:K, :K] w) for
every served count N at once (`_slices`).  The statistics differ only
in their parameters, a view (per_user, scores, F) of the draws: eta has
unit scores and unit F, phi_F has unit scores and its F, and the weighted
statistics have F, order by p_star and count per user.  A MomentKey names
its view exactly (`_view`).  The first K rows of L do not depend on how
many rows are drawn, so every statistic of one (seed, M) reads the same
draws (common random numbers), and statistics sampled together share one
draw of max(K) rows per block: `sample` runs one task per (M, block) over
all the statistics of that M.

Samples are drawn in blocks of CHUNK: a block is keyed by (seed, b), and
row i of its factor draws its diagonal from sub-stream 2i and its entries
below from sub-stream 2i + 1 (`RngStream.row`).  A block is a stream of
slices (`_slices`), each drawing the next SLICE draws of every sub-stream,
continuing one generator per sub-stream; the slices are the same bits as
one stack.  Draw i of a block does not depend on the block's size, so
fewer samples read a prefix of the draws of more.  Each block is reduced
to per-group sums of phi and phi^2, draw i of a statistic being in group
i % GROUPS, and each slice is added to them as it is made, round by round
of GROUPS draws (`_fold`): a task holds one slice, never an array over its
block's draws, and gets the bits of one sum over the block.  The blocks
are added in block order, so estimates are bit-identical with or without a
worker pool, for any number of workers and whichever other statistics are
sampled with them.  `sample` is the one path from keys to estimates: each
call runs its tasks through one `pool.map` on a pool of min(workers,
tasks, CPUs) processes that lives for that call only, or in-process when
that is fewer than 2 or off Linux.  The pool (`ForkPool`) forks its
children directly: each inherits the kernel, its tasks and everything
imported, and sends back only its block sums, so no process-pool module
(multiprocessing, concurrent.futures) is ever loaded.

Singular draws are discarded and counted; a run aborts if they exceed 0.1%
of the samples.  The guard is applied once per view, to the ordered K x K
matrix G_S, so a statistic with N < K may discard a draw whose own block
would pass.  It is certified in O(K): tr(G_S) = sum_j (f^2 r)_(j), and a
draw with tr(G_S) tr(G_S^{-1}) <= COND_LIMIT passes; only a draw that
fails the certificate builds its G_S (`precoding.gram`) for the eigenvalue
check (`precoding.well_conditioned`, the guard of the precoders too).

Each statistic is one MomentEstimate over all N, whose groups also give the
leave-one-out moments of the jackknife in `rates`; MomentCache holds them all,
one record file per statistic when it has a directory.
"""

from __future__ import annotations

import os
import pickle
import sys
import warnings
import zlib
from collections import Counter
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path

import numpy as np

# The kernel draws no channel rows; `draw_channel` stays a name of this
# module because perfbench/traced.py wraps `moments.draw_channel` to count them
from .channel_model import RngStream, draw_channel  # noqa: F401
from .errors import ExcessSingularDrawsError
from .precoding import COND_LIMIT, gram, well_conditioned
from .scheduling import best_first

CHUNK = 2048  # samples per task and per RNG block; independent of the worker count
GROUPS = 16  # draw i is in group i % GROUPS; a divisor of CHUNK, so blocks hold whole rounds
SLICE = CHUNK // 8  # draws a task holds at once (`_slices`); a multiple of GROUPS
SINGULAR_FRACTION_LIMIT = 1e-3


@dataclass(frozen=True, eq=False)
class MomentEstimate:
    """Monte Carlo moments of the statistic phi, entry by entry, stored as
    regular-draw counts and sums of phi and phi^2 per group (leading axis).

    eta and phi_F are indexed [N-1] over the served counts N <= K; the
    weighted statistics are indexed [N-1, k] over the K active users and
    count only the draws in which user k is among the N served.  `count`
    is the number of regular draws behind each entry and `frac` their
    share of all regular draws; entries with zero counts are NaN.
    """

    samples: int
    singular_events: int
    group_count: np.ndarray
    group_sum: np.ndarray
    group_sum_sq: np.ndarray

    _sums = property(lambda self: (self.group_count, self.group_sum, self.group_sum_sq))

    @cached_property
    def moments(self) -> tuple:
        """(count, mean, variance, frac) over all draws."""
        return _moments(*(a.sum(axis=0) for a in self._sums))

    count = property(lambda self: self.moments[0])
    mean = property(lambda self: self.moments[1])
    variance = property(lambda self: self.moments[2])
    frac = property(lambda self: self.moments[3])
    std_error_of_mean = property(lambda self: np.sqrt(self.variance / np.maximum(self.count, 1)))

    def leave_one_out(self) -> tuple:
        """(count, mean, variance, frac) with one group left out, along a
        leading axis over the groups that hold a regular draw."""
        held = self.group_count.reshape(GROUPS, -1).any(axis=1)
        return _moments(*(a.sum(axis=0) - a[held] for a in self._sums), lead=1)


def _moments(count, s1, s2, lead=0) -> tuple:
    """(count, mean, variance, frac) from draw counts and sums of phi and phi^2
    over entries after `lead` leading axes.  frac divides by the largest count,
    which is the regular draws: at N = K every regular draw serves every user."""
    n = np.maximum(count, 1)
    mean = np.where(count > 0, s1 / n, np.nan)
    var = np.where(count > 0, np.maximum(s2 / n - mean * mean, 0.0), np.nan)
    regular = count.max(axis=tuple(range(lead, count.ndim)), keepdims=True)
    return count, mean, var, count / np.maximum(regular, 1)


@dataclass(frozen=True)
class MomentKey:
    """Cache key: statistic kind plus everything its law depends on, exactly:
    two keys are equal only if their F (and p_star) are the same bits."""

    kind: str  # "eta" | "phi_F" | "weighted"
    M: int
    K: int
    fingerprint: str  # "-" for eta; f_fingerprint of F (phi_F) or of F and p_star (weighted)
    samples: int
    seed: int


def f_fingerprint(f_diag) -> str:
    """Exact fingerprint of an F diagonal: the hex of its little-endian
    float64 bytes, so diagonals that differ in any bit get different keys."""
    return np.atleast_1d(np.asarray(f_diag, dtype="<f8")).tobytes().hex()


def _slices(M: int, views: tuple, seed: int, block: int, count: int):
    """phi_N for every N over one block of `count` draws, yielded as it is
    made: one (phi, order) per slice of SLICE draws and, within a slice, per
    view of `views` in turn.  phi[i, N-1] is the statistic of the N leading
    of the view's K users in the slice's draw i once ordered (a NaN row
    marks a singular draw), and order[i] lists those users best first by
    scores_k * r_k, r_k = ||z_k||^2.

    A view is (per_user, scores, f_diag), scores and f_diag holding K
    entries.  Each draw is the Bartlett factor L of W = Z Z^H (`_bartlett`)
    at the pass's max(K), and every view reads the same L^{-1}
    (`triangular_inverse`) through A = |L^{-1}|^2 scaled by r
    along its columns: with w = 1 / (f^2 r) in rank order, tr_N =
    cumsum(A[:K, :K] w)[N-1], one K x K matrix-vector product per view.
    Row i of L^{-1} reads only the first i + 1 rows of L, so the first K
    rows give the same bits whatever max(K) is, and a draw's products are
    its own, so the slicing changes no bit.

    The guard is once per view, on the ordered K x K matrix G_S, whose
    trace is sum_j (f^2 r)_(j): a draw with that sum times tr_K at most
    COND_LIMIT is certified, and only a draw that is not builds its G_S
    (`precoding.gram`) for `precoding.well_conditioned`.
    """
    rows = [tuple(RngStream(seed, block, 2 * i + part).generator() for part in (0, 1))
            for i in range(max(len(f) for *_, f in views))]
    for s in range(0, count, SLICE):
        n = min(SLICE, count - s)
        l, r = _bartlett(M, rows, n)
        a = triangular_inverse(l)
        a = (a.real ** 2 + a.imag ** 2) * r[:, None, :]
        for _, scores, f_diag in views:
            K, f = len(f_diag), np.asarray(f_diag)
            o = best_first(np.asarray(scores) * r[:, :K])
            fr = np.take_along_axis(f * f * r[:, :K], o, axis=1)  # (f^2 r)_(j)
            tr = np.cumsum((a[:, :K, :K] @ (1 / fr)[:, :, None])[:, :, 0], axis=1)
            ok = fr.sum(axis=1) * tr[:, -1] <= COND_LIMIT
            if not ok.all():
                bad = np.flatnonzero(~ok)
                h = np.sqrt(fr[bad] / r[bad, :K])[:, :, None] * l[bad, :K, :K]
                ok[bad] = well_conditioned(gram(h))
            phi = tr ** -0.5
            phi[~ok] = np.nan
            yield phi, o


def _bartlett(M: int, rows: list, n: int) -> tuple:
    """(L, r) for the next n draws of a block: L (n, K, K) is the lower
    Cholesky factor of W = Z Z^H for Z of K i.i.d. CN(0, I_M) rows, drawn
    directly (Bartlett decomposition; Goodman 1963 for the complex case),
    and r[:, k] = ||z_k||^2 = W_kk = sum_j |L_kj|^2.  L_ii^2 ~ Gamma(M - i, 1)
    (0-based i) and L_ij ~ CN(0, 1) for j < i; row i draws its diagonal from
    rows[i][0] and its i entries below from rows[i][1], each continued from
    slice to slice, so that the slices give the bits of one stack."""
    l = np.zeros((n, len(rows), len(rows)), complex)
    r = np.empty((n, len(rows)))
    for i, (diag, below) in enumerate(rows):
        gamma = diag.standard_gamma(M - i, n)
        z = below.standard_normal((n, 2 * i)) * np.sqrt(0.5)
        l[:, i, i] = np.sqrt(gamma)
        l[:, i, :i] = z.view(complex)
        r[:, i] = gamma + (z * z).sum(axis=1)
    return l, r


def triangular_inverse(l: np.ndarray) -> np.ndarray:
    """L^{-1} of a stack (n, K, K) of lower triangular L with a real positive
    diagonal.  The squared norms of its first N rows sum to tr(G_N^{-1}) for
    G = L L^H.

    Forward substitution by rows, every step numpy operations over the n
    draws: row j of L^{-1} is -L[j, :j] L^{-1}[:j, :j] / L_jj with 1/L_jj on
    its diagonal, one vector-matrix product per draw.  Row j reads only
    the first j + 1 rows of L, and a draw's products are its own matrix
    products, so its bits depend neither on the rows below nor on the size
    of the stack or its place in it.  A zero, NaN or infinite pivot makes
    its row and the rows below it non-finite.
    """
    l_inv = np.zeros(l.shape, np.promote_types(l.dtype, np.float64))
    for j in range(l.shape[-1]):
        d = 1 / l[:, j, j].real
        l_inv[:, j, :j] = (l[:, None, j, :j] @ l_inv[:, :j, :j])[:, 0] * -d[:, None]
        l_inv[:, j, j] = d
    return l_inv


class ForkPool:
    """`max_workers` forked copies of this process that run the tasks of
    `map`.  A child inherits the function and the task list, so neither is
    pickled; only its results come back, pickled over a pipe of its own.
    Every child is reaped before `map` returns or raises.  Fork is safe here
    only on Linux, so `_collect` builds no pool elsewhere."""

    def __init__(self, max_workers: int):
        self.size = max_workers

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return None

    def map(self, fn, tasks) -> list:
        """[fn(task) for task in tasks] on `size` children.  Each child
        claims the next task index, in task order, from one shared pipe and
        sends back its (index, result) pairs when none is left.  A task's
        exception is raised here; a child that ends without a result (a
        signal, or an exception that cannot be pickled) raises RuntimeError.
        On any error, Ctrl-C included, the children left are killed."""
        tasks = list(tasks)
        claims, feed = _pipe()
        children = {}  # pid -> the read end of its result pipe
        try:
            for _ in range(self.size):
                results, out = _pipe()
                pid = os.fork()
                if pid == 0:
                    _serve(fn, tasks, claims, feed, out)
                out.close()  # so that the pipe ends when its child does
                children[pid] = results
            claims.close()  # so that a claim fails once no child is left
            try:
                for i in range(len(tasks)):  # a 4-byte write lands whole (< PIPE_BUF)
                    feed.write(i.to_bytes(4, "little"))
            except BrokenPipeError:
                pass  # no child is left: their statuses say why
            feed.close()
            done = [None] * len(tasks)
            for pid, results in list(children.items()):
                payload = results.read()
                status = os.waitpid(pid, 0)[1]
                children.pop(pid).close()
                if status:
                    raise RuntimeError(f"sampling worker {pid} ended without a result"
                                       f" (exit status {os.waitstatus_to_exitcode(status)})")
                payload = pickle.loads(payload)
                if isinstance(payload, Exception):
                    raise payload
                for i, result in payload:
                    done[i] = result
            return done
        finally:
            claims.close()
            feed.close()
            for pid, results in children.items():
                results.close()
                os.kill(pid, 9)  # SIGKILL, without importing signal
                os.waitpid(pid, 0)


def _pipe() -> tuple:
    """A pipe's (read, write) ends as unbuffered files, which close once
    however often they are closed."""
    r, w = os.pipe()
    return os.fdopen(r, "rb", 0), os.fdopen(w, "wb", 0)


def _serve(fn, tasks, claims, feed, out):
    """A child of `ForkPool.map`: run the tasks it claims until none is left,
    send back [(index, fn(task))] or the exception that stopped it, and end
    with `os._exit`, which runs no atexit handler and flushes none of the
    stdio buffers this process inherited."""
    status = 1
    try:
        feed.close()
        done = []
        try:
            while claim := claims.read(4):
                i = int.from_bytes(claim, "little")
                done.append((i, fn(tasks[i])))
        except Exception as exc:  # noqa: BLE001 - raised again in the parent
            done = exc
        data = memoryview(pickle.dumps(done))
        while data:
            data = data[out.write(data):]
        status = 0
    finally:
        os._exit(status)


ProcessPoolExecutor = ForkPool  # the name `_collect` builds its pool from


def _collect(passes: list, workers: int) -> list:
    """`_block_sums` per pass (M, views, samples, seed), one list over the
    pass's consecutive CHUNK-sized blocks in block order.  The tasks of every
    pass go through one `pool.map` on a pool built for this call, of
    `workers` processes but no more than the tasks or the CPUs this process
    may run on; they run in-process when that leaves fewer than 2, and
    always off Linux."""
    if any(samples < 1 for *_, samples, _ in passes):
        raise IndexError("samples must be positive")
    tasks = [[(M, views, seed, block, min(CHUNK, samples - start))
              for block, start in enumerate(range(0, samples, CHUNK))]
             for M, views, samples, seed in passes]
    flat = [task for blocks in tasks for task in blocks]
    size = min(workers, len(flat), len(os.sched_getaffinity(0))) if sys.platform == "linux" else 1
    if size < 2:
        results = map(_block_sums, flat)
    else:
        with ProcessPoolExecutor(size) as pool:
            results = iter(pool.map(_block_sums, flat))
    return [[next(results) for _ in blocks] for blocks in tasks]


def _fold(running, a: np.ndarray):
    """running plus a's draws, padded with zeros to whole rounds of GROUPS
    draws and added round by round in draw order, so that slice by slice a
    block gets the bits of one sum over all its rounds."""
    pad = -len(a) % GROUPS
    a = np.concatenate([a, np.zeros((pad,) + a.shape[1:], a.dtype)]) if pad else a
    return sum(a.reshape((-1, GROUPS) + a.shape[1:]), running)


def _block_sums(task) -> list:
    """Per view of one block (M, views, seed, block, count), its singular
    draws, per-group draw counts and sums of phi and phi^2: draw j is in
    group j % GROUPS and counts toward the entries it serves.  With
    `per_user` (weighted) user k counts toward [N-1, k] when it is among the
    N best, phi[j, N-1] being broadcast over the user axis; otherwise every
    regular draw counts toward every N.  Each slice of `_slices` is folded
    into the sums as it is made."""
    views = task[1]
    sums = [(0, 0, 0, 0)] * len(views)
    for i, (phi, order) in enumerate(_slices(*task)):
        v = i % len(views)
        served = np.isfinite(phi)
        if views[v][0]:  # per_user
            n = np.arange(1, order.shape[1] + 1)[:, None]
            served = (np.argsort(order, axis=1)[:, None, :] < n) & served[:, :1, None]
        vals = np.where(served, phi.reshape(phi.shape + (1,) * (served.ndim - 2)), 0.0)
        singular, count, s1, s2 = sums[v]
        sums[v] = (singular + int(np.isnan(phi[:, 0]).sum()), _fold(count, served),
                   _fold(s1, vals), _fold(s2, vals * vals))
    return [(singular, count.astype(np.int64), s1, s2) for singular, count, s1, s2 in sums]


def key_of(kind: str, M: int, K: int, samples: int, seed: int, *diags) -> MomentKey:
    """The MomentKey of a statistic of K users: eta's has no diagonal, phi_F's
    fingerprints its F and a weighted one's its F, then its p_star."""
    return MomentKey(kind, M, K, f_fingerprint(np.hstack(diags)) if diags else "-",
                     samples, seed)


def _view(key: MomentKey) -> tuple:
    """(per_user, scores, f_diag) of key's statistic, as `_slices` reads it:
    unit scores and F for eta, unit scores and the fingerprint's F for
    phi_F, and the fingerprint's F and p_star (the scores) for weighted.
    Every entry point samples through here, so this is the one input check:
    1 <= K <= M, and a fingerprint of K values (phi_F) or 2K (weighted),
    each finite and positive."""
    if not 1 <= key.K <= key.M:
        raise IndexError(f"need 1 <= K <= M, got K={key.K}, M={key.M}")
    ones = (1.0,) * key.K
    if key.kind == "eta":
        return False, ones, ones
    bits = tuple(np.frombuffer(bytes.fromhex(key.fingerprint), "<f8").tolist())
    if len(bits) != key.K * (1 if key.kind == "phi_F" else 2):
        raise ValueError(f"{key.kind} of K={key.K} users needs {key.K} values per"
                         f" diagonal, got {len(bits)} in all")
    if not all(0.0 < b < np.inf for b in bits):
        raise ValueError("F and p_star must be finite and positive")
    if key.kind == "phi_F":
        return False, ones, bits
    return True, bits[key.K:], bits[:key.K]


def _passes(keys) -> dict:
    """The distinct keys by pass (M, samples, seed), each pass's in order of
    K, the largest M first so that the longest tasks start first."""
    passes: dict[tuple, list] = {}
    for key in sorted(dict.fromkeys(keys), key=lambda k: (-k.M, k.K)):
        passes.setdefault((key.M, key.samples, key.seed), []).append(key)
    return passes


def sample(keys, workers: int = 1) -> dict:
    """MomentKey -> MomentEstimate for every statistic of `keys`, sampled in
    one pass per (M, block) over all of them: each block draws the factors
    of its M once, and every statistic of that M is a view of them.  All the
    tasks go through one `_collect`, on up to `workers` processes.  The
    block sums are added in block order, so each estimate is the same, bit
    for bit, as when its statistic is sampled alone and on any number of
    workers."""
    passes = _passes(keys)
    views = [(M, tuple(map(_view, group)), samples, seed)
             for (M, samples, seed), group in passes.items()]
    out = {}
    for group, blocks in zip(passes.values(), _collect(views, workers)):
        for key, view_blocks in zip(group, zip(*blocks)):
            singular, *sums = zip(*view_blocks)
            if sum(singular) > SINGULAR_FRACTION_LIMIT * key.samples:
                raise ExcessSingularDrawsError(
                    f"{sum(singular)}/{key.samples} singular draws exceeds the 0.1% budget")
            out[key] = MomentEstimate(key.samples, sum(singular), *(sum(t) for t in sums))
    return out


def eta_samples(M: int, K: int, samples: int, seed: int) -> np.ndarray:
    """Raw eta draws indexed [sample, N-1] (a NaN row marks a discarded
    singular draw); test oracle hook."""
    view = _view(key_of("eta", M, K, samples, seed))
    return np.concatenate([phi for start in range(0, samples, CHUNK)
                           for phi, _ in _slices(M, (view,), seed, start // CHUNK,
                                                 min(CHUNK, samples - start))])


def eta_moments(M: int, K, samples: int, seed: int, *, workers: int = 1):
    """Moments of eta_N, the trace-inverse statistic of the N largest-norm
    rows of a K x M i.i.d. CN(0,1) matrix, for every N <= K.

    K may also be a sequence of user counts: they are sampled together, one
    draw of max(K) rows per block for all of them, and the result is a list
    of estimates in the order of K.  Each estimate is the same, bit for bit,
    as when its K is sampled alone.
    """
    keys = [key_of("eta", M, k, samples, seed) for k in np.atleast_1d(K).tolist()]
    ests = sample(keys, workers)
    return ests[keys[0]] if np.ndim(K) == 0 else [ests[key] for key in keys]


def phi_f_moments(f_diag, M: int, samples: int, seed: int, *,
                  workers: int = 1) -> MomentEstimate:
    """Moments of phi_F = (tr[(F Z Z^H F)^{-1}])^{-1/2}, Z of size K x M, at
    entry K-1.  Entry N-1 < K-1 is phi of F_S Z_S for the N largest-norm
    rows S of Z, the order eta uses, so at F = I every entry is eta's."""
    [est] = sample([key_of("phi_F", M, np.size(f_diag), samples, seed, f_diag)],
                   workers).values()
    return est


def weighted_phi_stats(f_diag, p_star, M: int, samples: int, seed: int, *,
                       workers: int = 1) -> MomentEstimate:
    """Monte Carlo over coherence blocks of the weighted selection rule.

    In each block users are ordered by p_star_k * ||z_k||^2 and, for every
    N, the statistic phi of the selected scaled submatrix F_S Z_S is
    recorded against each selected user: entry [N-1, k] holds the moments
    of phi given that user k is among the N served, and `frac` the
    fraction of blocks in which it is.
    """
    [est] = sample([key_of("weighted", M, np.size(f_diag), samples, seed, f_diag, p_star)],
                   workers).values()
    return est


# ---------------------------------------------------------------------------
# Persistent cache
# ---------------------------------------------------------------------------

class MomentCache:
    """Every Monte Carlo statistic of a run: an in-memory store, backed by one
    record file per statistic when given a directory `path`.

    The records of this format live in `path/v11/` (`dir`).  A record is named
    `<kind>_<M>_<K>_<samples>_<seed>_<crc>`, crc being the zlib.crc32 of the
    key's fingerprint in hex: a weighted fingerprint holds 32 hex digits per
    user, too long for a file name.  It holds five consecutive `np.save`
    arrays: the fingerprint's bytes, the singular draw count and the
    estimate's group_count, group_sum and group_sum_sq, so a reloaded
    estimate is bit-identical.  A record is written to a dot-named temporary
    file and renamed into place, so a reader sees a whole record or none.

    `key in cache` looks a key up in memory and then, until found, in its
    file, keeping what it reads, so a run sees every statistic that another
    run has finished; `cached` reads memory only.  A record whose
    fingerprint differs (a shared crc) is a miss and is replaced; one that
    fails to parse in any way, or holds arrays of the wrong shape or dtype,
    is warned about, recomputed and replaced.  Dot files and other versions'
    directories are never read, and constructing a cache touches no file.
    """

    VERSION = "tddmimo-moments-cache v11"
    # the singular draws of every statistic in memory, once each
    singular_events = property(lambda self: sum(e.singular_events for e in self._store.values()))

    def __init__(self, path: str | Path | None = None):
        self.dir = Path(path) / self.VERSION.rpartition(" ")[2] if path is not None else None
        self._store: dict[MomentKey, MomentEstimate] = {}
        self.hits = self.misses = 0

    def _file(self, key: MomentKey) -> Path:
        crc = zlib.crc32(key.fingerprint.encode())
        return self.dir / f"{key.kind}_{key.M}_{key.K}_{key.samples}_{key.seed}_{crc:08x}"

    def _read(self, key: MomentKey) -> MomentEstimate | None:
        path = self._file(key)
        shape = (GROUPS,) + (key.K,) * (2 if key.kind == "weighted" else 1)
        try:
            with open(path, "rb") as fh:
                fp, singular, *sums = (np.lib.format.read_array(fh, allow_pickle=False)
                                       for _ in range(5))
            if fp.tobytes() != key.fingerprint.encode():
                return None
            if [(a.dtype, a.shape) for a in (singular, *sums)] != [
                    (np.int64, ()), (np.int64, shape), (np.float64, shape), (np.float64, shape)]:
                raise ValueError("arrays of the wrong shape or dtype")
        except (FileNotFoundError, NotADirectoryError):
            return None
        except Exception as exc:  # numpy's header parser raises more than ValueError
            warnings.warn(f"moment cache record {path} unreadable, recomputing: {exc}")
            return None
        return MomentEstimate(key.samples, int(singular), *sums)

    def _write(self, key: MomentKey, est: MomentEstimate):
        path = self._file(key)
        temp = path.with_name(f".{path.name}.{os.getpid()}")
        try:
            self.dir.mkdir(parents=True, exist_ok=True)
            with open(temp, "wb") as fh:
                for a in (np.frombuffer(key.fingerprint.encode(), np.uint8),
                          np.int64(est.singular_events),
                          est.group_count, est.group_sum, est.group_sum_sq):
                    np.save(fh, a, allow_pickle=False)
            os.replace(temp, path)
        except OSError as exc:
            warnings.warn(f"moment cache not writable: {exc}")

    def cached(self, key: MomentKey, compute) -> MomentEstimate:
        """The estimate of key in memory (a hit), or else compute()'s, stored
        and written to its record (a miss).  Reads no record: `key in self`
        does."""
        if key in self._store:
            self.hits += 1
            return self._store[key]
        self.misses += 1
        est = self._store[key] = compute()
        if self.dir is not None:
            self._write(key, est)
        return est

    def __contains__(self, key: MomentKey) -> bool:
        """Whether key is in memory or has a readable record, which is then
        kept in memory."""
        if key not in self._store and self.dir is not None:
            est = self._read(key)
            if est is not None:
                self._store[key] = est
        return key in self._store

    def kind_counts(self) -> dict[str, int]:
        """Number of stored records per statistic kind: the record files, or
        the statistics in memory without a path."""
        if self.dir is None:
            return dict(Counter(key.kind for key in self._store))
        try:
            names = os.listdir(self.dir)
        except (FileNotFoundError, NotADirectoryError):
            names = []
        return dict(Counter(name.rsplit("_", 5)[0] for name in names if name[0] != "."))

    def __len__(self):
        return sum(self.kind_counts().values())
