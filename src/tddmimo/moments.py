"""Monte Carlo estimation of the trace-inverse gain statistics.

Every statistic is one kernel (`_chunk`) composed from the physical layer
over a sample axis: draw the rows of M antennas of a block, each row on its
own sub-stream (`RngStream.row`), form the Gram matrix of the first K rows,
scale it by f_i f_j, order the rows best first by scores_k * ||z_k||^2
(`scheduling.best_first`) and read phi for every served count N from the
precoders' guarded Cholesky factor (`precoding.chi_all_n`).  The statistics
differ only in their parameters, a view (per_user, scores, F) of the rows:
eta has unit scores and unit F, phi_F has unit scores and its F, and the
weighted statistics have F, order by p_star and count per user.  A MomentKey
names its view exactly (`_view`).  The first K rows do not depend on how
many rows are drawn, so every statistic of one (seed, M) reads the same rows
(common random numbers), and statistics sampled together share one draw of
max(K) rows per block: `sample` runs one task per (M, block) over all the
statistics of that M, and the views of one K share its Gram matrix.

Samples are drawn in blocks of CHUNK: row r of block b is one draw call on
the Philox stream keyed by (seed, b) with its counter at row r.  Draw i of a
block does not depend on the block's size, so fewer samples read a prefix
of the draws of more.  Each block is reduced to per-group sums of phi and
phi^2, draw i of a statistic being in group i % GROUPS, and the blocks are
added in block order, so estimates are bit-identical with or without a
worker pool, for any number of workers and whichever other statistics are
sampled with them.  The caller owns the pool (`worker_pool`) and passes it
to what it samples; all the tasks of one call go through one `pool.map`.
The process-pool stack (multiprocessing, socket, subprocess, logging) is
imported when the first pool is built, so a process that builds none never
loads it.

Singular draws are discarded and counted; a run aborts if they exceed 0.1%
of the samples.  The guard is applied once, to the ordered K x K Gram
matrix, so a statistic with N < K may discard a draw whose own block would
pass.

Each statistic is one MomentEstimate over all N, whose groups also give the
leave-one-out moments of the jackknife in `rates`; MomentCache holds them all,
one record file per statistic when it has a directory.
"""

from __future__ import annotations

import os
import warnings
import zlib
from collections import Counter
from contextlib import nullcontext
from dataclasses import dataclass
from functools import cached_property
from itertools import groupby
from pathlib import Path

import numpy as np

from .channel_model import RngStream, draw_channel
from .errors import ExcessSingularDrawsError
from .precoding import chi_all_n, gram
from .scheduling import best_first

CHUNK = 2048  # samples per task and per RNG block; independent of the worker count
GROUPS = 16  # draw i is in group i % GROUPS; a divisor of CHUNK, so blocks hold whole rounds
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


def _chunk(args):
    """phi_N for every N over one block, one (phi, order) per view in
    `views`: phi[i, N-1] is the statistic of the N leading of the view's K
    rows of draw i once ordered (a NaN row marks a singular draw), and
    order[i] lists those rows best first by scores_k * ||z_k||^2.

    A view is (per_user, scores, f_diag), scores and f_diag holding K
    entries.  Row r is drawn from RngStream(seed, block, r) and the rows are
    stacked outermost, so the first K rows, their norms and their Gram matrix
    are the same bits however many rows the block draws and whichever views
    read them.  The Gram matrix of the first K rows is formed once per run of
    consecutive views with that K, in row order, then scaled by f_i f_j and
    permuted best first per view.
    """
    M, views, seed, block, count = args
    rows = np.empty((max(len(f) for _, _, f in views), count, M), complex)  # [row, draw, antenna]
    for r in range(len(rows)):
        rows[r] = draw_channel(1, M, RngStream(seed, block, r), count)[:, 0]
    norms = np.sum(rows.real ** 2 + rows.imag ** 2, axis=2).T  # ||z_k||^2
    draw = np.arange(count)[:, None, None]
    out = []
    for K, run in groupby(views, key=lambda view: len(view[2])):
        run = list(run)
        g_k = gram(rows[:K].swapaxes(0, 1))
        for i, (_, scores, f_diag) in enumerate(run):
            f = np.asarray(f_diag)
            # the run's last view scales the Gram matrix in place, so a lone K
            # holds one K x K stack at a time
            g = np.multiply(g_k, f[:, None] * f, out=g_k if i == len(run) - 1 else None)
            order = best_first(np.asarray(scores) * norms[:, :K])
            out.append((chi_all_n(g[draw, order[:, :, None], order[:, None, :]]), order))
    return out


def __getattr__(name: str):
    """`ProcessPoolExecutor`, imported at its first lookup (PEP 562), so that
    only a process that builds a pool loads the process-pool stack.  A value
    assigned to the name replaces it."""
    if name == "ProcessPoolExecutor":
        from concurrent.futures import ProcessPoolExecutor
        return ProcessPoolExecutor
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def worker_pool(workers: int):
    """A process pool for the statistics of one run, of `workers` processes
    but no more than the machine's CPUs, or a context that yields None
    (sample in-process) when workers <= 1.  The pool starts all its
    processes at the first task, and only building it imports the
    process-pool stack, so a run builds one only for more than one task
    (`task_count`)."""
    if workers <= 1:
        return nullcontext()
    executor = globals().get("ProcessPoolExecutor") or __getattr__("ProcessPoolExecutor")
    return executor(min(workers, os.cpu_count() or 1))


def _collect(kernel, passes: list, pool) -> list:
    """kernel's results per pass (M, views, samples, seed), one list over the
    pass's consecutive CHUNK-sized blocks in block order.  The tasks of every
    pass go through one `pool.map`; they run in-process without a pool or
    when there is only one."""
    if any(samples < 1 for *_, samples, _ in passes):
        raise IndexError("samples must be positive")
    tasks = [[(M, views, seed, block, min(CHUNK, samples - start))
              for block, start in enumerate(range(0, samples, CHUNK))]
             for M, views, samples, seed in passes]
    flat = [task for blocks in tasks for task in blocks]
    results = iter(map(kernel, flat) if pool is None or len(flat) == 1
                   else pool.map(kernel, flat))
    return [[next(results) for _ in blocks] for blocks in tasks]


def _check_dims(K: int, M: int):
    if not (1 <= K <= M):
        raise IndexError(f"need 1 <= K <= M, got K={K}, M={M}")


def _block_sums(phi: np.ndarray, served: np.ndarray) -> tuple:
    """(singular draws, per-group draw counts, sums of phi and phi^2) of one
    block: draw j is in group j % GROUPS and counts toward the entries
    served[j] marks, phi[j, N-1] being broadcast over the user axis of a
    weighted mask.  Kernels reduce their blocks in the task, so a statistic
    holds group sums, not draws, however many blocks it has."""
    vals = np.where(served, phi.reshape(phi.shape + (1,) * (served.ndim - 2)), 0.0)
    pad = -len(phi) % GROUPS

    def fold(a):  # pad to whole rounds of GROUPS draws, then add the rounds
        a = np.concatenate([a, np.zeros((pad,) + a.shape[1:], a.dtype)]) if pad else a
        return a.reshape((-1, GROUPS) + a.shape[1:]).sum(axis=0)
    return (int(np.isnan(phi[:, 0]).sum()), fold(served).astype(np.int64), fold(vals),
            fold(vals * vals))


def _chunk_sums(args):
    """`_chunk`'s block as one `_block_sums` per view.  With `per_user`
    (weighted) user k counts toward [N-1, k] when it is among the N best;
    otherwise every regular draw counts toward every N."""
    out = []
    for (per_user, _, _), (phi, order) in zip(args[1], _chunk(args)):
        served = np.isfinite(phi)
        if per_user:
            n = np.arange(1, order.shape[1] + 1)[:, None]
            served = (np.argsort(order, axis=1)[:, None, :] < n) & served[:, :1, None]
        out.append(_block_sums(phi, served))
    return out


def _estimates(passes: list, pool) -> list:
    """One list per pass of one MomentEstimate per view, from the block sums
    added in block order, so that they do not depend on the pool."""
    out = []
    for (_, _, samples, _), blocks in zip(passes, _collect(_chunk_sums, passes, pool)):
        ests = []
        for view_blocks in zip(*blocks):
            singular, *sums = zip(*view_blocks)
            if sum(singular) > SINGULAR_FRACTION_LIMIT * samples:
                raise ExcessSingularDrawsError(
                    f"{sum(singular)}/{samples} singular draws exceeds the 0.1% budget")
            ests.append(MomentEstimate(samples, sum(singular), *(sum(t) for t in sums)))
        out.append(ests)
    return out


def _eta_view(K: int) -> tuple:
    return False, (1.0,) * K, (1.0,) * K


def _view(key: MomentKey) -> tuple:
    """(per_user, scores, f_diag) of key's statistic, as `_chunk` reads it:
    unit scores and F for eta, unit scores and the fingerprint's F for
    phi_F, and the fingerprint's F and p_star (the scores) for weighted."""
    if key.kind == "eta":
        return _eta_view(key.K)
    bits = tuple(np.frombuffer(bytes.fromhex(key.fingerprint), "<f8").tolist())
    if key.kind == "phi_F":
        return False, (1.0,) * key.K, bits
    return True, bits[key.K:], bits[:key.K]


def _passes(keys) -> dict:
    """The distinct keys by pass (M, samples, seed), each pass's in order of
    K so that its views of one K share their Gram matrix, the largest M
    first so that the longest tasks start first."""
    passes: dict[tuple, list] = {}
    for key in sorted(dict.fromkeys(keys), key=lambda k: (-k.M, k.K)):
        passes.setdefault((key.M, key.samples, key.seed), []).append(key)
    return passes


def task_count(keys) -> int:
    """Number of (M, block) tasks that `sample(keys)` runs."""
    return sum(-(-samples // CHUNK) for _, samples, _ in _passes(keys))


def sample(keys, pool=None) -> dict:
    """MomentKey -> MomentEstimate for every statistic of `keys`, sampled in
    one pass per (M, block) over all of them: each block draws the rows of
    its M once, and every statistic of that M is a view of them.  All the
    tasks go through one `pool.map`.  Each estimate is the same, bit for
    bit, as when its statistic is sampled alone."""
    passes = _passes(keys)
    ests = _estimates([(M, tuple(map(_view, group)), samples, seed)
                       for (M, samples, seed), group in passes.items()], pool)
    return {key: est for group, row in zip(passes.values(), ests)
            for key, est in zip(group, row)}


def eta_samples(M: int, K: int, samples: int, seed: int,
                pool=None) -> np.ndarray:
    """Raw eta draws indexed [sample, N-1] (a NaN row marks a discarded
    singular draw); test oracle hook."""
    _check_dims(K, M)
    [blocks] = _collect(_chunk, [(M, (_eta_view(K),), samples, seed)], pool)
    return np.concatenate([phi for [(phi, _)] in blocks])


def eta_moments(M: int, K, samples: int, seed: int, *, pool=None):
    """Moments of eta_N, the trace-inverse statistic of the N largest-norm
    rows of a K x M i.i.d. CN(0,1) matrix, for every N <= K.

    K may also be a sequence of user counts: they are sampled together, one
    draw of max(K) rows per block for all of them, and the result is a list
    of estimates in the order of K.  Each estimate is the same, bit for bit,
    as when its K is sampled alone.
    """
    ks = [K] if np.ndim(K) == 0 else list(K)
    for k in ks:
        _check_dims(k, M)
    [ests] = _estimates([(M, tuple(map(_eta_view, ks)), samples, seed)], pool)
    return ests[0] if np.ndim(K) == 0 else ests


def phi_f_moments(f_diag, M: int, samples: int, seed: int, *,
                  pool=None) -> MomentEstimate:
    """Moments of phi_F = (tr[(F Z Z^H F)^{-1}])^{-1/2}, Z of size K x M, at
    entry K-1.  Entry N-1 < K-1 is phi of F_S Z_S for the N largest-norm
    rows S of Z, the order eta uses, so at F = I every entry is eta's."""
    f_diag = np.asarray(f_diag, dtype=float)
    _check_dims(f_diag.size, M)
    if np.any(f_diag <= 0):
        raise ValueError("F must be positive diagonal")
    view = (False, (1.0,) * f_diag.size, tuple(f_diag))
    return _estimates([(M, (view,), samples, seed)], pool)[0][0]


def weighted_phi_stats(f_diag, p_star, M: int, samples: int, seed: int,
                       pool=None) -> MomentEstimate:
    """Monte Carlo over coherence blocks of the weighted selection rule.

    In each block users are ordered by p_star_k * ||z_k||^2 and, for every
    N, the statistic phi of the selected scaled submatrix F_S Z_S is
    recorded against each selected user: entry [N-1, k] holds the moments
    of phi given that user k is among the N served, and `frac` the
    fraction of blocks in which it is.
    """
    f_diag = np.asarray(f_diag, dtype=float)
    p_star = np.asarray(p_star, dtype=float)
    Ka = f_diag.size
    if p_star.shape != (Ka,):
        raise ValueError("p_star and f_diag must have equal length")
    _check_dims(Ka, M)
    view = (True, tuple(p_star), tuple(f_diag))
    return _estimates([(M, (view,), samples, seed)], pool)[0][0]


# ---------------------------------------------------------------------------
# Persistent cache
# ---------------------------------------------------------------------------

class MomentCache:
    """Every Monte Carlo statistic of a run: an in-memory store, backed by one
    record file per statistic when given a directory `path`.

    The records of this format live in `path/v9/` (`dir`).  A record is named
    `<kind>_<M>_<K>_<samples>_<seed>_<crc>`, crc being the zlib.crc32 of the
    key's fingerprint in hex: a weighted fingerprint holds 32 hex digits per
    user, too long for a file name.  It holds five consecutive `np.save`
    arrays: the fingerprint's bytes, the singular draw count and the
    estimate's group_count, group_sum and group_sum_sq, so a reloaded
    estimate is bit-identical.  A record is written to a dot-named temporary
    file and renamed into place, so a reader sees a whole record or none.

    A key is looked up in memory and then, until found, in its file, so a
    run sees every statistic that another run has finished.  A record whose
    fingerprint differs (a shared crc) is a miss and is replaced; one that
    does not parse, or whose arrays have the wrong shape or dtype, is warned
    about, recomputed and replaced.  Dot files and other versions'
    directories are never read, and constructing a cache touches no file.
    """

    VERSION = "tddmimo-moments-cache v9"

    def __init__(self, path: str | Path | None = None):
        self.dir = Path(path) / self.VERSION.rpartition(" ")[2] if path is not None else None
        self._store: dict[MomentKey, MomentEstimate] = {}
        self._used: set[MomentKey] = set()
        self.hits = self.misses = self.singular_events = 0

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
        except (OSError, ValueError) as exc:
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
        """Return the stored estimate for key, computing and storing on miss.

        `singular_events` adds up the singular draws of every distinct
        statistic used through this cache, once each.
        """
        if key in self:
            self.hits += 1
            est = self._store[key]
        else:
            self.misses += 1
            est = self._store[key] = compute()
            if self.dir is not None:
                self._write(key, est)
        if key not in self._used:
            self._used.add(key)
            self.singular_events += est.singular_events
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
