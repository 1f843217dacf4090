"""Monte Carlo estimation of the trace-inverse gain statistics.

Every statistic is one kernel (`_block_sums`) composed from the physical
layer over a sample axis: draw the rows of M antennas of a block, each row
on its own sub-stream (`RngStream.row`), form the Gram matrix of the first K
rows, scale it by f_i f_j, order the rows best first by scores_k * ||z_k||^2
(`scheduling.best_first`) and read phi for every served count N from the
precoders' guarded Cholesky factor (`precoding.chi_all_n`), which one Crout
pass builds for the whole slice of draws at once, with no LAPACK call for a
slice whose draws are all certified.  The statistics differ only in their
parameters, a view (per_user, scores, F) of the rows: eta has unit scores
and unit F, phi_F has unit scores and its F, and the weighted statistics
have F, order by p_star and count per user.  A MomentKey names its view
exactly (`_view`).  The first K rows do not depend on how many rows are
drawn, so every statistic of one (seed, M) reads the same rows
(common random numbers), and statistics sampled together share one draw of
max(K) rows per block: `sample` runs one task per (M, block) over all the
statistics of that M, and the views of one K share its Gram matrix.

Samples are drawn in blocks of CHUNK: row r of block b is the Philox stream
keyed by (seed, b) with its counter at row r.  A block is a stream of slices
(`_slices`), each drawing the next SLICE draws of every row from one
generator per row and forming, ordering and factoring them; the slices are
the same bits as one stack.  Draw i of a block does not depend on the
block's size, so fewer samples read a prefix of the draws of more.  Each
block is reduced to per-group sums of phi and phi^2, draw i of a statistic
being in group i % GROUPS, and each slice is added to them as it is made,
round by round of GROUPS draws (`_fold`): a task holds one slice, never an
array over its block's draws, and gets the bits of one sum over the block.
The blocks are added in block order, so estimates are bit-identical with or
without a worker pool, for any number of workers and whichever other
statistics are sampled with them.  `sample` is the one path from keys to
estimates: each call runs its tasks through one `pool.map` on a pool of
min(workers, tasks, CPUs) processes that lives for that call only, or
in-process when that is fewer than 2 or off Linux.  The pool (`ForkPool`)
forks its children directly: each inherits the kernel, its tasks and
everything imported, and sends back only its block sums, so no
process-pool module (multiprocessing, concurrent.futures) is ever loaded.

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
import pickle
import sys
import warnings
import zlib
from collections import Counter
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
    of the view's K rows of the slice's draw i once ordered (a NaN row marks
    a singular draw), and order[i] lists those rows best first by
    scores_k * ||z_k||^2.

    A view is (per_user, scores, f_diag), scores and f_diag holding K
    entries.  Row r is drawn from RngStream(seed, block, r) and the rows are
    stacked outermost, so the first K rows, their norms and their Gram matrix
    are the same bits however many rows the block draws and whichever views
    read them.  A slice continues each row's generator.  Per slice, the Gram
    matrix of the first K rows is formed once per run of consecutive views
    with that K, in row order, then scaled by f_i f_j and permuted best first
    per view; each draw is factored on its own, so the slicing changes no bit.
    """
    streams = [RngStream(seed, block, r).generator()
               for r in range(max(len(f) for *_, f in views))]
    for s in range(0, count, SLICE):
        n = min(SLICE, count - s)
        rows = np.empty((len(streams), n, M), complex)  # [row, draw, antenna]
        for row, stream in zip(rows, streams):
            row[:] = draw_channel(1, M, stream, n)[:, 0]
        norms = np.sum(rows.real ** 2 + rows.imag ** 2, axis=2).T  # ||z_k||^2
        draw = np.arange(n)[:, None, None]
        for K, run in groupby(views, key=lambda view: len(view[2])):
            g_k = gram(rows[:K].swapaxes(0, 1))
            for _, scores, f_diag in run:
                f = np.asarray(f_diag)
                o = best_first(np.asarray(scores) * norms[:, :K])
                g = (g_k * (f[:, None] * f))[draw, o[:, :, None], o[:, None, :]]
                yield chi_all_n(g), o


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
    K so that its views of one K share their Gram matrix, the largest M
    first so that the longest tasks start first."""
    passes: dict[tuple, list] = {}
    for key in sorted(dict.fromkeys(keys), key=lambda k: (-k.M, k.K)):
        passes.setdefault((key.M, key.samples, key.seed), []).append(key)
    return passes


def sample(keys, workers: int = 1) -> dict:
    """MomentKey -> MomentEstimate for every statistic of `keys`, sampled in
    one pass per (M, block) over all of them: each block draws the rows of
    its M once, and every statistic of that M is a view of them.  All the
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

    The records of this format live in `path/v10/` (`dir`).  A record is named
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

    VERSION = "tddmimo-moments-cache v10"
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
