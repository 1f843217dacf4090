"""Monte Carlo estimation of the trace-inverse gain statistics.

One chunk kernel serves every statistic, composed from the physical layer
over a sample axis: draw K x M channels, order the rows best first by
scores_k * ||z_k||^2 (`scheduling.best_first`), scale them by a positive
diagonal F, and read phi for every served count N from the precoders'
guarded Cholesky factor (`precoding.chi_all_n`).  eta uses unit scores,
phi_F no ordering and the weighted statistics scores p_star.

Samples are drawn in blocks of CHUNK: block b is one draw call on the
Philox stream keyed by (seed, b), and block results are reduced in block
order, so estimates are bit-identical with or without a worker pool and for
any number of workers.  The caller owns the pool (`worker_pool`) and passes
it to every statistic of a run.

Singular draws are discarded and counted; a run aborts if they exceed 0.1%
of the samples.  The guard is applied once, to the full Gram matrix, so eta
with N < K may discard a draw whose own block would pass.

Each statistic is one MomentEstimate over all N; MomentCache holds them all.
"""

from __future__ import annotations

import hashlib
import warnings
import zlib
from collections import Counter
from concurrent.futures import ProcessPoolExecutor
from contextlib import nullcontext
from dataclasses import astuple, dataclass
from functools import cached_property
from pathlib import Path

import numpy as np

from .channel_model import RngStream, draw_channel
from .errors import ExcessSingularDrawsError
from .precoding import chi_all_n
from .scheduling import best_first

CHUNK = 2048  # samples per task and per RNG block; independent of the worker count
SINGULAR_FRACTION_LIMIT = 1e-3


@dataclass(frozen=True, eq=False)
class MomentEstimate:
    """Monte Carlo moments of the statistic phi, entry by entry.

    eta and phi_F are indexed [N-1] over the served counts N <= K; the
    weighted statistics are indexed [N-1, k] over the K active users and
    count only the draws in which user k is among the N served.  `count`
    is the number of regular draws behind each entry; entries with zero
    counts are NaN.
    """

    samples: int
    singular_events: int
    count: np.ndarray
    mean: np.ndarray
    variance: np.ndarray

    @cached_property
    def frac(self) -> np.ndarray:
        """Fraction of the regular draws behind each entry."""
        return self.count / (self.samples - self.singular_events)

    @cached_property
    def std_error_of_mean(self) -> np.ndarray:
        return np.sqrt(self.variance / np.maximum(self.count, 1))

    @cached_property
    def se_variance(self) -> np.ndarray:
        return self.variance * np.sqrt(2.0 / np.maximum(self.count, 1))


@dataclass(frozen=True)
class MomentKey:
    """Cache key: statistic kind plus everything its law depends on."""

    kind: str  # "eta" | "phi_F" | "weighted"
    M: int
    K: int
    fingerprint: str  # "-" for eta; hash of F (phi_F) or of F and p_star (weighted)
    samples: int
    seed: int


def f_fingerprint(f_diag) -> str:
    """Collision-free (to 1e-12 relative) fingerprint of an F diagonal."""
    text = ",".join(f"{float(v):.12e}" for v in np.atleast_1d(f_diag))
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def _chunk(args):
    """phi_N for every N over one block of draws, and the row order used.

    Returns (phi, order): phi[i, N-1] is the statistic of the N leading rows
    of draw i (a NaN row marks a singular draw) and order[i] lists the users
    best first, or is None when `scores` is None and rows keep their order.
    """
    K, M, scores, f_diag, seed, block, count = args
    z = draw_channel(K, M, RngStream(seed, block), count)
    order = None
    if scores is not None:
        order = best_first(np.asarray(scores) * np.sum(np.abs(z) ** 2, axis=2))
        z = np.take_along_axis(z, order[:, :, None], axis=1)
    if f_diag is not None:
        f = np.asarray(f_diag)
        z = (f if order is None else f[order])[..., None] * z
    return chi_all_n(z), order


def worker_pool(workers: int):
    """A process pool of `workers` processes for the statistics of one run,
    or a context that yields None (sample in-process) when workers <= 1.
    The pool starts its processes at the first task, so a run that samples
    nothing starts none."""
    return ProcessPoolExecutor(workers) if workers > 1 else nullcontext()


def _collect(params: tuple, samples: int, seed: int, pool) -> list:
    """Kernel results for the consecutive CHUNK-sized blocks, in order."""
    if samples < 1:
        raise IndexError("samples must be positive")
    tasks = [params + (seed, block, min(CHUNK, samples - start))
             for block, start in enumerate(range(0, samples, CHUNK))]
    if pool is None or len(tasks) == 1:
        return [_chunk(t) for t in tasks]
    return list(pool.map(_chunk, tasks))


def _check_dims(K: int, M: int):
    if not (1 <= K <= M):
        raise IndexError(f"need 1 <= K <= M, got K={K}, M={M}")


def _estimate(samples: int, singular: int, count, s1, s2) -> MomentEstimate:
    """Moments from per-entry draw counts and sums of phi and phi^2."""
    if singular > SINGULAR_FRACTION_LIMIT * samples:
        raise ExcessSingularDrawsError(
            f"{singular}/{samples} singular draws exceeds the 0.1% budget")
    mean = np.where(count > 0, s1 / np.maximum(count, 1), np.nan)
    var = np.where(count > 0, np.maximum(s2 / np.maximum(count, 1) - mean * mean, 0.0), np.nan)
    return MomentEstimate(samples, singular, count, mean, var)


def _draws(params: tuple, samples: int, seed: int, pool) -> np.ndarray:
    """phi[sample, N-1] for every draw; a NaN row marks a singular draw."""
    return np.concatenate([phi for phi, _ in _collect(params, samples, seed, pool)])


def _moments_over_n(phi: np.ndarray) -> MomentEstimate:
    samples, K = phi.shape
    singular = int(np.isnan(phi[:, 0]).sum())
    # column by column: a sum over axis 0 would add in another order
    s1, s2 = np.array([(np.nansum(col), np.nansum(col * col)) for col in phi.T]).T
    return _estimate(samples, singular, np.full(K, samples - singular), s1, s2)


def eta_samples(M: int, K: int, samples: int, seed: int,
                pool=None) -> np.ndarray:
    """Raw eta draws indexed [sample, N-1] (a NaN row marks a discarded
    singular draw); test oracle hook."""
    _check_dims(K, M)
    return _draws((K, M, (1.0,) * K, None), samples, seed, pool)


def eta_moments(M: int, K: int, samples: int, seed: int, *,
                pool=None) -> MomentEstimate:
    """Moments of eta_N, the trace-inverse statistic of the N largest-norm
    rows of a K x M i.i.d. CN(0,1) matrix, for every N <= K."""
    return _moments_over_n(eta_samples(M, K, samples, seed, pool))


def phi_f_moments(f_diag, M: int, samples: int, seed: int, *,
                  pool=None) -> MomentEstimate:
    """Moments of phi of the N leading rows of F Z, Z of size K x M, for
    every N <= K; entry K-1 is phi_F = (tr[(F Z Z^H F)^{-1}])^{-1/2}."""
    f_diag = np.asarray(f_diag, dtype=float)
    _check_dims(f_diag.size, M)
    if np.any(f_diag <= 0):
        raise ValueError("F must be positive diagonal")
    return _moments_over_n(_draws((f_diag.size, M, None, tuple(f_diag)),
                                  samples, seed, pool))


# ---------------------------------------------------------------------------
# Scheduled heterogeneous statistics (per-block selection -> conditional phi)
# ---------------------------------------------------------------------------

def _selection_sums(phi: np.ndarray, order: np.ndarray):
    """Per-(N, user) count, sum and sum of squares of phi_N over one block."""
    K = phi.shape[1]
    ok = ~np.isnan(phi[:, 0])
    rank = np.argsort(order, axis=1)
    # served[i, N-1, k]: user k is among the N best of regular draw i
    served = (rank[:, None, :] < np.arange(1, K + 1)[:, None]) & ok[:, None, None]
    vals = np.where(ok[:, None], phi, 0.0)
    return (served.sum(axis=0), np.einsum("ink,in->nk", served, vals),
            np.einsum("ink,in->nk", served, vals * vals))


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
    parts = _collect((Ka, M, tuple(p_star), tuple(f_diag)), samples, seed, pool)
    singular = sum(int(np.isnan(phi[:, 0]).sum()) for phi, _ in parts)
    # fixed block order keeps sums bit-exact
    cnt, s1, s2 = (sum(terms) for terms in zip(*(_selection_sums(*p) for p in parts)))
    return _estimate(samples, singular, cnt, s1, s2)


# ---------------------------------------------------------------------------
# Persistent cache
# ---------------------------------------------------------------------------

def _checksum(body: str) -> str:
    """The crc field of a cache record whose other fields are `body`."""
    return format(zlib.crc32(body.encode()), "08x")


class MomentCache:
    """Every Monte Carlo statistic of a run: an in-memory store with optional
    plain-text persistence.

    File format: a version header line followed by one comma-delimited
    record per key, columns

        kind,M,K,fingerprint,samples,seed,singular_events,count,mean,variance,crc

    where count, mean and variance are the estimate's arrays, flattened and
    space-separated: K entries for eta and phi_F, K*K for weighted.  Floats
    are written with repr so reloaded estimates are bit-identical.  crc is
    the zlib.crc32 of the text before its comma, in hex.  Each record is
    written as "\n" + record + "\n" in one write(), so a torn record never
    runs into the next one; blank lines are ignored.  A line that does not
    parse, fails its checksum or is not newline-terminated (what a killed
    writer leaves) is skipped and counted in `skipped`.  A repeated header
    (what concurrent writers can leave) is ignored.  A file with another
    header is not read, and the first append replaces it afresh.
    """

    VERSION = "tddmimo-moments-cache v3"

    def __init__(self, path: str | Path | None = None):
        self.path = Path(path) if path is not None else None
        self._store: dict[MomentKey, MomentEstimate] = {}
        self._used: set[MomentKey] = set()
        self.hits = self.misses = self.skipped = self.singular_events = 0
        self._stale = False
        if self.path is not None and self.path.exists():
            self._load()

    def _load(self):
        try:
            lines = self.path.read_text(errors="replace").splitlines(keepends=True)
        except OSError as exc:
            warnings.warn(f"moment cache unreadable, recomputing: {exc}")
            return
        if lines and lines[0].strip() != self.VERSION:
            warnings.warn(f"unrecognized cache version in {self.path}; ignoring file")
            self._stale = True
            return
        for line in lines[1:]:
            if line.strip() in ("", self.VERSION):
                continue
            try:
                body, _, crc = line.rstrip("\n").rpartition(",")
                if not line.endswith("\n") or crc != _checksum(body):
                    raise ValueError("torn or corrupted record")
                kind, m, k, fp, samples, seed, sing, *arrays = body.split(",")
                shape = (int(k),) * (2 if kind == "weighted" else 1)
                key = MomentKey(kind, int(m), int(k), fp, int(samples), int(seed))
                est = MomentEstimate(int(samples), int(sing), *(
                    np.array([conv(v) for v in text.split()]).reshape(shape)
                    for conv, text in zip((int, float, float), arrays, strict=True)))
            except ValueError:
                self.skipped += 1
                continue
            self._store[key] = est
        if self.skipped:
            warnings.warn(f"skipped {self.skipped} malformed line(s) in {self.path}")

    def _append(self, key: MomentKey, est: MomentEstimate):
        if self.path is None:
            return
        body = ",".join([*map(str, astuple(key)), str(est.singular_events)]
                        + [" ".join(map(repr, a.ravel().tolist()))
                           for a in (est.count, est.mean, est.variance)])
        try:
            with open(self.path, "ab") as fh:
                if self._stale:  # a file of another version is replaced, not extended
                    fh.truncate(0)
                    self._stale = False
                header = self.VERSION + "\n" if fh.seek(0, 2) == 0 else ""
                fh.write(f"{header}\n{body},{_checksum(body)}\n".encode())
        except OSError as exc:
            warnings.warn(f"moment cache not writable: {exc}")

    def cached(self, key: MomentKey, compute) -> MomentEstimate:
        """Return the stored estimate for key, computing and storing on miss.

        `singular_events` adds up the singular draws of every distinct
        statistic used through this cache, once each.
        """
        est = self._store.get(key)
        if est is None:
            self.misses += 1
            est = self._store[key] = compute()
            self._append(key, est)
        else:
            self.hits += 1
        if key not in self._used:
            self._used.add(key)
            self.singular_events += est.singular_events
        return est

    def kind_counts(self) -> dict[str, int]:
        """Number of stored records per statistic kind."""
        return dict(Counter(key.kind for key in self._store))

    def __len__(self):
        return len(self._store)
