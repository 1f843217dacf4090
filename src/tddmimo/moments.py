"""Monte Carlo estimation of the trace-inverse gain statistics.

One chunk kernel serves every statistic: draw K x M channels, optionally
order the rows by scores_k * ||z_k||^2 (stable, best first) and scale them
by a positive diagonal F, then factor the Gram matrix once, G = L L^H.  The
Cholesky factor of a leading block G_N is the leading block of L, so
tr(G_N^{-1}) = sum_{i<N} ||row_i(L^{-1})||^2 for every N at once.  eta uses
unit scores, phi_F no ordering and the weighted statistics scores p_star.

Sample i always uses the Philox stream keyed by (seed, i) and chunk results
are reduced in index order, so estimates are bit-identical for any worker
count.

Singular draws are discarded and counted; a run aborts if they exceed 0.1%
of the samples.  The guard is applied once, to the full Gram matrix.  By
Cauchy interlacing cond(G_N) <= cond(G), so the weighted statistics discard
the same draws as a per-N guard, and eta with N < K may discard a draw whose
own block would pass.
"""

from __future__ import annotations

import hashlib
import warnings
from collections import Counter
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .channel_model import RngStream, draw_channel
from .errors import ExcessSingularDrawsError
from .precoding import gram_is_regular

CHUNK = 2048
SINGULAR_FRACTION_LIMIT = 1e-3


@dataclass(frozen=True)
class MomentEstimate:
    """Monte Carlo mean/variance of a scalar statistic."""

    mean: float
    variance: float
    std_error_of_mean: float
    samples: int
    singular_events: int


@dataclass(frozen=True)
class MomentKey:
    """Cache key: statistic kind plus everything its law depends on."""

    kind: str  # "eta" | "phi_F"
    M: int
    K: int
    N: int
    fingerprint: str  # "-" for eta; F-diagonal hash for phi_F
    samples: int
    seed: int


def f_fingerprint(f_diag) -> str:
    """Collision-free (to 1e-12 relative) fingerprint of an F diagonal."""
    text = ",".join(f"{float(v):.12e}" for v in np.atleast_1d(f_diag))
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def _draw_batch(K: int, M: int, seed: int, start: int, count: int) -> np.ndarray:
    z = np.empty((count, K, M), dtype=complex)
    for i in range(count):
        z[i] = draw_channel(K, M, RngStream(seed, start + i))
    return z


def _chunk(args):
    """phi_N for every N over one chunk of draws, and the row order used.

    Returns (phi, order): phi[i, N-1] is the statistic of the N leading rows
    of draw i (a NaN row marks a singular draw) and order[i] lists the users
    best first, or is None when `scores` is None and rows keep their order.
    """
    K, M, scores, f_diag, seed, start, count = args
    z = _draw_batch(K, M, seed, start, count)
    order = None
    if scores is not None:
        weight = np.asarray(scores) * np.sum(np.abs(z) ** 2, axis=2)
        order = np.argsort(-weight, axis=1, kind="stable")
        z = np.take_along_axis(z, order[:, :, None], axis=1)
    if f_diag is not None:
        f = np.asarray(f_diag)
        z = (f if order is None else f[order])[..., None] * z
    gram = z @ z.conj().transpose(0, 2, 1)
    ok = gram_is_regular(gram)
    phi = np.full((count, K), np.nan)
    if np.any(ok):
        l_inv = np.tril(np.linalg.inv(np.linalg.cholesky(gram[ok])))
        phi[ok] = np.cumsum(np.sum(np.abs(l_inv) ** 2, axis=2), axis=1) ** -0.5
    return phi, order


def _collect(params: tuple, samples: int, seed: int, workers: int) -> list:
    """Kernel results for consecutive CHUNK-sized sample ranges, in order."""
    tasks = [params + (seed, start, min(CHUNK, samples - start))
             for start in range(0, samples, CHUNK)]
    if workers <= 1 or len(tasks) == 1:
        return [_chunk(t) for t in tasks]
    with ProcessPoolExecutor(max_workers=workers) as ex:
        return list(ex.map(_chunk, tasks))


def _column(parts: list, n: int) -> np.ndarray:
    return np.concatenate([phi[:, n - 1] for phi, _ in parts])


def _check_singular(singular: int, samples: int):
    if singular > SINGULAR_FRACTION_LIMIT * samples:
        raise ExcessSingularDrawsError(
            f"{singular}/{samples} singular draws exceeds the 0.1% budget")


def _estimate_from_values(values: np.ndarray) -> MomentEstimate:
    samples = values.size
    singular = int(np.isnan(values).sum())
    _check_singular(singular, samples)
    n = samples - singular
    s1 = float(np.nansum(values))
    s2 = float(np.nansum(values * values))
    mean = s1 / n
    var = max(s2 / n - mean * mean, 0.0)
    return MomentEstimate(mean=mean, variance=var,
                          std_error_of_mean=float(np.sqrt(var / n)),
                          samples=samples, singular_events=singular)


def eta_samples(M: int, K: int, N: int, samples: int, seed: int,
                workers: int = 1) -> np.ndarray:
    """Raw eta draws (NaN marks discarded singular draws); test oracle hook."""
    if not (1 <= N <= K <= M):
        raise IndexError(f"need 1 <= N <= K <= M, got N={N}, K={K}, M={M}")
    if samples < 1:
        raise IndexError("samples must be positive")
    return _column(_collect((K, M, (1.0,) * K, None), samples, seed, workers), N)


def eta_moments(M: int, K: int, N: int, samples: int, seed: int, *,
                workers: int = 1, cache: "MomentCache | None" = None) -> MomentEstimate:
    """Moments of eta: trace-inverse statistic of the N largest-norm rows
    of a K x M i.i.d. CN(0,1) matrix."""
    if not (1 <= N <= K <= M):
        raise IndexError(f"need 1 <= N <= K <= M, got N={N}, K={K}, M={M}")
    key = MomentKey("eta", M, K, N, "-", samples, seed)
    compute = lambda: _estimate_from_values(eta_samples(M, K, N, samples, seed, workers))
    return cache.cached(key, compute) if cache is not None else compute()


def phi_f_moments(f_diag, M: int, samples: int, seed: int, *,
                  workers: int = 1, cache: "MomentCache | None" = None) -> MomentEstimate:
    """Moments of phi_F = (tr[(F Z Z^H F)^{-1}])^{-1/2}, Z of size K x M."""
    f_diag = np.asarray(f_diag, dtype=float)
    K = f_diag.size
    if not (1 <= K <= M):
        raise IndexError(f"need 1 <= K <= M, got K={K}, M={M}")
    if np.any(f_diag <= 0):
        raise ValueError("F must be positive diagonal")
    key = MomentKey("phi_F", M, K, K, f_fingerprint(f_diag), samples, seed)
    compute = lambda: _estimate_from_values(_column(
        _collect((K, M, None, tuple(f_diag)), samples, seed, workers), K))
    return cache.cached(key, compute) if cache is not None else compute()


# ---------------------------------------------------------------------------
# Scheduled heterogeneous statistics (per-block selection -> conditional phi)
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class WeightedPhiStats:
    """Per-(N, user) selection fractions and conditional phi moments.

    Arrays are indexed [N-1, k] over K active users: frac is the fraction of
    blocks in which user k is among the N served; mean/variance are the
    moments of the selected-submatrix statistic phi conditioned on that
    event.  Entries with zero counts are NaN.
    """

    samples: int
    singular_events: int
    count: np.ndarray
    frac: np.ndarray
    mean: np.ndarray
    variance: np.ndarray
    se_mean: np.ndarray
    se_variance: np.ndarray


def _selection_sums(phi: np.ndarray, order: np.ndarray):
    """Per-(N, user) count, sum and sum of squares of phi_N over one chunk."""
    K = phi.shape[1]
    ok = ~np.isnan(phi[:, 0])
    rank = np.argsort(order, axis=1)
    # served[i, N-1, k]: user k is among the N best of regular draw i
    served = (rank[:, None, :] < np.arange(1, K + 1)[:, None]) & ok[:, None, None]
    vals = np.where(ok[:, None], phi, 0.0)
    return (served.sum(axis=0), np.einsum("ink,in->nk", served, vals),
            np.einsum("ink,in->nk", served, vals * vals))


def weighted_phi_stats(f_diag, p_star, M: int, samples: int, seed: int,
                       workers: int = 1) -> WeightedPhiStats:
    """Monte Carlo over coherence blocks of the weighted selection rule.

    In each block users are ordered by p_star_k * ||z_k||^2 and, for every
    N, the statistic phi of the selected scaled submatrix F_S Z_S is
    recorded against each selected user.
    """
    f_diag = np.asarray(f_diag, dtype=float)
    p_star = np.asarray(p_star, dtype=float)
    Ka = f_diag.size
    if p_star.shape != (Ka,):
        raise ValueError("p_star and f_diag must have equal length")
    if Ka > M:
        raise IndexError(f"need K <= M, got K={Ka}, M={M}")
    parts = _collect((Ka, M, tuple(p_star), tuple(f_diag)), samples, seed, workers)
    singular = sum(int(np.isnan(phi[:, 0]).sum()) for phi, _ in parts)
    _check_singular(singular, samples)
    # fixed chunk order keeps sums bit-exact
    cnt, s1, s2 = (sum(terms) for terms in zip(*(_selection_sums(*p) for p in parts)))
    frac = cnt / (samples - singular)
    mean = np.where(cnt > 0, s1 / np.maximum(cnt, 1), np.nan)
    var = np.where(cnt > 0, np.maximum(s2 / np.maximum(cnt, 1) - mean * mean, 0.0), np.nan)
    se_mean = np.sqrt(var / np.maximum(cnt, 1))
    se_var = var * np.sqrt(2.0 / np.maximum(cnt, 1))
    return WeightedPhiStats(samples=samples, singular_events=singular,
                            count=cnt, frac=frac, mean=mean, variance=var,
                            se_mean=se_mean, se_variance=se_var)


# ---------------------------------------------------------------------------
# Persistent cache
# ---------------------------------------------------------------------------

class MomentCache:
    """In-memory moment store with optional plain-text persistence.

    File format: a version header line followed by one comma-delimited
    record per key, columns

        kind,M,K,N,fingerprint,samples,seed,mean,variance,std_error_of_mean,singular_events

    Floats are written with repr so reloaded estimates are bit-identical.
    A line that does not parse or is not newline-terminated (what a killed
    writer leaves) is skipped and counted in `skipped`; an append after such
    a line ends it with "!" so that it never parses.
    """

    VERSION = "tddmimo-moments-cache v1"

    def __init__(self, path: str | Path | None = None):
        self.path = Path(path) if path is not None else None
        self._store: dict[MomentKey, MomentEstimate] = {}
        self.hits = 0
        self.misses = 0
        self.skipped = 0
        if self.path is not None and self.path.exists():
            self._load()

    def _load(self):
        try:
            lines = self.path.read_text(errors="replace").splitlines(keepends=True)
        except OSError as exc:
            warnings.warn(f"moment cache unreadable, recomputing: {exc}")
            return
        if not lines or lines[0].strip() != self.VERSION:
            warnings.warn(f"unrecognized cache version in {self.path}; ignoring file")
            return
        for line in lines[1:]:
            if not line.strip():
                continue
            try:
                if not line.endswith("\n"):
                    raise ValueError("unterminated line")
                kind, m, k, n, fp, samples, seed, mean, var, se, sing = line.split(",")
                key = MomentKey(kind, int(m), int(k), int(n), fp, int(samples), int(seed))
                est = MomentEstimate(float(mean), float(var), float(se),
                                     int(samples), int(sing))
            except ValueError:
                self.skipped += 1
                continue
            self._store[key] = est
        if self.skipped:
            warnings.warn(f"skipped {self.skipped} malformed line(s) in {self.path}")

    def _append(self, key: MomentKey, est: MomentEstimate):
        if self.path is None:
            return
        line = ",".join([key.kind, str(key.M), str(key.K), str(key.N),
                         key.fingerprint, str(key.samples), str(key.seed),
                         repr(float(est.mean)), repr(float(est.variance)),
                         repr(float(est.std_error_of_mean)), str(est.singular_events)])
        try:
            with open(self.path, "ab+") as fh:
                if fh.seek(0, 2) == 0:
                    prefix = self.VERSION + "\n"
                else:  # mark a torn last record unparseable, then start afresh
                    fh.seek(-1, 2)
                    prefix = "" if fh.read(1) == b"\n" else "!\n"
                fh.write((prefix + line + "\n").encode())
        except OSError as exc:
            warnings.warn(f"moment cache not writable: {exc}")

    def cached(self, key: MomentKey, compute) -> MomentEstimate:
        """Return the stored estimate for key, computing and storing on miss."""
        if key in self._store:
            self.hits += 1
            return self._store[key]
        self.misses += 1
        est = compute()
        self._store[key] = est
        self._append(key, est)
        return est

    def kind_counts(self) -> dict[str, int]:
        """Number of stored records per statistic kind."""
        return dict(Counter(key.kind for key in self._store))

    def __len__(self):
        return len(self._store)
