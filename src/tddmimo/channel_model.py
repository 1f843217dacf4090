"""System configuration, channel draws and dB/linear conversions.

Complex normal convention: an entry written CN(0, v) has independent real
and imaginary parts, each Gaussian with variance v/2.  All channel and
noise entries in this library are CN(0, 1) unless scaled explicitly.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

_MASK64 = (1 << 64) - 1


def db_to_linear(x_db):
    """Convert dB to linear scale: 10**(x_db / 10)."""
    if np.ndim(x_db):
        return 10.0 ** (np.asarray(x_db, dtype=float) / 10.0)
    return 10.0 ** (float(x_db) / 10.0)


def linear_to_db(x):
    """Convert linear scale to dB: 10*log10(x)."""
    return 10.0 * np.log10(x)


@dataclass(frozen=True)
class RngStream:
    """Counter-based random stream keyed by (seed, stream_id).

    Each logical stream (one per fixed-size block of Monte Carlo samples) is
    an independent Philox stream, so a block is identical no matter how the
    blocks are partitioned across workers or in what order they are consumed.
    `row` r > 0 starts the same key's counter at r * 2**192: a sub-stream of
    the block that no other sub-stream's draws ever reach.  The Monte Carlo
    kernel gives each row i of a block's Bartlett factor two of them: 2i
    for its diagonal entry and 2i + 1 for its entries below the diagonal.
    """

    seed: int
    stream_id: int = 0
    row: int = 0

    def generator(self) -> np.random.Generator:
        """Fresh generator; repeated calls replay the same draws."""
        key = ((self.seed & _MASK64) << 64) | (self.stream_id & _MASK64)
        return np.random.Generator(np.random.Philox(key=key, counter=(self.row & _MASK64) << 192))


@dataclass(frozen=True)
class SystemConfig:
    """Dimensions, per-user SINRs (linear scale) and rate weights.

    M: base-station antennas; K: single-antenna users; T: coherence interval
    in symbols; tau_rp: reverse-link training length in symbols.
    """

    M: int
    K: int
    T: int
    tau_rp: int
    rho_f: np.ndarray
    rho_r: np.ndarray
    weights: np.ndarray = None

    def __post_init__(self):
        for name in ("M", "K", "T", "tau_rp"):
            v = getattr(self, name)
            if not isinstance(v, (int, np.integer)) or v < 1:
                raise ValueError(f"{name} must be a positive integer, got {v!r}")
        if self.tau_rp < self.K:
            raise ValueError(
                f"orthonormal pilots require K <= tau_rp, got K={self.K}, tau_rp={self.tau_rp}"
            )
        rho_f = np.atleast_1d(np.asarray(self.rho_f, dtype=float))
        rho_r = np.atleast_1d(np.asarray(self.rho_r, dtype=float))
        if rho_f.size == 1:
            rho_f = np.full(self.K, rho_f[0])
        if rho_r.size == 1:
            rho_r = np.full(self.K, rho_r[0])
        if rho_f.shape != (self.K,) or rho_r.shape != (self.K,):
            raise ValueError("rho_f and rho_r must be scalars or length-K vectors")
        if np.any(rho_f <= 0) or np.any(rho_r <= 0):
            raise ValueError("all SINRs must be strictly positive")
        w = self.weights
        w = np.ones(self.K) if w is None else np.atleast_1d(np.asarray(w, dtype=float))
        if w.shape != (self.K,):
            raise ValueError("weights must have length K")
        if np.any(w < 0) or not np.any(w > 0):
            raise ValueError("weights must be nonnegative with at least one positive")
        object.__setattr__(self, "rho_f", rho_f)
        object.__setattr__(self, "rho_r", rho_r)
        object.__setattr__(self, "weights", w)

    @classmethod
    def homogeneous(cls, M, K, T, tau_rp, rho_f, rho_r) -> "SystemConfig":
        """Config with identical forward/reverse SINRs for all users."""
        return cls(M=M, K=K, T=T, tau_rp=tau_rp,
                   rho_f=np.full(K, float(rho_f)), rho_r=np.full(K, float(rho_r)))

    @property
    def is_homogeneous(self) -> bool:
        return (np.all(self.rho_f == self.rho_f[0])
                and np.all(self.rho_r == self.rho_r[0]))

    @property
    def e_r(self) -> np.ndarray:
        """Reverse-link amplitude matrix diag(sqrt(rho_r))."""
        return np.diag(np.sqrt(self.rho_r))


def draw_channel(K: int, M: int, rng: RngStream | np.random.Generator,
                 count: int | None = None) -> np.ndarray:
    """Draw a K x M channel with i.i.d. CN(0,1) entries, or `count` of them
    stacked as (count, K, M) by one call on the stream.

    Deterministic given the stream: the same (seed, stream_id) always
    yields the same matrices.  Draws are sample-major, so draw 0 of a block
    equals the single draw and a shorter block is a prefix of a longer one.
    A stream is drawn from its start; a generator (`RngStream.generator`)
    is continued, so consecutive calls on it draw what one call of their
    total count draws from its stream.
    """
    if K < 1 or M < 1:
        raise ValueError("dimensions must be positive")
    g = rng if isinstance(rng, np.random.Generator) else rng.generator()
    parts = g.standard_normal((2, K, M) if count is None else (count, 2, K, M))
    return (parts[..., 0, :, :] + 1j * parts[..., 1, :, :]) / np.sqrt(2.0)
