"""Experiment spec parsing, figure-data sweeps and CSV/manifest emission.

Spec files are plain-text key=value documents over the keys of `_KEYS`; a
list key's values add up over lines.  SINRs are entered in dB and converted
per cell.  CSV numbers are pinned to 9 significant digits so reruns with the
same seed are byte-identical.  Each preset is one `Preset` record in `PRESETS`,
whose `request` gives each cell's statistics and the finish that turns their
estimates into the row.  A run samples the statistics of every cell in one
call before it finishes any (`run_experiment`), so no finish samples.
"""

from __future__ import annotations

import copy
import time
from collections.abc import Callable
from dataclasses import dataclass, field
from operator import attrgetter
from pathlib import Path

import numpy as np

from . import __version__
from .channel_model import SystemConfig, db_to_linear
from .moments import MomentCache
from .rates import MomentSource, c_net_request, c_sum_lb_request, c_wt_net_request
# unused here, but kept under these names: perfbench/traced.py wraps them
from .rates import c_net, c_sum_lb, c_wt_net  # noqa: F401

DEFAULT_SAMPLES = 100_000
MANIFEST_FILE = "run_manifest.txt"
CACHE_DIR = "moments_cache"


class SpecValidationError(ValueError):
    """Carries every violation found in a spec document."""

    def __init__(self, violations):
        self.violations = list(violations)
        super().__init__("; ".join(self.violations))


@dataclass
class ExperimentSpec:
    preset: str
    m_list: list[int]
    k_list: list[int] = field(default_factory=list)
    t_list: list[int] = field(default_factory=list)
    tau_rp: int | None = None
    rho_f_db: list[float] = field(default_factory=lambda: [0.0])
    rho_r_db: float | None = None
    rho_r_offset_db: float | None = None
    weights: list[float] | None = None
    schemes: list[int] = field(default_factory=list)
    samples: int = DEFAULT_SAMPLES
    seed: int = 0
    output: str = "sweep.csv"


# spec key (case-insensitive) -> (ExperimentSpec field, element type, list?).
# A list key's values are split at commas and spaces, and repeating the key
# adds to them; any other key is given at most once.
_KEYS = {"preset": ("preset", str, False), "scheme": ("schemes", int, True),
         "M": ("m_list", int, True), "K": ("k_list", int, True), "T": ("t_list", int, True),
         "tau_rp": ("tau_rp", int, False), "rho_f_db": ("rho_f_db", float, True),
         "rho_r_db": ("rho_r_db", float, False),
         "rho_r_offset_db": ("rho_r_offset_db", float, False),
         "weight": ("weights", float, True), "samples": ("samples", int, False),
         "seed": ("seed", int, False), "output": ("output", str, False)}
# keys that every preset reads; Preset.reads names the others
_READ_BY_ALL = ("preset", "samples", "seed", "output", "scheme", "M", "rho_f_db")


def parse_spec(text: str, *, seed: int | None = None,
               samples: int | None = None) -> ExperimentSpec:
    """Parse and validate a key=value spec document.

    seed and samples are command-line values: they replace the document's
    before validation.  A key given in the document replaces the preset's
    value, even when it is empty.  Raises SpecValidationError listing every
    problem found, not just the first one.
    """
    violations: list[str] = []
    names = {key.lower(): key for key in _KEYS}
    raw: dict[str, list[str]] = {}  # key as in _KEYS (unknown ones lower-case) -> values
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            violations.append(f"line {lineno}: expected key=value, got {stripped!r}")
            continue
        key, value = (part.strip() for part in stripped.split("=", 1))
        raw.setdefault(names.get(key.lower(), key.lower()), []).append(value)
    raw.update({key: [str(v)] for key, v in (("seed", seed), ("samples", samples))
                if v is not None})

    fields = {}  # ExperimentSpec field -> the spec's value
    for key, values in raw.items():
        if key not in _KEYS:
            violations.append(f"unknown key {key!r}")
            continue
        attr, conv, is_list = _KEYS[key]
        if not is_list and len(values) > 1:
            violations.append(f"key {key!r} given more than once")
        tokens = " ".join(values).replace(",", " ").split() if is_list else values[-1:]
        try:
            parsed = [conv(token) for token in tokens]
        except ValueError as exc:  # e.g. "invalid literal for int() with base 10: 'x'"
            violations.append(f"key {key!r}: {exc}")
            continue
        fields[attr] = parsed if is_list else parsed[0]

    preset = fields.pop("preset", "custom")
    if preset in PRESETS:
        reads = _READ_BY_ALL + PRESETS[preset].reads
        violations += [f"{preset} does not read key {key!r}" for key in raw
                       if key in _KEYS and key not in reads]
    else:
        violations.append(f"preset must be one of {tuple(PRESETS)}, got {preset!r}")
        preset = "custom"
    if "rho_r_db" in raw and "rho_r_offset_db" in raw:
        violations.append("give rho_r_db or rho_r_offset_db, not both")

    spec = ExperimentSpec(preset=preset, **(copy.deepcopy(PRESETS[preset].defaults) | fields))
    violations.extend(check_feasibility(spec))
    if violations:
        raise SpecValidationError(violations)
    return spec


def check_feasibility(spec: ExperimentSpec) -> list[str]:
    """All feasibility violations of a parsed spec (empty list when valid)."""
    preset = PRESETS[spec.preset]
    v: list[str] = []
    for key in _READ_BY_ALL + preset.reads:
        attr, _, is_list = _KEYS[key]
        n = len(getattr(spec, attr) or []) if is_list else 1
        if n == 0 or n > 1 and key not in preset.lists:
            least = "at least " if key in preset.lists else ""
            v.append(f"{spec.preset} needs {least}one {key} value, got {n}")
    if any(m < 1 for m in spec.m_list):
        v.append("all M must be positive")
    if any(k < 1 for k in spec.k_list):
        v.append("all K must be positive")
    offset = spec.rho_r_offset_db
    if offset is None and spec.rho_r_db is None:
        v.append("either rho_r_db or rho_r_offset_db is required")
    reverse = [spec.rho_r_db or 0.0] if offset is None else [f + offset for f in spec.rho_f_db]
    with np.errstate(over="ignore"):
        linear = db_to_linear(np.asarray([*spec.rho_f_db, *reverse], dtype=float))
    if not np.all((linear > 0) & np.isfinite(linear)):
        v.append("SINRs (rho_f_db, rho_r_db, rho_f_db + rho_r_offset_db) must be"
                 " finite in dB and positive and finite in linear scale")
    if spec.samples < 1:
        v.append("samples must be positive")
    if spec.seed < 0:
        v.append("seed must be a nonnegative integer")
    elif spec.seed >= 2**64:  # RngStream keys on the seed's low 64 bits
        v.append(f"seed must be below 2**64, got {spec.seed}")
    if spec.output in ("", ".", "..") or Path(spec.output).name != spec.output:
        v.append(f"output must be a file name without a directory, got {spec.output!r}")
    elif spec.output in (MANIFEST_FILE, CACHE_DIR):
        v.append(f"output {spec.output!r} is a name the run writes itself")
    if spec.weights:
        if not np.all(np.isfinite(spec.weights)):
            v.append("weights must be finite")
        elif any(w < 0 for w in spec.weights):
            v.append("weights must be nonnegative")
        elif not any(w > 0 for w in spec.weights):
            v.append("at least one weight must be positive")
    v += [f"{spec.preset} evaluates schemes {'/'.join(map(str, preset.schemes))},"
          f" not scheme {s}" for s in spec.schemes if s not in preset.schemes]
    v += [f"T must be at least 3, got {t}" for t in spec.t_list if t < 3]
    return v + list(preset.rules(spec))


def _fmt(x) -> str:
    if isinstance(x, (float, np.floating)):
        return format(float(x), ".9g")
    return str(x)


def _rho_r_db_for(spec: ExperimentSpec, rho_f_db):
    if spec.rho_r_offset_db is not None:
        return np.asarray(rho_f_db, dtype=float) + spec.rho_r_offset_db
    return np.asarray(spec.rho_r_db, dtype=float)


def _columns(request, *names):
    """A search's request (keys, finish) from `rates`, with a finish that
    returns the attributes `names` of its RatePoint: the columns up to status."""
    keys, finish = request
    return keys, lambda estimates: list(attrgetter(*names)(finish(estimates)))


def _sum_config(spec, M, K, tau_rp=None) -> SystemConfig:
    """Homogeneous config of one (M, K) cell; tau_rp defaults to K."""
    tau = K if tau_rp is None else tau_rp
    rf_db = spec.rho_f_db[0]
    return SystemConfig.homogeneous(M=M, K=K, T=tau + 2, tau_rp=tau, rho_f=db_to_linear(rf_db),
                                    rho_r=db_to_linear(_rho_r_db_for(spec, rf_db)))


def _sum_bound(spec, source, scheme, M, K, tau_rp=None):
    """Homogeneous sum bound of one (M, K) cell."""
    return _columns(c_sum_lb_request(_sum_config(spec, M, K, tau_rp), scheme == 1, source),
                    "n_selected", "rate", "std_error")


def _net_rate(spec, source, scheme, M, T=None, rho_f_db=None):
    """Joint (tau, K, N) net-rate optimum of one cell; T and rho_f_db default
    to the spec's one value."""
    t = spec.t_list[0] if T is None else T
    rf_db = spec.rho_f_db[0] if rho_f_db is None else rho_f_db
    return _columns(c_net_request(M, t, db_to_linear(rf_db),
                                  db_to_linear(_rho_r_db_for(spec, rf_db)), scheme == 1, source),
                    "K", "tau_rp", "n_selected", "rate", "std_error")


def _weighted_config(spec, M) -> SystemConfig:
    """The spec's K heterogeneous users at M antennas."""
    k = spec.k_list[0]
    return SystemConfig(M=M, K=k, T=spec.t_list[0], tau_rp=k,
                        rho_f=db_to_linear(spec.rho_f_db),
                        rho_r=db_to_linear(_rho_r_db_for(spec, spec.rho_f_db)),
                        weights=spec.weights)


def _weighted_net_rate(spec, source, scheme, M):
    """Weighted net rate of the spec's K heterogeneous users at M antennas."""
    return _columns(c_wt_net_request(_weighted_config(spec, M), scheme == 3, source),
                    "tau_rp", "n_selected", "rate", "std_error")


def _custom_rules(spec: ExperimentSpec):
    for k in spec.k_list:
        tau = spec.tau_rp if spec.tau_rp is not None else k
        if k > tau:
            yield f"K <= tau_rp violated (K={k}, tau_rp={tau})"
        for m in spec.m_list:
            if k > m:
                yield f"K <= min(M, tau_rp) violated (K={k}, M={m})"


def _fig5_rules(spec: ExperimentSpec):
    for k in spec.k_list:
        if spec.weights and len(spec.weights) != k:
            yield f"fig5 needs one weight per user (K={k}, {len(spec.weights)} weights)"
        if spec.rho_f_db and len(spec.rho_f_db) != k:
            yield f"fig5 needs one forward SINR per user (K={k}, {len(spec.rho_f_db)} values)"
        for t in spec.t_list:
            if t < k + 2:
                yield f"weighted net rate needs T >= K+2 (K={k}, T={t})"
        for m in spec.m_list:
            if m < k:
                yield f"fig5 needs M >= K (K={k}, M={m})"


@dataclass(frozen=True)
class Preset:
    """One sweep.  `cells(spec)` yields each row's leading columns as a dict
    keyed by header name, and `request(spec, source, **cell)` returns
    (keys, finish): the MomentKeys of the statistics the cell reads, built
    by source, and `finish(estimates)`, which takes one estimate per key
    and returns the columns up to `status`.  A spec may give the keys every
    preset reads and those in `reads`.  Each list key it reads needs one
    value, or at least one if the key is in `lists`, and `rules(spec)`
    yields further violations."""

    defaults: dict
    header: str
    schemes: tuple[int, ...]
    cells: Callable
    request: Callable
    reads: tuple[str, ...]
    lists: tuple[str, ...]
    rules: Callable = lambda spec: ()


PRESETS: dict[str, Preset] = {
    "fig2": Preset(
        dict(m_list=[4, 8, 16], rho_f_db=[0.0], rho_r_db=-10.0, schemes=[0, 1],
             output="fig2_sum_bound.csv"),
        "scheme,M,K,N_star,rate,std_error,status", (0, 1),
        lambda spec: (dict(scheme=s, M=m, K=k) for s in spec.schemes
                      for m in spec.m_list for k in range(1, m + 1)),
        _sum_bound, reads=("rho_r_db", "rho_r_offset_db"),
        lists=("scheme", "M")),
    "fig3": Preset(
        dict(m_list=[2, 4, 6, 8, 10, 12, 14, 16], t_list=[20, 30], rho_f_db=[0.0],
             rho_r_db=-10.0, schemes=[0, 1], output="fig3_net_rate.csv"),
        "scheme,T,M,K_star,tau_star,N_star,net_rate,std_error,status", (0, 1),
        lambda spec: (dict(scheme=s, T=t, M=m) for s in spec.schemes
                      for t in spec.t_list for m in spec.m_list),
        _net_rate, reads=("T", "rho_r_db", "rho_r_offset_db"),
        lists=("scheme", "T", "M")),
    "fig4": Preset(
        dict(m_list=[32], t_list=[20],
             rho_f_db=[-10.0, -8.0, -6.0, -4.0, -2.0, 0.0, 2.0, 4.0, 6.0, 8.0, 10.0],
             rho_r_offset_db=-10.0, schemes=[1], output="fig4_optimizers.csv"),
        "scheme,rho_f_db,M,K_star,tau_star,N_star,net_rate,std_error,status", (0, 1),
        lambda spec: (dict(scheme=s, rho_f_db=f, M=m) for s in spec.schemes
                      for f in spec.rho_f_db for m in spec.m_list),
        _net_rate, reads=("T", "rho_r_offset_db"),
        lists=("scheme", "rho_f_db", "M")),
    "fig5": Preset(
        dict(m_list=[8, 12, 16, 24], k_list=[8], t_list=[20],
             rho_f_db=[-4.0, -3.0, -2.0, -1.0, 0.0, 1.0, 2.0, 3.0],
             rho_r_offset_db=-10.0, weights=[2.0, 2.0, 2.0, 2.0, 1.0, 1.0, 1.0, 1.0],
             schemes=[2, 3], output="fig5_weighted_net_rate.csv"),
        "scheme,M,tau_star,N_star,wt_net_rate,std_error,status", (2, 3),
        lambda spec: (dict(scheme=s, M=m) for s in spec.schemes for m in spec.m_list),
        _weighted_net_rate, reads=("K", "T", "rho_r_offset_db", "weight"),
        lists=("scheme", "M", "rho_f_db", "weight"), rules=_fig5_rules),
    "custom": Preset(
        dict(m_list=[], schemes=[0, 1], output="custom_sum_bound.csv"),
        "scheme,M,K,tau_rp,N_star,rate,std_error,status", (0, 1),
        lambda spec: (dict(scheme=s, M=m, K=k,
                           tau_rp=spec.tau_rp if spec.tau_rp is not None else k)
                      for s in spec.schemes for m in spec.m_list for k in spec.k_list),
        _sum_bound, reads=("K", "tau_rp", "rho_r_db", "rho_r_offset_db"),
        lists=("scheme", "M", "K"), rules=_custom_rules),
}


def run_experiment(spec: ExperimentSpec, out_dir: str | Path,
                   workers: int = 1) -> dict:
    """Run the sweep, write CSV + manifest + moment cache, return manifest.

    Each cell's request is built once and names the statistics it reads.
    Those the cache lacks, over all the cells, are sampled first, in one
    pass per (M, block) over all of them, on up to `workers` processes
    (moments.sample); each cell then finishes from its keys' estimates,
    which the cache holds.  The manifest's cache_misses counts the
    statistics sampled, and cache_hits the cells' keys, each a lookup that
    found its statistic.  `status` always reads ok: a request's ValueError
    fails the run, and a spec that passes validation raises none.
    """
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    source = MomentSource(spec.samples, spec.seed, workers=workers, cache_path=out / CACHE_DIR)
    started = time.perf_counter()
    preset = PRESETS[spec.preset]
    cells = list(preset.cells(spec))
    requests = [preset.request(spec, source, **cell) for cell in cells]
    source.fetch(source.missing(key for keys, _ in requests for key in keys))
    rows = [list(cell.values()) + finish(source.fetch(keys)) + ["ok"]
            for cell, (keys, finish) in zip(cells, requests)]
    cache = source.cache
    lines = [preset.header] + [",".join(_fmt(v) for v in row) for row in rows]
    (out / spec.output).write_text("\n".join(lines) + "\n")

    manifest = {
        "preset": spec.preset,
        "csv": spec.output,
        "seed": spec.seed,
        "samples": spec.samples,
        "workers": workers,
        "rows": len(rows),
        "cache_hits": cache.hits,
        "cache_misses": cache.misses,
        "singular_events": cache.singular_events,
        "wall_time_s": round(time.perf_counter() - started, 3),
        "tddmimo_version": __version__,
        "numpy_version": np.__version__,
        "moments_version": MomentCache.VERSION,
    }
    (out / MANIFEST_FILE).write_text("".join(f"{k}={v}\n" for k, v in manifest.items()))
    return manifest
