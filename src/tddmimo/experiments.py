"""Experiment spec parsing, figure-data sweeps and CSV/manifest emission.

Spec files are plain-text key=value documents; repeating a key builds a
list.  SINRs are entered in dB and converted once at parse time.  CSV
numbers are pinned to 9 significant digits so reruns with the same seed
are byte-identical.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from .channel_model import SystemConfig, db_to_linear
from .errors import InfeasibleError
from .rates import MomentSource, c_net, c_sum_lb, c_wt_net

PRESETS = ("fig2", "fig3", "fig4", "fig5", "custom")

DEFAULT_SAMPLES = 100_000
QUICK_SAMPLES = 10_000


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
    rho_r_db: list[float] | None = None
    rho_r_offset_db: float | None = None
    weights: list[float] | None = None
    schemes: list[int] = field(default_factory=list)
    samples: int = DEFAULT_SAMPLES
    seed: int = 0
    quick: bool = False
    output: str = "sweep.csv"


def _preset_defaults(preset: str) -> dict:
    if preset == "fig2":
        return dict(m_list=[4, 8, 16], rho_f_db=[0.0], rho_r_db=[-10.0],
                    schemes=[0, 1], output="fig2_sum_bound.csv")
    if preset == "fig3":
        return dict(m_list=[2, 4, 6, 8, 10, 12, 14, 16], t_list=[20, 30],
                    rho_f_db=[0.0], rho_r_db=[-10.0], schemes=[0, 1],
                    output="fig3_net_rate.csv")
    if preset == "fig4":
        return dict(m_list=[32], t_list=[20],
                    rho_f_db=[-10.0, -8.0, -6.0, -4.0, -2.0, 0.0, 2.0, 4.0, 6.0, 8.0, 10.0],
                    rho_r_offset_db=-10.0, schemes=[1],
                    output="fig4_optimizers.csv")
    if preset == "fig5":
        return dict(m_list=[8, 12, 16, 24], k_list=[8], t_list=[20],
                    rho_f_db=[-4.0, -3.0, -2.0, -1.0, 0.0, 1.0, 2.0, 3.0],
                    rho_r_offset_db=-10.0,
                    weights=[2.0, 2.0, 2.0, 2.0, 1.0, 1.0, 1.0, 1.0],
                    schemes=[2, 3], output="fig5_weighted_net_rate.csv")
    return dict(m_list=[], schemes=[0, 1], output="custom_sum_bound.csv")


_LIST_INT = {"m": "m_list", "k": "k_list", "t": "t_list", "scheme": "schemes"}
_LIST_FLOAT = {"rho_f_db": "rho_f_db", "rho_r_db": "rho_r_db", "weight": "weights"}
_SCALARS = ("preset", "tau_rp", "rho_r_offset_db", "samples", "seed", "quick", "output")


def parse_spec(text: str) -> ExperimentSpec:
    """Parse and validate a key=value spec document.

    Raises SpecValidationError listing every problem found, not just the
    first one.
    """
    violations: list[str] = []
    raw: dict[str, list[str]] = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            violations.append(f"line {lineno}: expected key=value, got {stripped!r}")
            continue
        key, value = (part.strip() for part in stripped.split("=", 1))
        raw.setdefault(key.lower(), []).append(value)

    known = set(_LIST_INT) | set(_LIST_FLOAT) | set(_SCALARS)
    for key in raw:
        if key not in known:
            violations.append(f"unknown key {key!r}")

    def scalar(key, conv, default=None):
        if key not in raw:
            return default
        if len(raw[key]) > 1:
            violations.append(f"key {key!r} given more than once")
        try:
            return conv(raw[key][-1])
        except ValueError:
            violations.append(f"key {key!r}: cannot parse {raw[key][-1]!r}")
            return default

    def numlist(key, conv):
        out = []
        for v in raw.get(key, []):
            for tok in v.replace(",", " ").split():
                try:
                    out.append(conv(tok))
                except ValueError:
                    violations.append(f"key {key!r}: cannot parse {tok!r}")
        return out

    preset = scalar("preset", str, "custom")
    if preset not in PRESETS:
        violations.append(f"preset must be one of {PRESETS}, got {preset!r}")
        preset = "custom"

    fields = _preset_defaults(preset)
    for key, attr in _LIST_INT.items():
        values = numlist(key, int)
        if values:
            fields[attr] = values
    for key, attr in _LIST_FLOAT.items():
        values = numlist(key, float)
        if values:
            fields[attr] = values

    spec = ExperimentSpec(preset=preset, **{k: v for k, v in fields.items()
                                            if k != "output"},
                          output=fields.get("output", "sweep.csv"))
    spec.tau_rp = scalar("tau_rp", int, spec.tau_rp)
    off = scalar("rho_r_offset_db", float, spec.rho_r_offset_db)
    spec.rho_r_offset_db = off
    spec.samples = scalar("samples", int, spec.samples)
    spec.seed = scalar("seed", int, spec.seed)
    quick = scalar("quick", str, None)
    if quick is not None:
        if quick.lower() in ("true", "1", "yes"):
            spec.quick = True
        elif quick.lower() in ("false", "0", "no"):
            spec.quick = False
        else:
            violations.append(f"key 'quick': expected true/false, got {quick!r}")
    spec.output = scalar("output", str, spec.output)
    if spec.quick and "samples" not in raw:
        spec.samples = QUICK_SAMPLES

    violations.extend(check_feasibility(spec))
    if violations:
        raise SpecValidationError(violations)
    return spec


def check_feasibility(spec: ExperimentSpec) -> list[str]:
    """All feasibility violations of a parsed spec (empty list when valid)."""
    v: list[str] = []
    if not spec.m_list:
        v.append("M list must be nonempty")
    if any(m < 1 for m in spec.m_list):
        v.append("all M must be positive")
    if any(k < 1 for k in spec.k_list):
        v.append("all K must be positive")
    if not spec.rho_f_db:
        v.append("rho_f_db list must be nonempty")
    if spec.rho_r_db is None and spec.rho_r_offset_db is None:
        v.append("either rho_r_db or rho_r_offset_db is required")
    if spec.samples < 1:
        v.append("samples must be positive")
    if spec.seed < 0:
        v.append("seed must be a nonnegative integer")
    if spec.weights is not None:
        if any(w < 0 for w in spec.weights):
            v.append("weights must be nonnegative")
        elif not any(w > 0 for w in spec.weights):
            v.append("at least one weight must be positive")
    if spec.preset == "custom":
        if not spec.k_list:
            v.append("custom preset requires K")
        for k in spec.k_list:
            tau = spec.tau_rp if spec.tau_rp is not None else k
            if k > tau:
                v.append(f"K <= tau_rp violated (K={k}, tau_rp={tau})")
            for m in spec.m_list:
                if k > m:
                    v.append(f"K <= min(M, tau_rp) violated (K={k}, M={m})")
            for t in spec.t_list:
                if tau > t - 2:
                    v.append(f"tau_rp <= T-2 violated (tau_rp={tau}, T={t}):"
                             " required by the net-rate search")
    if spec.preset in ("fig3", "fig4", "fig5") and not spec.t_list:
        v.append(f"{spec.preset} preset requires T")
    for t in spec.t_list:
        if t < 3:
            v.append(f"T must be at least 3, got {t}")
    if spec.preset == "fig5":
        for k in spec.k_list:
            if spec.weights is not None and len(spec.weights) != k:
                v.append(f"fig5 needs one weight per user (K={k},"
                         f" {len(spec.weights)} weights)")
            if len(spec.rho_f_db) != k:
                v.append(f"fig5 needs one forward SINR per user (K={k},"
                         f" {len(spec.rho_f_db)} values)")
            for t in spec.t_list:
                if t < k + 2:
                    v.append(f"weighted net rate needs T >= K+2 (K={k}, T={t})")
    return v


def _fmt(x) -> str:
    if isinstance(x, (float, np.floating)):
        return format(float(x), ".9g")
    return str(x)


def _rho_r_db_for(spec: ExperimentSpec, rho_f_db):
    if spec.rho_r_offset_db is not None:
        return np.asarray(rho_f_db, dtype=float) + spec.rho_r_offset_db
    rr = spec.rho_r_db
    return np.asarray(rr[0] if len(rr) == 1 else rr, dtype=float)


def _sweep_rows(spec: ExperimentSpec, source: MomentSource):
    """Yield (header, rows) for the spec's sweep."""
    if spec.preset == "fig2":
        header = ["scheme", "M", "K", "N_star", "rate", "std_error", "status"]
        rows = []
        for scheme in spec.schemes:
            for m in spec.m_list:
                for k in range(1, m + 1):
                    cfg = SystemConfig.homogeneous(
                        M=m, K=k, T=k + 2, tau_rp=k,
                        rho_f=db_to_linear(spec.rho_f_db[0]),
                        rho_r=float(db_to_linear(_rho_r_db_for(spec, spec.rho_f_db[0]))))
                    rp = c_sum_lb(cfg, scheduled=(scheme == 1), moment_source=source)
                    rows.append([scheme, m, k, rp.n_selected, rp.rate,
                                 rp.std_error, "ok"])
        return header, rows

    if spec.preset in ("fig3", "fig4"):
        if spec.preset == "fig3":
            header = ["scheme", "T", "M", "K_star", "tau_star", "N_star",
                      "net_rate", "std_error", "status"]
        else:
            header = ["scheme", "rho_f_db", "M", "K_star", "tau_star", "N_star",
                      "net_rate", "std_error", "status"]
        rows = []
        for scheme in spec.schemes:
            for t in spec.t_list:
                for rf_db in spec.rho_f_db:
                    rr_db = float(_rho_r_db_for(spec, rf_db))
                    for m in spec.m_list:
                        cell = ([scheme, t, m] if spec.preset == "fig3"
                                else [scheme, rf_db, m])
                        try:
                            rp = c_net(m, t, db_to_linear(rf_db),
                                       db_to_linear(rr_db),
                                       scheduled=(scheme == 1),
                                       moment_source=source)
                            rows.append(cell + [rp.K, rp.tau_rp, rp.n_selected,
                                                rp.rate, rp.std_error, "ok"])
                        except InfeasibleError as exc:
                            rows.append(cell + ["", "", "", "", "",
                                                f"infeasible: {exc}"])
        return header, rows

    if spec.preset == "fig5":
        header = ["scheme", "M", "tau_star", "N_star", "wt_net_rate",
                  "std_error", "status"]
        rows = []
        k = spec.k_list[0]
        for scheme in spec.schemes:
            for m in spec.m_list:
                rr_db = _rho_r_db_for(spec, spec.rho_f_db)
                try:
                    cfg = SystemConfig(M=m, K=k, T=spec.t_list[0], tau_rp=k,
                                       rho_f=db_to_linear(spec.rho_f_db),
                                       rho_r=db_to_linear(rr_db),
                                       weights=np.asarray(spec.weights, dtype=float)
                                       if spec.weights is not None else None)
                    rp = c_wt_net(cfg, scheduled=(scheme == 3), moment_source=source)
                    rows.append([scheme, m, rp.tau_rp, rp.n_selected, rp.rate,
                                 rp.std_error, "ok"])
                except (InfeasibleError, ValueError) as exc:
                    rows.append([scheme, m, "", "", "", "", f"infeasible: {exc}"])
        return header, rows

    # custom: homogeneous sum bound per (M, K) cell at the given tau
    header = ["scheme", "M", "K", "tau_rp", "N_star", "rate", "std_error", "status"]
    rows = []
    for scheme in spec.schemes:
        for m in spec.m_list:
            for k in spec.k_list:
                tau = spec.tau_rp if spec.tau_rp is not None else k
                rr_db = float(_rho_r_db_for(spec, spec.rho_f_db[0]))
                try:
                    cfg = SystemConfig.homogeneous(
                        M=m, K=k, T=max(tau + 2, 3), tau_rp=tau,
                        rho_f=db_to_linear(spec.rho_f_db[0]),
                        rho_r=db_to_linear(rr_db))
                    rp = c_sum_lb(cfg, scheduled=(scheme == 1), moment_source=source)
                    rows.append([scheme, m, k, tau, rp.n_selected, rp.rate,
                                 rp.std_error, "ok"])
                except (InfeasibleError, ValueError) as exc:
                    rows.append([scheme, m, k, tau, "", "", "",
                                 f"infeasible: {exc}"])
    return header, rows


def run_experiment(spec: ExperimentSpec, out_dir: str | Path,
                   workers: int = 1) -> dict:
    """Run the sweep, write CSV + manifest + moment cache, return manifest."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    source = MomentSource(spec.samples, spec.seed, workers=workers,
                          cache_path=out / "moments_cache.txt")
    cache = source.cache
    started = time.time()
    header, rows = _sweep_rows(spec, source)
    csv_path = out / spec.output
    lines = [",".join(header)]
    lines += [",".join(_fmt(v) for v in row) for row in rows]
    csv_path.write_text("\n".join(lines) + "\n")

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
        "wall_time_s": round(time.time() - started, 3),
    }
    manifest_path = out / "run_manifest.txt"
    manifest_path.write_text(
        "".join(f"{k}={v}\n" for k, v in manifest.items()))
    return manifest
