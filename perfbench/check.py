"""Output checks for the benchmark's sweeps.

    python3 perfbench/check.py SPEC SEED CSV [CSV ...]

Prints one JSON object: the machine (CPUs, Python, numpy and BLAS versions),
the failures of the oracle self-test, and for each CSV a list of failure
reasons per expected cell (an empty list when the cell passed).  The checks
compare with the oracle's own draws and with properties the method must
have, never with stored output:

- every row has status ok and the rows are exactly the spec's cells;
- homogeneous (fig3): 1 <= N* <= K* <= min(M, tau*) and tau* <= T-2; the
  scheduled net rate is at least the unscheduled one for every (T, M); and
  every row's net rate agrees with the oracle's eta draws at the reported
  optimizer;
- heterogeneous (fig5): K <= tau* <= T-2 and 1 <= N* <= K; scheme 3 is at
  least scheme 2 for every M; and every scheme-2 row agrees with the
  oracle's waterfilling and phi_F draws at the reported tau*.
"""

from __future__ import annotations

import json
import math
import os
import platform
import sys
from pathlib import Path

import numpy as np

import oracle
from sweep import SweepSpec

ORACLE_SAMPLES = 40_000
SIGMAS = 5.0  # oracle agreement, in combined standard errors
TIE_REL = 1e-8  # CSV numbers carry 9 significant digits


def db(values) -> np.ndarray:
    return 10.0 ** (np.asarray(values, dtype=float) / 10.0)


def row_failures(spec: SweepSpec, data: str, seed: int) -> list[list[str]]:
    """Failure reasons per expected cell of one CSV."""
    try:
        lines = data.splitlines()
        header = lines[0].split(",")
        rows = [dict(zip(header, line.split(","))) for line in lines[1:]]
        if any(len(row) != len(header) for row in rows):
            raise ValueError("ragged rows")
        got = [tuple(int(row[k]) for k in spec.cell_keys) for row in rows]
    except (ValueError, KeyError, IndexError) as exc:
        return [[f"unreadable CSV: {exc}"] for _ in spec.cells]
    if got != spec.cells:
        return [[f"CSV cells {got} differ from the spec's {spec.cells}"] for _ in spec.cells]
    bad = [[] if row["status"] == "ok" else [f"status {row['status']!r}"] for row in rows]
    ok = [i for i, reasons in enumerate(bad) if not reasons]
    check = check_homog if spec.preset == "fig3" else check_hetero
    check(spec, rows, ok, bad, seed)
    return bad


def _agree(spec: SweepSpec, reasons: list, value: float, ref: float, sd: float):
    se = sd * math.sqrt(1.0 / ORACLE_SAMPLES + 1.0 / spec.samples)
    if abs(value - ref) > SIGMAS * se:
        reasons.append(f"rate {value} vs oracle {ref:.9g} (combined se {se:.3g})")


def _dominates(rate: dict, better, worse, bad: list, what: str):
    """rate[better(key)] >= rate[worse(key)] up to CSV rounding, for every cell pair."""
    for key, (i, hi) in rate.items():
        other = worse(key)
        if better(key) and other in rate:
            j, lo = rate[other]
            if hi < lo - TIE_REL * abs(lo):
                for k in (i, j):
                    bad[k].append(f"{what}: {hi} < {lo} at {key[1:]}")


def check_homog(spec, rows, ok, bad, seed):
    rho_f = float(db(spec.raw["rho_f_db"][0]))
    rho_r = float(db(spec.raw["rho_r_db"][0]))
    rate = {}
    for i in ok:
        s, T, M, K, tau, N = (int(rows[i][k]) for k in
                              ("scheme", "T", "M", "K_star", "tau_star", "N_star"))
        rate[(s, T, M)] = (i, float(rows[i]["net_rate"]))
        if not (1 <= N <= K <= min(M, tau) and tau <= T - 2):
            bad[i].append(f"optimizer K*={K} tau*={tau} N*={N} is infeasible")
            continue
        # unscheduled users are served as they come: eta of all N rows of N
        draws = oracle.eta_draws(M, K if s == 1 else N, N, ORACLE_SAMPLES,
                                 oracle.rng_for(10, seed, i))
        ref, sd = oracle.rate_and_sd(
            lambda e, v: oracle.homog_net_rate(e, v, rho_f=rho_f, rho_r=rho_r,
                                               T=T, tau=tau, N=N), draws)
        _agree(spec, bad[i], rate[(s, T, M)][1], ref, sd)
    # the scheduled search contains every unscheduled cell with the same draws
    _dominates(rate, lambda key: key[0] == 1, lambda key: (0,) + key[1:], bad,
               "scheduled below unscheduled")


def check_hetero(spec, rows, ok, bad, seed):
    K = int(spec.raw["k"][0])
    T = int(spec.raw["t"][0])
    rho_f_db = np.asarray(spec.raw["rho_f_db"], dtype=float)
    rho_f = db(rho_f_db)
    rho_r = db(rho_f_db + float(spec.raw["rho_r_offset_db"][0]))
    weights = np.asarray(spec.raw["weight"], dtype=float)
    rate = {}
    for i in ok:
        s, M, tau, N = (int(rows[i][k]) for k in ("scheme", "M", "tau_star", "N_star"))
        rate[(s, M)] = (i, float(rows[i]["wt_net_rate"]))
        if not (K <= tau <= T - 2 and 1 <= N <= K):
            bad[i].append(f"optimizer tau*={tau} N*={N} is infeasible")
            continue
        if s != 2:
            continue
        active, f_diag, rate_fn = oracle.hetero_unscheduled(
            M=M, T=T, tau=tau, rho_f=rho_f, rho_r=rho_r, weights=weights)
        if N != active.size:
            bad[i].append(f"N*={N} but waterfilling leaves {active.size} users active")
            continue
        draws = oracle.phi_f_draws(f_diag, M, ORACLE_SAMPLES, oracle.rng_for(20, seed, i))
        ref, sd = oracle.rate_and_sd(rate_fn, draws)
        _agree(spec, bad[i], rate[(s, M)][1], ref, sd)
    # both schemes use the same statistics; scheme 3 also searches N
    _dominates(rate, lambda key: key[0] == 3, lambda key: (2,) + key[1:], bad,
               "scheme 3 below scheme 2")


def machine() -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = blas.get("openblas configuration") or f"{blas['name']} {blas['version']}"
    except (TypeError, KeyError):
        blas = "unknown"
    return {"nproc": len(os.sched_getaffinity(0)), "cpu_count": os.cpu_count(),
            "python": platform.python_version(), "numpy": np.__version__,
            "blas": blas, "platform": platform.platform()}


def main(argv: list[str]) -> int:
    spec = SweepSpec(Path(argv[0]))
    seed = int(argv[1])
    print(json.dumps({
        "machine": machine(),
        "self_test": oracle.self_test(),
        "rows": [row_failures(spec, Path(p).read_text(), seed) for p in argv[2:]],
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
