"""tddmimo benchmark: whole `tddmimo run` processes on preset-shaped sweeps.

    python3 perfbench/run.py --workload homog_cold --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30 --trace 1

Run from the root of a checkout.  Each measured run is one program process
(`python -m tddmimo.cli run` with src/ on the path), started only after the
previous one exited, and the runs repeat until --seconds have passed.  The
operations are the sweep's cells (CSV rows); a cell fails when its status is
not ok or when it fails a check, and a process that exits non-zero fails all
of its cells.  The checks run outside the timed region.

With --trace 0 the last line of output is a JSON object with the end-to-end
metrics (means over the runs, and the median of the set-up probes); with
--trace 1 the runs alternate between plain and traced processes and it holds
the per-layer metrics (medians over the traced runs).  Every
invocation also writes its full record, the machine included, under
.perfbench_out/results/.  README.md describes the workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import subprocess
import sys
import threading
import time
from collections import Counter, defaultdict
from dataclasses import dataclass
from pathlib import Path
from statistics import fmean, median

# This process stays small and free of numpy: Linux carries a process's peak
# RSS across fork and exec, so every program process it starts reports at
# least this process's own peak.  The numpy checks run in check.py instead.
from sweep import SweepSpec

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench_out"
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_PROBES = 12  # one at the start of a run, then one every twelfth of it
PROCESS_TIMEOUT_S = 120


@dataclass(frozen=True)
class Workload:
    spec: str
    workers: int
    warm: bool  # rerun in a directory that an untimed cold run filled


WORKLOADS = {
    # eta kernel, per-sample draws, process pool and cache writes
    "homog_cold": Workload("homog.txt", 2, False),
    # per-sample weighted-phi loop and waterfilling; no cache, no pool
    "hetero_cold": Workload("hetero.txt", 1, False),
    # cache load and the rates search loop; no sampling
    "homog_warm": Workload("homog.txt", 2, True),
}

# metric names and units, as BENCHMARK.json declares them
_DECLARED = json.loads((ROOT / "BENCHMARK.json").read_text())
END_TO_END = {m["name"]: m["unit"] for m in _DECLARED["end_to_end"]}
PER_LAYER = {m["name"]: m["unit"] for m in _DECLARED["per_layer"]}
# Pool workers run the kernel out of the tracer's sight, so on homog_cold
# these come from traced processes of the same spec at --workers 1.
SERIAL_LAYER_METRICS = ("channel_model.draw_calls", "channel_model.draw_s",
                        "moments.kernel_self_s")


# ---------------------------------------------------------------------------
# Processes
# ---------------------------------------------------------------------------

@dataclass
class Proc:
    rc: int
    wall_s: float
    cpu_s: float
    rss_mib: float
    out: Path
    log: Path
    trace: Path | None = None
    # what the run left in its output directory, read as soon as it exited:
    # warm reruns share one directory, so each run's files are gone by the end
    csv: bytes | None = None
    manifest: dict[str, str] | None = None
    cache_bytes: int = 0


def _kill_group(pid: int):
    try:
        os.killpg(pid, signal.SIGKILL)
    except (ProcessLookupError, PermissionError):
        pass


def program_env() -> dict[str, str]:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env.update({var: "1" for var in THREAD_VARS})
    return env


def spawn(cmd: list[str], out: Path, log: Path, trace: Path | None = None) -> Proc:
    """Run cmd to completion: wall time from spawn to exit, and the CPU time
    and peak RSS of the process and of the children it waited for (its pool
    workers)."""
    with open(log, "wb") as fh:
        t0 = time.perf_counter()
        proc = subprocess.Popen(cmd, cwd=ROOT, env=program_env(), stdin=subprocess.DEVNULL,
                                stdout=fh, stderr=subprocess.STDOUT, start_new_session=True)
    timer = threading.Timer(PROCESS_TIMEOUT_S, _kill_group, (proc.pid,))
    timer.start()
    try:
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - t0
    except BaseException:
        _kill_group(proc.pid)
        proc.wait()
        raise
    finally:
        timer.cancel()
    proc.returncode = os.waitstatus_to_exitcode(status)
    _kill_group(proc.pid)  # anything the program left behind in its group
    return Proc(proc.returncode, wall, usage.ru_utime + usage.ru_stime,
                usage.ru_maxrss / 1024.0, out, log, trace)


class Runner:
    """Starts the program processes of one invocation inside its work dir."""

    def __init__(self, work: Path, spec: SweepSpec, seed: int):
        self.work = work
        self.spec = spec
        self.seed = seed
        self.n = 0

    def tddmimo(self, workers: int, out: Path | None = None, traced: bool = False) -> Proc:
        self.n += 1
        tag = f"p{self.n:03d}"
        out = out or self.work / tag
        args = ["run", "--spec", str(self.spec.path), "--out", str(out),
                "--seed", str(self.seed), "--workers", str(workers)]
        trace = self.work / f"{tag}.trace.json" if traced else None
        cmd = ([sys.executable, str(HERE / "traced.py"), str(trace)] if traced
               else [sys.executable, "-m", "tddmimo.cli"]) + args
        proc = spawn(cmd, out, self.work / f"{tag}.log", trace)
        proc.csv = read_bytes(out / self.spec.output)
        proc.manifest = manifest(out)
        cache = out / "moments_cache.txt"
        proc.cache_bytes = cache.stat().st_size if cache.is_file() else 0
        return proc

    def setup_probe(self, out: Path) -> Proc:
        self.n += 1
        cmd = [sys.executable, str(HERE / "setup_probe.py"), str(self.spec.path), str(out)]
        return spawn(cmd, out, self.work / f"p{self.n:03d}.log")


def read_bytes(path: Path) -> bytes | None:
    return path.read_bytes() if path.is_file() else None


def manifest(out: Path) -> dict[str, str]:
    lines = (read_bytes(out / "run_manifest.txt") or b"").decode().splitlines()
    return dict(line.split("=", 1) for line in lines if "=" in line)


def log_tail(proc: Proc) -> str:
    lines = proc.log.read_text(errors="replace").strip().splitlines()
    return lines[-1] if lines else ""


# ---------------------------------------------------------------------------
# Per-layer metrics from a trace
# ---------------------------------------------------------------------------

def layer_metrics(trace: dict, cache_bytes: int) -> dict[str, float]:
    spans = trace["spans"]
    child = [0.0] * len(spans)
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            child[parent] += end - start
    calls: Counter = Counter()
    total: dict[str, float] = defaultdict(float)
    own: dict[str, float] = defaultdict(float)
    pooled = set()
    for i, (name, start, end, parent, aggregated) in enumerate(spans):
        calls[name] += 1
        total[name] += end - start
        own[name] += end - start - child[i] - aggregated
        if name == "moments.pool":
            pooled.add(parent)
    draws, draw_s = trace["aggregates"].get("channel_model.draw", [0, 0.0])
    hits = calls["moments.cache"] - calls["moments.compute"]
    misses = calls["moments.compute"]
    return {
        "cli.import_s": trace["import_s"],
        "experiments.parse_spec_s": total["experiments.parse_spec"],
        "experiments.self_s": own["experiments.run_experiment"],
        "rates.self_s": own["rates.c_net"] + own["rates.c_sum_lb"] + own["rates.c_wt_net"],
        "rates.moment_requests": calls["rates.moment_request"],
        "rates.c_sum_lb_calls": calls["rates.c_sum_lb"],
        "moments.eta_calls": calls["moments.eta"],
        "moments.eta_s": total["moments.eta"],
        "moments.weighted_calls": calls["moments.weighted"],
        "moments.weighted_s": total["moments.weighted"],
        "moments.kernel_self_s": own["moments.compute"] + own["moments.weighted"],
        "moments.pool_starts": calls["moments.pool"],
        "moments.pool_wait_s": sum(spans[i][2] - spans[i][1] for i in pooled),
        "moments.singular_draws": trace["counts"].get("moments.singular_draws", 0),
        "moments.cache_load_s": total["moments.cache_load"],
        "moments.cache_self_s": own["moments.cache"],
        "moments.cache_hits": hits,
        "moments.cache_misses": misses,
        "moments.cache_hit_ratio": hits / (hits + misses) if hits + misses else 0.0,
        "moments.cache_bytes": cache_bytes,
        "channel_model.draw_calls": draws,
        "channel_model.draw_s": draw_s,
        "power_opt.waterfill_calls": calls["power_opt.waterfill"],
        "power_opt.waterfill_s": total["power_opt.waterfill"],
    }


def traced_metrics(proc: Proc) -> dict[str, float]:
    return layer_metrics(json.loads(proc.trace.read_text()), proc.cache_bytes)


# ---------------------------------------------------------------------------
# One invocation
# ---------------------------------------------------------------------------


def run_checks(runner: Runner, csvs: list[bytes]) -> dict:
    """check.py on each distinct CSV, in one process after the timed runs."""
    paths = []
    for i, data in enumerate(csvs):
        paths.append(runner.work / f"check-{i}.csv")
        paths[-1].write_bytes(data)
    done = subprocess.run([sys.executable, str(HERE / "check.py"), str(runner.spec.path),
                           str(runner.seed), *map(str, paths)],
                          cwd=ROOT, env=program_env(), capture_output=True, text=True,
                          timeout=PROCESS_TIMEOUT_S)
    if done.returncode != 0:
        raise RuntimeError(f"check.py exited {done.returncode}: {done.stderr.strip()}")
    return json.loads(done.stdout.splitlines()[-1])


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    wl = WORKLOADS[name]
    spec = SweepSpec(HERE / "specs" / wl.spec)
    cells = len(spec.cells)
    work = OUT / "work" / f"{name}-s{seed}-t{int(trace)}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    runner = Runner(work, spec, seed)
    problems: list[str] = []  # run-level failures: the result is not correct
    try:
        # untimed: the directory that warm runs reread, or the --workers 1
        # run whose CSV bytes every --workers 2 run must reproduce
        warm_dir = work / "warm" if wl.warm else None
        if wl.warm:
            reference = runner.tddmimo(wl.workers, out=warm_dir)
        elif wl.workers > 1:
            reference = runner.tddmimo(1)
        else:
            reference = None
        if reference is not None and reference.rc != 0:
            problems.append(f"reference run exited {reference.rc}: {log_tail(reference)}")
            reference = None

        probe_dir = warm_dir or work / "probe"
        probe_dir.mkdir(exist_ok=True)

        # set-up probes are spread over the run like the program runs, so
        # that both see the same spells of a busy host
        probes: list[Proc] = []
        plain: list[Proc] = []
        traced: list[Proc] = []
        serial: list[Proc] = []  # traced at --workers 1 (SERIAL_LAYER_METRICS)
        t_start = time.perf_counter()
        while (elapsed := time.perf_counter() - t_start) < seconds or not plain:
            if len(probes) < SETUP_PROBES and len(probes) <= SETUP_PROBES * elapsed / seconds:
                probes.append(runner.setup_probe(probe_dir))
            plain.append(runner.tddmimo(wl.workers, out=warm_dir))
            if trace:
                traced.append(runner.tddmimo(wl.workers, out=warm_dir, traced=True))
                if not wl.warm and wl.workers > 1:
                    serial.append(runner.tddmimo(1, traced=True))
        runs = plain + traced + serial
        problems += [f"setup probe exited {p.rc}: {log_tail(p)}" for p in probes if p.rc]

        # checks, all after the timed region
        ref_csv = reference.csv if reference else None
        distinct = [c for c in dict.fromkeys([ref_csv, *(p.csv for p in runs)]) if c is not None]
        checked = run_checks(runner, distinct)
        verdict = dict(zip(distinct, checked["rows"]))
        problems += [f"oracle self-test: {p}" for p in checked["self_test"]]
        if reference is not None and (ref_csv is None or any(verdict[ref_csv])):
            problems.append("reference run: no CSV, or cells fail their checks")
        notes: list[str] = []
        failed_in: list[int] = []  # per run
        for i, proc in enumerate(runs, start=1):
            data = proc.csv
            if proc.rc != 0 or data is None:
                failed_in.append(cells)
                notes.append(f"run {i}: exit {proc.rc}{', no CSV' if data is None else ''}: "
                             f"{log_tail(proc)}")
                continue
            whole = []
            if ref_csv is not None and data != ref_csv:
                whole.append("CSV bytes differ from the reference run")
            if wl.warm and proc.manifest.get("cache_misses") != "0":
                whole.append("warm rerun sampled: cache_misses != 0")
            reasons = [whole + r for r in verdict[data]]
            failed_in.append(sum(1 for r in reasons if r))
            notes += [f"run {i} cell {spec.cells[k]}: {'; '.join(r)}"
                      for k, r in enumerate(reasons) if r]

        # metrics over the runs of this invocation.  The host's speed drifts
        # in spells of seconds, so the runs' times are a mixture of a fast and
        # a slow mode; their mean, the time per run over the whole invocation,
        # moves less from one invocation to the next than their median does.
        if trace:
            layers = [traced_metrics(p) for p in traced if p.rc == 0]
            layers_serial = [traced_metrics(p) for p in serial if p.rc == 0]
            if not layers or (serial and not layers_serial):
                raise RuntimeError("no traced process completed")
            metrics = {}
            for metric, unit in PER_LAYER.items():
                if metric == "trace.overhead_s":
                    value = median([p.wall_s for p in traced]) - median([p.wall_s for p in plain])
                else:
                    source = layers_serial if metric in SERIAL_LAYER_METRICS and serial else layers
                    value = median([m[metric] for m in source])
                metrics[metric] = {"value": value, "unit": unit}
        else:
            values = {"wall_s": fmean([p.wall_s for p in plain]),
                      "cpu_s": fmean([p.cpu_s for p in plain]),
                      "setup_s": median([p.wall_s for p in probes]),
                      "peak_rss_mb": fmean([p.rss_mib for p in plain])}
            metrics = {k: {"value": v, "unit": END_TO_END[k]} for k, v in values.items()}
        attempted, failed = cells * len(runs), sum(failed_in)
        result = {"correct": not problems, "attempted": attempted, "failed": failed,
                  "metrics": metrics}

        # report: every run, every metric, the failures, and the full record
        print(f"workload {name} seed={seed} trace={int(trace)}: {len(plain)} plain runs"
              + (f", {len(traced) + len(serial)} traced" if trace else ""))
        for i, (proc, n_failed) in enumerate(zip(runs, failed_in), start=1):
            kind = "plain" if i <= len(plain) else "traced"
            print(f"  run {i:2d} {kind:6s} exit={proc.rc} wall={proc.wall_s:.4f}s "
                  f"cpu={proc.cpu_s:.4f}s rss={proc.rss_mib:.1f}MiB "
                  f"cells={cells} failed={n_failed}")
        print("  setup probes: " + " ".join(f"{p.wall_s:.4f}s" for p in probes))
        for metric, entry in metrics.items():
            if trace:
                n = len(serial) if metric in SERIAL_LAYER_METRICS and serial else len(traced)
                how = f"median of {n} traced runs"
            elif metric == "setup_s":
                how = f"median of {len(probes)} probes"
            else:
                attr = {"wall_s": "wall_s", "cpu_s": "cpu_s", "peak_rss_mb": "rss_mib"}[metric]
                how = (f"mean of {len(plain)} runs,"
                       f" median {median([getattr(p, attr) for p in plain]):.6g}")
            print(f"  {metric:28s} {entry['value']:<12.6g} {entry['unit']:6s} {how}")
        print(f"  attempted={attempted} failed={failed} correct={result['correct']}")
        for note in (problems + notes)[:20]:
            print(f"  FAIL {note}", file=sys.stderr)

        record = {"workload": name, "seed": seed, "seconds": seconds, "trace": int(trace),
                  "machine": {**checked["machine"], "thread_env": {v: "1" for v in THREAD_VARS}},
                  "result": result, "problems": problems, "cell_failures": notes,
                  "setup_probes_s": [p.wall_s for p in probes],
                  "runs": [{"kind": "plain" if i < len(plain) else "traced",
                            "rc": p.rc, "wall_s": p.wall_s, "cpu_s": p.cpu_s,
                            "rss_mib": p.rss_mib, "cells": cells, "failed": n_failed}
                           for i, (p, n_failed) in enumerate(zip(runs, failed_in))]}
        results = OUT / "results"
        results.mkdir(parents=True, exist_ok=True)
        (results / f"{name}-seed{seed}-trace{int(trace)}.json").write_text(
            json.dumps(record, indent=1))
        return result
    finally:
        shutil.rmtree(work, ignore_errors=True)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be nonnegative")
    if not (ROOT / "src" / "tddmimo" / "__init__.py").is_file():
        print(f"perfbench: no tddmimo sources under {ROOT / 'src'}; "
              "run it from the root of a checkout", file=sys.stderr)
        return 2
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    results = {n: run_workload(n, args.seed, args.seconds, bool(args.trace)) for n in names}
    print(json.dumps(results if args.workload == "all" else results[args.workload]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
