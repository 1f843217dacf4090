import dataclasses
import json
import os
import signal
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import tddmimo
from tddmimo import moments, rates
from tddmimo.cli import main
from tddmimo.experiments import (PRESETS, ExperimentSpec, SpecValidationError,
                                 check_feasibility, parse_spec, run_experiment)
from tddmimo.rates import MomentSource


def test_parse_preset_defaults():
    spec = parse_spec("preset=fig3\n")
    assert spec.t_list == [20, 30]
    assert spec.schemes == [0, 1]
    assert spec.m_list == [2, 4, 6, 8, 10, 12, 14, 16]


def test_parse_overrides_and_lists():
    spec = parse_spec("preset=fig2\nM=4\nM=8\nsamples=500\nseed=9\n")
    assert spec.m_list == [4, 8]
    assert spec.samples == 500
    assert spec.seed == 9


def test_validation_collects_all_violations():
    text = "preset=custom\nM=4\nK=6\ntau_rp=9\nT=10\nrho_f_db=0\nrho_r_db=-10\nbogus=1\n"
    with pytest.raises(SpecValidationError) as exc:
        parse_spec(text)
    messages = "\n".join(exc.value.violations)
    assert "unknown key 'bogus'" in messages
    assert "K <= tau_rp" not in messages  # K=6 <= tau_rp=9 holds
    assert "K <= min(M, tau_rp)" in messages
    assert "custom does not read key 'T'" in messages


def test_validation_k_exceeds_tau():
    text = "preset=custom\nM=8\nK=5\ntau_rp=3\nrho_f_db=0\nrho_r_db=-10\n"
    with pytest.raises(SpecValidationError) as exc:
        parse_spec(text)
    assert any("K <= tau_rp" in v for v in exc.value.violations)


def test_feasibility_requires_sinr_source():
    spec = ExperimentSpec(preset="custom", m_list=[4], k_list=[2])
    assert any("rho_r_db" in v for v in check_feasibility(spec))


def test_custom_single_cell_run(tmp_path):
    spec = parse_spec("preset=custom\nscheme=1\nM=4\nK=2\n"
                      "rho_f_db=0\nrho_r_db=-10\nsamples=1000\nseed=2\n")
    manifest = run_experiment(spec, tmp_path)
    csv = (tmp_path / spec.output).read_text().splitlines()
    assert csv[0] == "scheme,M,K,tau_rp,N_star,rate,std_error,status"
    assert len(csv) == 2 and csv[1].endswith(",ok")
    assert manifest["rows"] == 1
    assert manifest["moments_version"] == tddmimo.MomentCache.VERSION
    assert manifest["tddmimo_version"] == tddmimo.__version__
    assert manifest["numpy_version"] == np.__version__
    assert (tmp_path / "run_manifest.txt").exists()
    assert len(tddmimo.MomentCache(tmp_path / "moments_cache")) > 0


def test_csv_number_format(tmp_path):
    spec = parse_spec("preset=custom\nscheme=1\nM=4\nK=2\n"
                      "rho_f_db=0\nrho_r_db=-10\nsamples=1000\nseed=2\n")
    run_experiment(spec, tmp_path)
    row = (tmp_path / spec.output).read_text().splitlines()[1].split(",")
    rate = row[5]
    assert rate == format(float(rate), ".9g")


def test_rerun_is_bit_exact(tmp_path):
    text = ("preset=custom\nM=4\nK=2\nrho_f_db=0\nrho_r_db=-10\n"
            "samples=1000\nseed=5\n")
    spec = parse_spec(text)
    run_experiment(spec, tmp_path / "a", workers=1)
    run_experiment(parse_spec(text), tmp_path / "b", workers=2)
    a = (tmp_path / "a" / spec.output).read_bytes()
    b = (tmp_path / "b" / spec.output).read_bytes()
    assert a == b


def test_evaluator_error_fails_run(tmp_path):
    # a valid spec makes no request raise, so each spec is changed after
    # parsing; the run stops at the library's ValueError and writes no CSV
    spec = parse_spec("preset=fig3\nT=3\nM=2\nsamples=500\n")
    spec.t_list = [2, 3]
    fig5 = parse_spec("preset=fig5\nM=8\nsamples=100\n")
    fig5.t_list = [9]
    custom = parse_spec(CUSTOM_SPEC)
    custom.tau_rp = 2
    expected = [
        (spec, "net rate needs T >= 3, got T=2"),
        (fig5, "weighted net rate needs T >= K + 2, got T=9, K=8"),
        (custom, "orthonormal pilots require K <= tau_rp, got K=3, tau_rp=2"),
    ]
    for case, message in expected:
        out = tmp_path / case.preset
        with pytest.raises(ValueError) as exc:
            run_experiment(case, out)
        assert str(exc.value) == message
        assert not (out / case.output).exists()
        assert not (out / "run_manifest.txt").exists()


def test_cli_run_and_exit_codes(tmp_path, capsys):
    spec_file = tmp_path / "spec.txt"
    spec_file.write_text("preset=custom\nM=4\nK=2\n"
                         "rho_f_db=0\nrho_r_db=-10\nseed=1\n")
    out = tmp_path / "out"
    code = main(["run", "--spec", str(spec_file), "--out", str(out),
                 "--samples", "500"])
    assert code == 0
    assert (out / "custom_sum_bound.csv").exists()
    captured = capsys.readouterr()
    assert "cache_misses" in captured.out

    code = main(["cache-info", "--out", str(out)])
    assert code == 0
    assert "records" in capsys.readouterr().out

    bad = tmp_path / "bad.txt"
    bad.write_text("preset=custom\nM=2\nK=4\nrho_f_db=0\nrho_r_db=0\n")
    assert main(["validate", "--spec", str(bad)]) == 1
    assert main(["validate", "--spec", str(spec_file)]) == 0
    assert main(["run", "--spec", str(tmp_path / "missing.txt")]) == 2


def test_spec_not_utf8_exits_2(tmp_path, capsys):
    spec_file = tmp_path / "spec.txt"
    spec_file.write_bytes(b"preset=fig2\nM=4\n# \xff\n")
    out = tmp_path / "out"
    for argv in (["validate"], ["run", "--out", str(out)]):
        assert main(argv + ["--spec", str(spec_file)]) == 2
        assert capsys.readouterr().err.startswith("error: cannot read spec: 'utf-8' codec")
    assert not out.exists()


def _custom_rows(tmp_path, samples):
    spec_file = tmp_path / "spec.txt"
    spec_file.write_text("preset=custom\nscheme=0\nscheme=1\nM=4\nK=2\n"
                         "rho_f_db=0\nrho_r_db=-10\nseed=2\n")
    out = tmp_path / f"out{samples}"
    assert main(["run", "--spec", str(spec_file), "--out", str(out),
                 "--samples", str(samples)]) == 0
    return [row.split(",") for row in (out / "custom_sum_bound.csv").read_text().splitlines()[1:]]


def test_one_sample_has_no_standard_error(tmp_path):
    # one draw is one jackknife group: its spread is unknown, not zero
    rows = _custom_rows(tmp_path, 1)
    assert [row[6] for row in rows] == ["nan", "nan"]
    assert all(np.isfinite(float(row[5])) for row in rows)


def test_few_samples_give_a_delete_one_jackknife(tmp_path):
    # with fewer draws than groups, each draw is its own group
    samples = 5
    row = _custom_rows(tmp_path, samples)[1]  # scheme 1: the N best of K = 2
    n = int(row[4])
    vals = moments.eta_samples(4, 2, samples, seed=2)[:, n - 1]
    held_out = np.array([n * tddmimo.c_ind_lb_scheduled(1.0, 0.1, 2, np.mean(rest), np.var(rest))
                         for rest in (np.delete(vals, i) for i in range(samples))])
    expected = np.sqrt((samples - 1) / samples * np.sum((held_out - held_out.mean()) ** 2))
    assert float(row[6]) == pytest.approx(expected, rel=1e-8)
    assert float(row[5]) == pytest.approx(
        n * tddmimo.c_ind_lb_scheduled(1.0, 0.1, 2, np.mean(vals), np.var(vals)), rel=1e-8)


def test_seed_and_quick_overrides(tmp_path):
    spec_file = tmp_path / "spec.txt"
    spec_file.write_text("preset=custom\nM=4\nK=2\n"
                         "rho_f_db=0\nrho_r_db=-10\nseed=1\nsamples=777\n")
    out = tmp_path / "out"
    assert main(["run", "--spec", str(spec_file), "--out", str(out),
                 "--seed", "42", "--samples", "600"]) == 0
    manifest = dict(line.split("=", 1) for line in
                    (out / "run_manifest.txt").read_text().splitlines())
    assert manifest["seed"] == "42"
    assert manifest["samples"] == "600"


@pytest.mark.parametrize("spec_line,override,samples", [
    ("samples=0", ["--samples", "100"], "100"),  # a replaced value is not checked
], ids=["replaced-samples"])
def test_overrides_replace_spec_values(tmp_path, spec_line, override, samples):
    spec_file = tmp_path / "spec.txt"
    spec_file.write_text(f"preset=custom\nM=4\nK=2\nrho_f_db=0\nrho_r_db=-10\n{spec_line}\n")
    out = tmp_path / "out"
    assert main(["run", "--spec", str(spec_file), "--out", str(out)] + override) == 0
    assert _manifest(out)["samples"] == samples


def test_runtime_error_exits_2(tmp_path, capsys):
    spec_file = tmp_path / "spec.txt"
    spec_file.write_text(CUSTOM_SPEC)
    out = tmp_path / "out"
    out.write_text("a file, not a directory\n")
    assert main(["run", "--spec", str(spec_file), "--out", str(out)]) == 2
    assert "runtime error: " in capsys.readouterr().err


def test_cache_info_without_cache(tmp_path, capsys):
    assert main(["cache-info", "--out", str(tmp_path)]) == 0
    version = tddmimo.MomentCache.VERSION.rpartition(" ")[2]
    assert capsys.readouterr().out == f"no cache at {tmp_path / 'moments_cache' / version}\n"
    assert not (tmp_path / "moments_cache").exists()


def test_fig5_at_extreme_reverse_sinr(tmp_path):
    # at -200 dB 1 + alpha/beta rounds to alpha/beta; waterfilling keeps the
    # best user, and a rate of about 0 is reported
    spec_file = tmp_path / "spec.txt"
    spec_file.write_text("preset=fig5\nM=8\nT=20\nrho_r_offset_db=-200\nsamples=100\nseed=1\n")
    out = tmp_path / "out"
    assert main(["run", "--spec", str(spec_file), "--out", str(out)]) == 0
    rows = [row.split(",") for row in
            (out / "fig5_weighted_net_rate.csv").read_text().splitlines()[1:]]
    assert [row[-1] for row in rows] == ["ok", "ok"]
    assert all(0.0 <= float(row[4]) < 1e-12 for row in rows)


def test_truncated_cache_recovers(tmp_path, capsys):
    spec_file = tmp_path / "spec.txt"
    # scheme 0 needs eta for K = 1, 2, 3 at M = 4; scheme 1 reuses K = 3
    spec_file.write_text("preset=custom\nscheme=0\nscheme=1\nM=4\nK=3\n"
                         "rho_f_db=0\nrho_r_db=-10\nseed=3\nsamples=300\n")
    out = tmp_path / "out"
    run = ["run", "--spec", str(spec_file), "--out", str(out)]
    assert main(run) == 0
    first = (out / "custom_sum_bound.csv").read_bytes()
    cache = tddmimo.MomentCache(out / "moments_cache")
    record = cache._file(tddmimo.MomentKey("eta", 4, 3, "-", 300, 3))
    whole = record.read_bytes()
    record.write_bytes(whole[:-5])  # cut short
    capsys.readouterr()

    with pytest.warns(UserWarning, match="unreadable, recomputing"):
        assert main(run) == 0
    assert "cache_misses=1" in capsys.readouterr().out
    assert record.read_bytes() == whole
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(run) == 0
    assert "cache_misses=0" in capsys.readouterr().out
    assert (out / "custom_sum_bound.csv").read_bytes() == first

    assert main(["cache-info", "--out", str(out)]) == 0
    assert capsys.readouterr().out == f"cache: {cache.dir}\nrecords: 3\n  eta: 3\n"


@pytest.mark.parametrize("offset,byte", [(8, 0x01), (21, ord(",")), (26, ord("B"))],
                         ids=["TokenError", "SyntaxError", "TypeError"])
def test_corrupt_record_header_recovers(tmp_path, capsys, offset, byte):
    # one byte of the first array's header, which numpy's parser rejects
    # with no ValueError: a header length of 1, a descr of ',u1' and a stray
    # B before 'fortran_order'
    spec_file = tmp_path / "spec.txt"
    spec_file.write_text(CUSTOM_SPEC)
    out = tmp_path / "out"
    run = ["run", "--spec", str(spec_file), "--out", str(out)]
    assert main(run) == 0
    cache = tddmimo.MomentCache(out / "moments_cache")
    key = tddmimo.MomentKey("eta", 4, 3, "-", 300, 4)
    record = cache._file(key)
    whole = record.read_bytes()
    assert whole[offset] != byte
    record.write_bytes(whole[:offset] + bytes([byte]) + whole[offset + 1:])
    with pytest.warns(UserWarning, match="unreadable, recomputing"):
        assert cache._read(key) is None
    capsys.readouterr()
    with pytest.warns(UserWarning, match="unreadable, recomputing"):
        assert main(run) == 0
    assert "cache_misses=1" in capsys.readouterr().out
    assert record.read_bytes() == whole


CUSTOM_SPEC = ("preset=custom\nscheme=0\nscheme=1\nM=4\nK=2\nK=3\n"
               "rho_f_db=0\nrho_r_db=-10\nseed=4\nsamples=300\n")
FIG5_SPEC = ("preset=fig5\nscheme=2\nscheme=3\nM=8\nK=8\nT=13\n"
             "rho_f_db=-4, -3, -2, -1, 0, 1, 2, 3\nrho_r_offset_db=-10\n"
             "weight=2, 2, 2, 2, 1, 1, 1, 1\nseed=4\nsamples=100\n")
ROOT = Path(__file__).resolve().parents[1]


def _manifest_text(text):
    return dict(line.split("=", 1) for line in text.splitlines())


def _manifest(out):
    return _manifest_text((out / "run_manifest.txt").read_text())


def _subprocess_env():
    src = str(Path(tddmimo.__file__).resolve().parents[1])
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return env


@pytest.mark.parametrize("override,message", [
    (["--samples", "0"], "samples must be positive"),
    (["--samples", "-4"], "samples must be positive"),
    (["--seed", "-1"], "seed must be a nonnegative integer"),
    (["--workers", "0"], "workers must be at least 1"),
    (["--seed", str(2**64)], "seed must be below 2**64"),
])
def test_invalid_overrides_exit_1(tmp_path, capsys, override, message):
    spec_file = tmp_path / "spec.txt"
    spec_file.write_text(CUSTOM_SPEC)
    out = tmp_path / "out"
    assert main(["run", "--spec", str(spec_file), "--out", str(out)] + override) == 1
    assert f"invalid spec: {message}" in capsys.readouterr().err
    assert not out.exists()


def test_stale_cache_version_recovers(tmp_path, capsys):
    # a v8 cache file and an older version's directory (v9) are left as they
    # are and never read, so the run samples every statistic without a warning
    spec_file = tmp_path / "spec.txt"
    spec_file.write_text(CUSTOM_SPEC)
    out = tmp_path / "out"
    (out / "moments_cache" / "v9").mkdir(parents=True)
    name = tddmimo.MomentCache(out / "moments_cache")._file(
        tddmimo.MomentKey("eta", 4, 3, "-", 300, 4)).name
    leftovers = {out / "moments_cache.txt": b"tddmimo-moments-cache v8\n\neta,4,3,-,300,4\n",
                 out / "moments_cache" / "v9" / name: b"garbage"}
    for leftover, data in leftovers.items():
        leftover.write_bytes(data)
    run = ["run", "--spec", str(spec_file), "--out", str(out)]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(run) == 0
        assert "cache_misses=3" in capsys.readouterr().out
        first = (out / "custom_sum_bound.csv").read_bytes()
        assert main(run) == 0
    assert "cache_misses=0" in capsys.readouterr().out
    assert (out / "custom_sum_bound.csv").read_bytes() == first
    assert all(leftover.read_bytes() == data for leftover, data in leftovers.items())
    assert sorted(os.listdir(out / "moments_cache")) == sorted(
        ["v9", tddmimo.MomentCache.VERSION.rpartition(" ")[2]])


def test_manifest_counts_singular_draws_once(tmp_path):
    spec_file = tmp_path / "spec.txt"
    spec_file.write_text(CUSTOM_SPEC)
    out = tmp_path / "out"
    run = ["run", "--spec", str(spec_file), "--out", str(out)]
    assert main(run) == 0
    assert _manifest(out)["singular_events"] == "0"
    # eta(M=4, K=2) serves scheme 0 at K=2 (N=2) and K=3 (N=2) and scheme 1 at
    # K=2; its record is rewritten with one singular draw
    cache = tddmimo.MomentCache(out / "moments_cache")
    key = tddmimo.MomentKey("eta", 4, 2, "-", 300, 4)
    cache._write(key, dataclasses.replace(cache._read(key), singular_events=1))
    assert main(run) == 0
    manifest = _manifest(out)
    assert manifest["cache_misses"] == "0" and manifest["cache_hits"] == "3"
    assert manifest["singular_events"] == "1"


def test_concurrent_writers_share_one_cache(tmp_path):
    # three writer processes, more than a 2-CPU machine runs at once
    spec_file = tmp_path / "spec.txt"
    spec_file.write_text(FIG5_SPEC)
    out = tmp_path / "out"
    run = [sys.executable, "-m", "tddmimo.cli", "run", "--spec", str(spec_file)]
    procs = [subprocess.Popen(run + ["--out", str(out)], env=_subprocess_env(),
                              stdout=subprocess.PIPE, stderr=subprocess.PIPE)
             for _ in range(3)]
    misses = 0
    for proc in procs:
        out_text, err = proc.communicate(timeout=300)
        assert proc.returncode == 0, err.decode()
        assert b"Warning" not in err, err.decode()
        misses += int(_manifest_text(out_text.decode())["cache_misses"])
    alone = tmp_path / "alone"
    assert main(["run", "--spec", str(spec_file), "--out", str(alone)]) == 0
    expected = tddmimo.MomentCache(alone / "moments_cache")
    shared = tddmimo.MomentCache(out / "moments_cache")
    assert expected.kind_counts()["weighted"] == len(expected) > 1
    # one file per distinct statistic, and no temporary file left behind
    assert sorted(os.listdir(shared.dir)) == sorted(os.listdir(expected.dir))
    assert len(expected) <= misses <= 3 * len(expected)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["run", "--spec", str(spec_file), "--out", str(out)]) == 0
    assert _manifest(out)["cache_misses"] == "0"
    csv = "fig5_weighted_net_rate.csv"
    assert (out / csv).read_bytes() == (alone / csv).read_bytes()


def _buffered_env():
    """_subprocess_env with stdout block-buffered on a pipe: nothing printed
    reaches the pipe unless `cli.entry` flushes before its `os._exit`."""
    env = _subprocess_env()
    env.pop("PYTHONUNBUFFERED", None)
    return env


def _cli_process(args, **kwargs):
    """`python -m tddmimo.cli` in its own process, stdout a pipe by default."""
    kwargs.setdefault("stdout", subprocess.PIPE)
    return subprocess.run([sys.executable, "-m", "tddmimo.cli", *args], env=_buffered_env(),
                          stderr=subprocess.PIPE, text=True, timeout=300, **kwargs)


def _tree_bytes(directory):
    return {path.relative_to(directory): path.read_bytes()
            for path in sorted(directory.rglob("*")) if path.is_file()}


def test_process_exit_codes_through_the_hard_exit(tmp_path, capsys):
    spec_file = tmp_path / "spec.txt"
    spec_file.write_text(FIG5_SPEC)
    out, alone = tmp_path / "out", tmp_path / "alone"
    run = ["run", "--spec", str(spec_file), "--seed", "6"]
    proc = _cli_process(run + ["--out", str(out)])
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == (out / "run_manifest.txt").read_text().splitlines()
    # the same files as a run that returns from main in this process
    assert main(run + ["--out", str(alone)]) == 0
    capsys.readouterr()
    csv = "fig5_weighted_net_rate.csv"
    assert (out / csv).read_bytes() == (alone / csv).read_bytes()
    records = _tree_bytes(out / "moments_cache")
    assert records and records == _tree_bytes(alone / "moments_cache")
    manifest, expected = _manifest(out), _manifest(alone)
    del manifest["wall_time_s"], expected["wall_time_s"]
    assert manifest == expected

    bad = tmp_path / "bad.txt"
    bad.write_text("preset=custom\nM=2\nK=4\nrho_f_db=0\nrho_r_db=0\n")
    invalid = ["run", "--spec", str(bad), "--out", str(tmp_path / "bad"), "--workers", "0"]
    assert main(invalid) == 1
    violations = capsys.readouterr().err
    assert violations.count("invalid spec: ") > 1
    proc = _cli_process(invalid)
    assert (proc.returncode, proc.stdout, proc.stderr) == (1, "", violations)
    assert not (tmp_path / "bad").exists()

    proc = _cli_process(["run", "--spec", str(tmp_path / "missing.txt")])
    assert proc.returncode == 2
    assert proc.stderr.startswith("error: cannot read spec: ")


# `python -m tddmimo.cli validate --spec SPEC`, with an atexit handler
ENTRY_PROBE = """
import atexit, runpy, sys
atexit.register(print, "teardown ran", file=sys.stderr)
sys.argv[1:] = ["validate", "--spec", sys.argv[1]]
runpy.run_module("tddmimo.cli", run_name="__main__", alter_sys=True)
"""


def test_entry_ends_the_process_without_teardown():
    proc = subprocess.run([sys.executable, "-c", ENTRY_PROBE,
                           str(ROOT / "perfbench" / "specs" / "homog.txt")],
                          env=_buffered_env(), capture_output=True, text=True, timeout=120)
    assert (proc.returncode, proc.stderr) == (0, "")
    assert proc.stdout == "spec ok: preset=fig3, output=fig3_net_rate.csv\n"


def test_lost_stdout_exits_the_normal_way(tmp_path):
    # the flush fails on a pipe without a reader, so the process exits the
    # normal way, and teardown's failed flush makes the status 120
    read, write = os.pipe()
    os.close(read)
    try:
        proc = _cli_process(["validate", "--spec", str(ROOT / "perfbench" / "specs" / "homog.txt")],
                            stdout=write)
    finally:
        os.close(write)
    assert proc.returncode == 120
    assert "BrokenPipeError" in proc.stderr


@pytest.mark.parametrize("spec_text,waterfills,workers", [
    (CUSTOM_SPEC, 0, 1),
    (FIG5_SPEC, 8, 1),
    ("preset=fig3\nT=5\nM=2\nseed=4\nsamples=200\n", 0, 1),
    (f"preset=fig3\nT=5\nM=2\nseed=4\nsamples={moments.CHUNK + 52}\n", 0, 2),
], ids=["custom", "fig5", "fig3", "fig3-workers-2"])
def test_traced_benchmark_entry_point_runs(tmp_path, spec_text, waterfills, workers):
    # perfbench/traced.py wraps module-level names of the library; a rename
    # there breaks the benchmark's per-layer metrics
    spec_file = tmp_path / "spec.txt"
    spec_file.write_text(spec_text)
    trace = tmp_path / "trace.json"
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "traced.py"), str(trace), "run",
         "--spec", str(spec_file), "--out", str(tmp_path / "out"), "--workers", str(workers)],
        env=_subprocess_env(), capture_output=True, timeout=300)
    assert proc.returncode == 0, proc.stderr.decode()
    spans = json.loads(trace.read_text())["spans"]
    names = {span[0] for span in spans}
    assert {"moments.cache", "moments.compute"} <= names
    # every statistic is looked up by the run itself, not inside a search
    assert all(spans[span[3]][0] == "experiments.run_experiment"
               for span in spans if span[0] == "moments.cache")
    # fig5 waterfills once per (cell, tau): 2 cells x 4 tau
    assert sum(span[0] == "power_opt.waterfill" for span in spans) == waterfills
    # one pool for the whole run, opened and closed inside run_experiment
    pools = [span for span in spans if span[0] == "moments.pool"]
    assert len(pools) == (workers > 1)
    assert all(spans[span[3]][0] == "experiments.run_experiment" for span in pools)


@pytest.fixture
def pool_calls(monkeypatch):
    """(built, submitted): the process pools that runs build and the tasks
    passed to their `map`."""
    built, submitted = [], []

    class CountingPool(moments.ProcessPoolExecutor):
        def __init__(self, *args, **kwargs):
            built.append(self)
            super().__init__(*args, **kwargs)

        def map(self, fn, tasks):
            tasks = list(tasks)
            submitted.extend(tasks)
            return super().map(fn, tasks)

    monkeypatch.setattr(moments, "ProcessPoolExecutor", CountingPool)
    return built, submitted


def test_one_pool_per_run(tmp_path, pool_calls):
    built, submitted = pool_calls
    spec_file = tmp_path / "spec.txt"
    # three eta statistics (M=4, K=1, 2, 3), named by the cells' requests and
    # sampled in one pass of three blocks, the last partial
    spec_file.write_text(CUSTOM_SPEC.replace("samples=300", f"samples={2 * moments.CHUNK + 17}"))
    run = ["run", "--spec", str(spec_file)]
    assert main(run + ["--out", str(tmp_path / "serial")]) == 0
    assert not built
    assert main(run + ["--out", str(tmp_path / "out"), "--workers", "2"]) == 0
    assert _manifest(tmp_path / "out")["cache_misses"] == "3"
    assert len(built) == 1 and len(submitted) == 3
    csv = "custom_sum_bound.csv"
    assert (tmp_path / "out" / csv).read_bytes() == (tmp_path / "serial" / csv).read_bytes()
    submitted.clear()
    assert main(run + ["--out", str(tmp_path / "out"), "--workers", "2"]) == 0
    assert _manifest(tmp_path / "out")["cache_misses"] == "0"
    assert not submitted


def test_no_pool_when_every_statistic_is_one_block(tmp_path, pool_calls):
    # a pool is built only when a run's misses are more than one (M, block)
    # task: one task or a warm rerun would pay only for its import
    built, submitted = pool_calls
    csv = "custom_sum_bound.csv"
    cases = [(moments.CHUNK, "M=4", 0), (moments.CHUNK + 1, "M=4", 1),
             (moments.CHUNK, "M=3\nM=4", 1)]
    for samples, m_lines, pools in cases:
        spec_file = tmp_path / "spec.txt"
        spec_file.write_text(CUSTOM_SPEC.replace("samples=300", f"samples={samples}")
                             .replace("M=4", m_lines))
        runs = {w: tmp_path / f"s{samples}-{m_lines[-1]}{len(m_lines)}-w{w}" for w in (1, 2)}
        for w, out in runs.items():
            assert main(["run", "--spec", str(spec_file), "--out", str(out),
                         "--workers", str(w)]) == 0
        assert len(built) == pools
        assert _manifest(runs[2])["workers"] == "2"
        assert (runs[2] / csv).read_bytes() == (runs[1] / csv).read_bytes()
        # a warm rerun samples nothing and builds no pool
        assert main(["run", "--spec", str(spec_file), "--out", str(runs[2]),
                     "--workers", "2"]) == 0
        assert _manifest(runs[2])["cache_misses"] == "0" and len(built) == pools
        # two blocks of one M, or one block of each of two M
        assert len(submitted) == 2 * pools
        built.clear()
        submitted.clear()


@pytest.mark.skipif(sys.platform != "linux", reason="the pool forks only on Linux")
@pytest.mark.parametrize("failure", ["raise", "kill"])
def test_worker_failure_exits_2(tmp_path, monkeypatch, capsys, failure):
    # a task that raises in a forked worker, or a worker killed by a signal,
    # ends the run with exit status 2 and leaves no child behind; two CPUs,
    # so that the three blocks go to a pool on any machine
    def block_sums(task):
        if failure == "raise":
            raise ValueError("the task failed")
        os.kill(os.getpid(), signal.SIGKILL)

    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    monkeypatch.setattr(moments, "_block_sums", block_sums)
    spec_file = tmp_path / "spec.txt"
    spec_file.write_text(CUSTOM_SPEC.replace("samples=300", f"samples={2 * moments.CHUNK + 17}"))
    assert main(["run", "--spec", str(spec_file), "--out", str(tmp_path / "out"),
                 "--workers", "2"]) == 2
    message = {"raise": "runtime error: the task failed",
               "kill": f"ended without a result (exit status {-signal.SIGKILL})"}[failure]
    assert message in capsys.readouterr().err
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


POOL_PROBE = """
import json, os, sys
import tddmimo.cli
from tddmimo import moments
os.sched_getaffinity = lambda pid: {0, 1}  # two CPUs, so that the run builds its pool
built = []
class CountingPool(moments.ProcessPoolExecutor):
    def __init__(self, size):
        built.append(size)
        super().__init__(size)
moments.ProcessPoolExecutor = CountingPool
rc = tddmimo.cli.main(sys.argv[1:])
print(json.dumps({"rc": rc, "pools": built, "modules": sorted(sys.modules)}))
"""


@pytest.mark.skipif(sys.platform != "linux", reason="the pool forks only on Linux")
def test_pool_run_loads_no_process_pool_stack(tmp_path):
    # the sampling workers are forked directly: a cold --workers 2 run that
    # samples three blocks on a pool of 2 loads neither multiprocessing nor
    # concurrent.futures, in a fresh interpreter
    spec_file = tmp_path / "spec.txt"
    spec_file.write_text(CUSTOM_SPEC.replace("samples=300", f"samples={2 * moments.CHUNK + 17}"))
    proc = subprocess.run([sys.executable, "-c", POOL_PROBE, "run", "--spec", str(spec_file),
                           "--out", str(tmp_path / "out"), "--workers", "2"],
                          env=_subprocess_env(), capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    loaded = json.loads(proc.stdout.splitlines()[-1])
    assert loaded["rc"] == 0 and loaded["pools"] == [2]
    assert _manifest(tmp_path / "out")["cache_misses"] == "3"
    assert [m for m in loaded["modules"]
            if m.partition(".")[0] in ("multiprocessing", "concurrent")] == []


# Specs whose requests cover every preset; fig5's waterfilling leaves 6 of its
# 8 users active at every tau, and with these weights 3 or 4, so one pass
# holds views of several K.
PLAN_SPECS = {
    "fig2": "preset=fig2\nM=2\nM=3\n",
    "fig3": "preset=fig3\nT=5\nT=20\nM=2\nM=4\n",
    "fig4": "preset=fig4\nM=4\nrho_f_db=-10,0\n",
    "fig5": "preset=fig5\nM=8\nT=13\n",
    "fig5-weights": "preset=fig5\nM=8\nM=9\nT=13\nweight=8,2,2,2,1,1,1,0.1\n",
    "custom": CUSTOM_SPEC.replace("seed=4\nsamples=300\n", ""),
}


def _requests(spec, source):
    """Each cell's (keys, finish), and the union of their keys in order."""
    preset = PRESETS[spec.preset]
    requests = [preset.request(spec, source, **cell) for cell in preset.cells(spec)]
    return requests, list(dict.fromkeys(key for keys, _ in requests for key in keys))


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("spec_text", PLAN_SPECS.values(), ids=PLAN_SPECS.keys())
def test_plan_is_exact(tmp_path, monkeypatch, spec_text, workers):
    # one fetch of every cell's keys, repeats included, samples each distinct
    # statistic once and returns one estimate per key
    spec = parse_spec(spec_text + f"seed=5\nsamples={moments.CHUNK + 1}\n")
    source = MomentSource(spec.samples, spec.seed, workers=workers)
    requests, plan = _requests(spec, source)
    assert len(plan) == len(set(plan)) > 0
    union = [key for keys, _ in requests for key in keys]
    assert len(union) > len(plan)
    estimates = source.fetch(union)
    assert (source.cache.hits, source.cache.misses) == (0, len(plan))
    assert all(est is source.fetch([key])[0] for key, est in zip(union, estimates))
    # a run samples the same keys, at either worker count, in one call,
    # probes each record path once, and runs each cell's search once (one
    # jackknife per reported rate)
    sampled, searches, opened = [], [], []
    sample, jackknife = rates.sample, rates._jackknife_se

    def counting_open(path, mode="r", *args):
        if mode == "rb":
            opened.append(path)
        return open(path, mode, *args)

    monkeypatch.setattr(rates, "sample", lambda keys, *a: sampled.append(keys) or sample(keys, *a))
    monkeypatch.setattr(rates, "_jackknife_se", lambda x: searches.append(x) or jackknife(x))
    monkeypatch.setattr(moments, "open", counting_open, raising=False)  # shadows the builtin
    manifest = run_experiment(spec, tmp_path, workers=workers)
    assert (manifest["cache_hits"], manifest["cache_misses"]) == (0, len(plan))
    assert [len(keys) for keys in sampled] == [len(plan)]
    assert len(searches) == manifest["rows"] == len(requests)
    records = tddmimo.MomentCache(tmp_path / "moments_cache")
    assert set(os.listdir(records.dir)) == {records._file(key).name for key in plan}
    assert sorted(opened) == sorted(map(records._file, plan))
    sampled.clear()
    opened.clear()
    manifest = run_experiment(spec, tmp_path, workers=workers)
    assert (manifest["cache_hits"], manifest["cache_misses"]) == (len(plan), 0)
    assert manifest["cache_hits"] == len(os.listdir(records.dir))
    # the warm rerun's one call of sample holds no key: it builds no pool
    assert sampled == [[]] and sorted(opened) == sorted(map(records._file, plan))


def test_hetero_spec_waterfills_once_per_cell_and_tau(tmp_path, monkeypatch):
    # 4 cells (schemes 2 and 3 at M = 8 and 16) x 11 tau (K = 8, T = 20):
    # each cell's request waterfills its taus, and nothing else does
    calls = []
    waterfill = rates.waterfill
    monkeypatch.setattr(rates, "waterfill", lambda *a: calls.append(a) or waterfill(*a))
    spec = parse_spec((ROOT / "perfbench" / "specs" / "hetero.txt").read_text(), seed=1)
    manifest = run_experiment(spec, tmp_path, workers=1)
    assert len(calls) == 44
    assert (manifest["cache_hits"], manifest["cache_misses"]) == (0, 22)


def test_request_outside_the_plan_is_sampled():
    # the cells of fig3 at T=5 name eta(4, K) for K <= 3; K = 4 and a
    # weighted statistic are sampled at their request, as without a run
    spec = parse_spec("preset=fig3\nT=5\nM=4\nseed=5\nsamples=300\n")
    source = MomentSource(spec.samples, spec.seed)
    _, plan = _requests(spec, source)
    assert sorted(key.K for key in plan) == [1, 2, 3]
    source.fetch(plan)
    eta = source.eta(4, 4)
    f, p = np.array([0.5, 1.5]), np.array([1.0, 2.0])
    weighted = source.weighted(f, p, 4)
    assert source.cache.misses == len(plan) + 2
    for a, b in ((eta, tddmimo.eta_moments(4, 4, 300, 5)),
                 (weighted, tddmimo.weighted_phi_stats(f, p, 4, 300, 5))):
        for name, value in vars(b).items():
            np.testing.assert_array_equal(getattr(a, name), value)


# imported by the process pool (multiprocessing and concurrent.futures.process)
# or for OpenSSL (hashlib and _hashlib): a run that builds no pool and draws
# nothing must load neither
HEAVY_MODULES = ("concurrent.futures.process", "multiprocessing", "hashlib", "_hashlib")
STARTUP_PROBE = """
import json, sys
import numpy
baseline = set(sys.modules)
import tddmimo.cli
imported = set(sys.modules)
rc = tddmimo.cli.main(sys.argv[1:])
print(json.dumps({"rc": rc, "import": sorted(imported - baseline),
                  "run": sorted(set(sys.modules) - baseline)}))
"""


@pytest.mark.parametrize("spec_text,workers", [
    (CUSTOM_SPEC, 1), (FIG5_SPEC, 1),
    (CUSTOM_SPEC.replace("samples=300", f"samples={2 * moments.CHUNK + 17}"), 2),
], ids=["custom", "fig5", "custom-workers-2-above-chunk"])
def test_startup_loads_no_pool_or_openssl(tmp_path, spec_text, workers):
    # a fresh interpreter, measured against what `import numpy` alone loads
    # in it (numpy 1.24 imports numpy.random and with it hashlib eagerly).
    # The run is warm: with nothing to sample, --workers 2 builds no pool
    spec_file = tmp_path / "spec.txt"
    spec_file.write_text(spec_text)
    run = ["run", "--spec", str(spec_file), "--out", str(tmp_path / "out"),
           "--workers", str(workers)]
    assert main(run) == 0
    proc = subprocess.run([sys.executable, "-c", STARTUP_PROBE, *run], env=_subprocess_env(),
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    loaded = json.loads(proc.stdout.splitlines()[-1])
    assert loaded["rc"] == 0 and _manifest(tmp_path / "out")["cache_misses"] == "0"
    assert "tddmimo.cli" in loaded["import"]
    for stage in ("import", "run"):
        assert [m for m in HEAVY_MODULES if m in loaded[stage]] == [], stage


# A scheme the preset does not evaluate, several values for a list key it
# reads once, SINRs or weights that are not finite or that under/overflow,
# keys the preset does not read, and fig5 with fewer antennas than users.
INVALID_SPECS = {
    "fig2-scheme-3": "preset=fig2\nM=4\nscheme=3\n",
    "fig5-scheme-0": "preset=fig5\nM=8\nscheme=0\n",
    "fig5-scheme-1": "preset=fig5\nM=8\nscheme=1\n",
    "fig5-two-T": "preset=fig5\nM=8\nT=20\nT=30\n",
    "fig3-two-rho_f": "preset=fig3\nM=2\nT=20\nrho_f_db=0\nrho_f_db=10\n",
    "fig4-two-T": "preset=fig4\nM=2\nrho_f_db=0\nT=20\nT=30\n",
    "fig3-two-rho_r": "preset=fig3\nM=2\nT=20\nrho_r_db=-10,-5\n",
    "fig2-two-rho_f": "preset=fig2\nM=2\nrho_f_db=0,10\n",
    "custom-two-rho_f": "preset=custom\nM=4\nK=2\nrho_f_db=0,10\nrho_r_db=-10\n",
    "fig5-three-rho_r": "preset=fig5\nM=8\nrho_r_db=-10,-10,-10\n",
    "custom-nan-rho_f": "preset=custom\nM=4\nK=2\nrho_f_db=nan\nrho_r_db=-10\n",
    "fig3-minus-inf-rho_f": "preset=fig3\nM=2\nT=20\nrho_f_db=-inf\n",
    "fig3-nan-offset": "preset=fig3\nM=2\nT=20\nrho_r_offset_db=nan\n",
    "fig3-underflowing-rho_f": "preset=fig3\nM=2\nT=20\nrho_f_db=-4000\n",
    "fig5-nan-weight": "preset=fig5\nM=8\nweight=2,2,2,2,1,1,1,nan\n",
    "fig3-unread-keys": "preset=fig3\nT=20\nM=2\ntau_rp=5\nK=3\nweight=7\n",
    "fig2-unread-T": "preset=fig2\nM=2\nT=20\n",
    "fig4-unread-rho_r": "preset=fig4\nM=2\nrho_r_db=-10\n",
    "fig5-unread-rho_r": "preset=fig5\nM=8\nrho_r_db=-10\n",
    "fig3-rho_r-and-offset": "preset=fig3\nM=2\nT=20\nrho_r_db=-10\nrho_r_offset_db=-10\n",
    "fig5-M-below-K": "preset=fig5\nM=4\nM=8\nK=8\nT=20\n",
    "output-manifest": "preset=fig2\nM=2\noutput=run_manifest.txt\n",
    "output-cache": "preset=fig2\nM=2\noutput=moments_cache\n",
    "output-empty": "preset=fig2\nM=2\noutput=\n",
    "output-in-subdirectory": "preset=fig2\nM=2\noutput=sub/x.csv\n",
    "seed-2-to-the-64": f"preset=fig2\nM=2\nseed={2**64}\n",
    "line-without-equals": "preset=fig2\nM=2\nfig2\n",
    "seed-twice": "preset=fig2\nM=2\nseed=1\nseed=2\n",
    "M-not-a-number": "preset=fig2\nM=x\n",
    "samples-not-an-integer": "preset=fig2\nM=2\nsamples=1.5\n",
    "unknown-preset": "preset=fig9\nM=2\n",
    "quick-maybe": "preset=fig2\nM=2\nquick=maybe\n",
    "custom-without-M": "preset=custom\nK=2\nrho_f_db=0\nrho_r_db=-10\n",
    "M-zero": "preset=fig2\nM=0\n",
    "K-zero": "preset=custom\nM=4\nK=0\nrho_f_db=0\nrho_r_db=-10\n",
    "fig5-negative-weight": "preset=fig5\nM=8\nweight=2,2,2,2,1,1,1,-1\n",
    "fig5-zero-weights": "preset=fig5\nM=8\nweight=0,0,0,0,0,0,0,0\n",
    "fig5-seven-weights": "preset=fig5\nM=8\nweight=2,2,2,2,1,1,1\n",
    "fig5-seven-rho_f": "preset=fig5\nM=8\nrho_f_db=-4,-3,-2,-1,0,1,2\n",
    "fig5-T-below-K-plus-2": "preset=fig5\nM=8\nT=9\n",
    # an empty value replaces the preset's and is an error
    "fig3-empty-M": "preset=fig3\nM=\n",
    "fig3-empty-T": "preset=fig3\nM=2\nT=\n",
    "fig3-empty-scheme": "preset=fig3\nM=2\nscheme=\n",
    "fig5-empty-rho_f": "preset=fig5\nM=8\nrho_f_db=\n",
    "fig5-empty-weight": "preset=fig5\nM=8\nweight=\n",
    "fig2-empty-rho_r": "preset=fig2\nM=2\nrho_r_db=\n",
    "fig2-empty-rho_f": "preset=fig2\nM=2\nrho_f_db=\n",
}


@pytest.mark.parametrize("spec_text", INVALID_SPECS.values(), ids=INVALID_SPECS.keys())
def test_invalid_spec_exits_1(tmp_path, capsys, spec_text):
    spec_file = tmp_path / "spec.txt"
    spec_file.write_text(spec_text + ("" if "samples=" in spec_text else "samples=100\n")
                         + ("" if "seed=" in spec_text else "seed=1\n"))
    out = tmp_path / "out"
    assert main(["validate", "--spec", str(spec_file)]) == 1
    assert "invalid spec: " in capsys.readouterr().err
    assert main(["run", "--spec", str(spec_file), "--out", str(out)]) == 1
    assert "invalid spec: " in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("key", ["weight", "rho_f_db"])
def test_empty_fig5_list_gives_one_message(key):
    # the count rule's message only: no sign or per-user length check runs
    # on an empty list
    with pytest.raises(SpecValidationError) as exc:
        parse_spec(f"preset=fig5\nM=8\n{key}=\n")
    assert exc.value.violations == [f"fig5 needs at least one {key} value, got 0"]


@pytest.mark.parametrize("spec_text,header,cells", [
    ("preset=fig2\nM=2\n", "scheme,M,K,N_star,rate,std_error,status",
     ["0,2,1", "0,2,2", "1,2,1", "1,2,2"]),
    ("preset=fig3\nT=3\nT=20\nM=2\n",
     "scheme,T,M,K_star,tau_star,N_star,net_rate,std_error,status",
     ["0,3,2", "0,20,2", "1,3,2", "1,20,2"]),
    ("preset=fig4\nM=2\nrho_f_db=-10,0\n",
     "scheme,rho_f_db,M,K_star,tau_star,N_star,net_rate,std_error,status",
     ["1,-10,2", "1,0,2"]),
    ("preset=fig5\nM=8\n", "scheme,M,tau_star,N_star,wt_net_rate,std_error,status",
     ["2,8", "3,8"]),
    ("preset=custom\nM=4\nK=2\nK=3\nrho_f_db=0\nrho_r_db=-10\n",
     "scheme,M,K,tau_rp,N_star,rate,std_error,status",
     ["0,4,2,2", "0,4,3,3", "1,4,2,2", "1,4,3,3"]),
], ids=["fig2", "fig3", "fig4", "fig5", "custom"])
def test_preset_header_and_cells(tmp_path, spec_text, header, cells):
    spec = parse_spec(spec_text + "samples=100\n")
    run_experiment(spec, tmp_path)
    lines = (tmp_path / spec.output).read_text().splitlines()
    assert lines[0] == header
    lead = len(cells[0].split(","))
    assert [",".join(row.split(",")[:lead]) for row in lines[1:]] == cells
    assert all(row.endswith(",ok") for row in lines[1:])
    assert all(len(row.split(",")) == header.count(",") + 1 for row in lines[1:])


def _readme_spec():
    readme = (ROOT / "README.md").read_text()
    blocks = readme.split("```")[1::2]
    return next(block for block in blocks if block.lstrip().startswith("preset="))


def test_readme_library_examples_run():
    # README's python blocks run in order in one namespace; at 3,000 samples
    # each statistic has two 2048-draw blocks, so the pool is used
    blocks = (ROOT / "README.md").read_text().split("```python\n")[1:]
    assert len(blocks) >= 2
    namespace = {}
    for block in blocks:
        exec(block.split("```", 1)[0].replace("100_000", "3_000"), namespace)


def test_public_names_resolve():
    assert [name for name in tddmimo.__all__ if not hasattr(tddmimo, name)] == []
    namespace = {}
    exec("from tddmimo import *", namespace)
    assert set(tddmimo.__all__) <= set(namespace)


@pytest.mark.parametrize("spec_path", sorted((ROOT / "perfbench" / "specs").glob("*.txt"))
                         + ["README.md"], ids=lambda p: Path(p).name)
def test_shipped_specs_validate(tmp_path, spec_path):
    # the benchmark's specs and README's example must keep passing validation
    if spec_path == "README.md":
        spec_path = tmp_path / "spec.txt"
        spec_path.write_text(_readme_spec())
    assert main(["validate", "--spec", str(spec_path)]) == 0
