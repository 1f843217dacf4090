import numpy as np
import pytest

from tddmimo.cli import main
from tddmimo.experiments import (ExperimentSpec, SpecValidationError,
                                 check_feasibility, parse_spec, run_experiment)


def test_parse_preset_defaults():
    spec = parse_spec("preset=fig3\n")
    assert spec.t_list == [20, 30]
    assert spec.schemes == [0, 1]
    assert spec.m_list == [2, 4, 6, 8, 10, 12, 14, 16]


def test_parse_overrides_and_lists():
    spec = parse_spec("preset=fig2\nM=4\nM=8\nsamples=500\nseed=9\nquick=false\n")
    assert spec.m_list == [4, 8]
    assert spec.samples == 500
    assert spec.seed == 9


def test_quick_mode_sample_default():
    spec = parse_spec("preset=fig2\nquick=true\n")
    assert spec.samples == 10_000


def test_validation_collects_all_violations():
    text = "preset=custom\nM=4\nK=6\ntau_rp=9\nT=10\nrho_f_db=0\nrho_r_db=-10\nbogus=1\n"
    with pytest.raises(SpecValidationError) as exc:
        parse_spec(text)
    messages = "\n".join(exc.value.violations)
    assert "unknown key 'bogus'" in messages
    assert "K <= tau_rp" not in messages  # K=6 <= tau_rp=9 holds
    assert "K <= min(M, tau_rp)" in messages
    assert "tau_rp <= T-2" in messages


def test_validation_k_exceeds_tau():
    text = "preset=custom\nM=8\nK=5\ntau_rp=3\nT=20\nrho_f_db=0\nrho_r_db=-10\n"
    with pytest.raises(SpecValidationError) as exc:
        parse_spec(text)
    assert any("K <= tau_rp" in v for v in exc.value.violations)


def test_feasibility_requires_sinr_source():
    spec = ExperimentSpec(preset="custom", m_list=[4], k_list=[2])
    assert any("rho_r_db" in v for v in check_feasibility(spec))


def test_custom_single_cell_run(tmp_path):
    spec = parse_spec("preset=custom\nscheme=1\nM=4\nK=2\nT=10\n"
                      "rho_f_db=0\nrho_r_db=-10\nsamples=1000\nseed=2\n")
    manifest = run_experiment(spec, tmp_path)
    csv = (tmp_path / spec.output).read_text().splitlines()
    assert csv[0] == "scheme,M,K,tau_rp,N_star,rate,std_error,status"
    assert len(csv) == 2 and csv[1].endswith(",ok")
    assert manifest["rows"] == 1
    assert (tmp_path / "run_manifest.txt").exists()
    assert (tmp_path / "moments_cache.txt").exists()


def test_csv_number_format(tmp_path):
    spec = parse_spec("preset=custom\nscheme=1\nM=4\nK=2\nT=10\n"
                      "rho_f_db=0\nrho_r_db=-10\nsamples=1000\nseed=2\n")
    run_experiment(spec, tmp_path)
    row = (tmp_path / spec.output).read_text().splitlines()[1].split(",")
    rate = row[5]
    assert rate == format(float(rate), ".9g")


def test_rerun_is_bit_exact(tmp_path):
    text = ("preset=custom\nM=4\nK=2\nT=10\nrho_f_db=0\nrho_r_db=-10\n"
            "samples=1000\nseed=5\n")
    spec = parse_spec(text)
    run_experiment(spec, tmp_path / "a", workers=1)
    run_experiment(parse_spec(text), tmp_path / "b", workers=2)
    a = (tmp_path / "a" / spec.output).read_bytes()
    b = (tmp_path / "b" / spec.output).read_bytes()
    assert a == b


def test_infeasible_cell_becomes_status_row(tmp_path):
    spec = parse_spec("preset=fig3\nT=3\nM=2\nsamples=500\n")
    spec.t_list = [3]
    run_experiment(spec, tmp_path)
    rows = (tmp_path / spec.output).read_text().splitlines()[1:]
    assert all(",ok" in r or "infeasible" in r for r in rows)


def test_cli_run_and_exit_codes(tmp_path, capsys):
    spec_file = tmp_path / "spec.txt"
    spec_file.write_text("preset=custom\nM=4\nK=2\nT=10\n"
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
    bad.write_text("preset=custom\nM=2\nK=4\nT=10\nrho_f_db=0\nrho_r_db=0\n")
    assert main(["validate", "--spec", str(bad)]) == 1
    assert main(["validate", "--spec", str(spec_file)]) == 0
    assert main(["run", "--spec", str(tmp_path / "missing.txt")]) == 2


def test_seed_and_quick_overrides(tmp_path):
    spec_file = tmp_path / "spec.txt"
    spec_file.write_text("preset=custom\nM=4\nK=2\nT=10\n"
                         "rho_f_db=0\nrho_r_db=-10\nseed=1\nsamples=777\n")
    out = tmp_path / "out"
    assert main(["run", "--spec", str(spec_file), "--out", str(out),
                 "--seed", "42", "--samples", "600"]) == 0
    manifest = dict(line.split("=", 1) for line in
                    (out / "run_manifest.txt").read_text().splitlines())
    assert manifest["seed"] == "42"
    assert manifest["samples"] == "600"


def test_truncated_cache_recovers(tmp_path, capsys):
    spec_file = tmp_path / "spec.txt"
    spec_file.write_text("preset=custom\nscheme=1\nM=4\nK=3\nT=10\n"
                         "rho_f_db=0\nrho_r_db=-10\nseed=3\nsamples=300\n")
    out = tmp_path / "out"
    run = ["run", "--spec", str(spec_file), "--out", str(out)]
    assert main(run) == 0
    first = (out / "custom_sum_bound.csv").read_bytes()
    cache_file = out / "moments_cache.txt"
    cache_file.write_bytes(cache_file.read_bytes()[:-5])  # killed mid-record
    capsys.readouterr()

    with pytest.warns(UserWarning, match="skipped 1"):
        assert main(run) == 0
    assert "cache_misses=1" in capsys.readouterr().out
    with pytest.warns(UserWarning, match="skipped 1"):
        assert main(run) == 0
    assert "cache_misses=0" in capsys.readouterr().out
    assert (out / "custom_sum_bound.csv").read_bytes() == first

    with pytest.warns(UserWarning):
        assert main(["cache-info", "--out", str(out)]) == 0
    text = capsys.readouterr().out
    assert "  eta: 3" in text and "skipped lines: 1" in text
