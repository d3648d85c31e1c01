import json
import math
import re

import pytest

from stokesheat.cli import main
from stokesheat.config import load_config
from stokesheat.errors import ConfigError


def run_cli(args):
    return main(args)


def strict_json(path):
    def reject(token):
        raise ValueError(f"{token} is not JSON")
    return json.loads(path.read_text(encoding="utf-8"), parse_constant=reject)


def test_minimal_config_fills_defaults(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"basis": {"lambda_max": 80}}))
    cfg = load_config(str(path))
    assert cfg.basis.lambda_max == 80.0
    assert cfg.schedule.gamma == 1.5
    assert cfg.kernel.support == (0.25, 0.75)
    assert cfg.io.format == "csv"


def test_gamma_validation_names_field(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"schedule": {"gamma": 1.0}}))
    with pytest.raises(ConfigError) as err:
        load_config(str(path))
    assert "schedule.gamma" in str(err.value)


def test_unknown_key_rejected(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"basis": {"lambda_maxx": 10}}))
    with pytest.raises(ConfigError) as err:
        load_config(str(path))
    assert "basis.lambda_maxx" in str(err.value)
    path.write_text(json.dumps({"nonsense": {}}))
    with pytest.raises(ConfigError):
        load_config(str(path))


def test_flag_overrides_file(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"basis": {"lambda_max": 50}}))
    cfg = load_config(str(path), {"basis.lambda_max": 100})
    assert cfg.basis.lambda_max == 100.0


def test_config_error_exit_code(tmp_path, capsys):
    code = run_cli(["eigens", "--gamma", "0.5",
                    "--out-dir", str(tmp_path)])
    assert code == 2
    assert "schedule.gamma" in capsys.readouterr().err


def test_degenerate_region_exit_code(tmp_path):
    code = run_cli(["observe", "--region", "0,0,0.3,0.7",
                    "--out-dir", str(tmp_path)])
    assert code == 2


def test_eigens_outputs_and_cache(tmp_path, capsys):
    out1 = tmp_path / "r1"
    out2 = tmp_path / "r2"
    cache = tmp_path / "b.json"
    code = run_cli(["eigens", "--lambda-max", "50", "--out-dir", str(out1),
                    "--cache", str(cache)])
    assert code == 0
    lines = (out1 / "modes.csv").read_text().splitlines()
    pi2 = format(math.pi ** 2, ".17g")
    four_pi2 = format(4 * math.pi ** 2, ".17g")
    assert f"0,1,-,{pi2}" in lines
    assert f"0,2,-,{four_pi2}" in lines
    # repeated run reuses the cache and makes byte-identical outputs
    code = run_cli(["eigens", "--lambda-max", "50", "--out-dir", str(out2),
                    "--cache", str(cache)])
    assert code == 0
    assert (out1 / "modes.csv").read_bytes() == (out2 / "modes.csv").read_bytes()
    assert ((out1 / "orthonormality.json").read_bytes()
            == (out2 / "orthonormality.json").read_bytes())


def test_eigens_corrupted_cache_rebuilds(tmp_path, capsys):
    cache = tmp_path / "b.json"
    cache.write_text("{ this is not json")
    code = run_cli(["eigens", "--lambda-max", "30", "--out-dir", str(tmp_path),
                    "--cache", str(cache)])
    assert code == 0
    assert "rebuilding" in capsys.readouterr().err
    # the cache was replaced with a loadable one
    from stokesheat import load_basis

    assert load_basis(cache).cutoff == 30.0


def test_control_rebuilds_a_cache_with_a_non_finite_number(tmp_path, capsys):
    cache = tmp_path / "b.json"
    assert run_cli(["eigens", "--lambda-max", "60", "--cache", str(cache),
                    "--out-dir", str(tmp_path / "eigens")]) == 0
    text, count = re.subn(r'"norm_factor": [^,\n]+', '"norm_factor": NaN',
                          cache.read_text(), count=1)
    assert count == 1
    cache.write_text(text)
    capsys.readouterr()
    code = run_cli(["control", "--lambda-max", "60", "--lambda-cap", "50",
                    "--z0-modes", "10", "--cache", str(cache),
                    "--out-dir", str(tmp_path / "control")])
    assert code == 0
    err = capsys.readouterr().err
    assert "non-finite number NaN" in err and "rebuilding" in err
    assert strict_json(cache)["cutoff"] == 60.0


def test_eigens_cache_with_edited_cutoff_rebuilds(tmp_path, capsys):
    cache = tmp_path / "b.json"
    args = ["eigens", "--lambda-max", "60", "--cache", str(cache)]
    assert run_cli(args + ["--out-dir", str(tmp_path / "r1")]) == 0
    doc = json.loads(cache.read_text())
    doc["cutoff"] = 5000.0
    cache.write_text(json.dumps(doc))
    capsys.readouterr()
    assert run_cli(args + ["--out-dir", str(tmp_path / "r2")]) == 0
    err = capsys.readouterr().err
    assert "loaded basis from cache" not in err
    assert "lambda_max" in err and "rebuilding" in err
    for name in ("modes.csv", "orthonormality.json"):
        assert ((tmp_path / "r1" / name).read_bytes()
                == (tmp_path / "r2" / name).read_bytes())
    assert json.loads(cache.read_text())["cutoff"] == 60.0


def test_specineq_empty_sweep_usage_error(tmp_path):
    code = run_cli(["specineq", "--lambda-max", "60", "--lambda-list", "",
                    "--out-dir", str(tmp_path)])
    assert code == 2


def test_specineq_small_run(tmp_path):
    code = run_cli(["specineq", "--lambda-max", "60",
                    "--lambda-list", "10,25,50",
                    "--region", "0,1.5707963267948966,0.4,0.6",
                    "--out-dir", str(tmp_path)])
    assert code == 0
    text = (tmp_path / "specineq.csv").read_text()
    assert "fit: slope=" in text
    fit = json.loads((tmp_path / "specineq_fit.json").read_text())
    assert set(fit) >= {"slope", "intercept", "r_squared"}
    rows = [l for l in text.splitlines() if not l.startswith("#")]
    assert len(rows) == 4  # header + 3 cutoffs
    # kappa_f trails the columns earlier readers parse by position
    assert rows[0] == "Lambda,dim,min_eig,log_min_eig,sqrt_Lambda,kappa_f"
    kappas = [float(r.split(",")[5]) for r in rows[1:]]
    assert all(k >= 1.0 for k in kappas)
    code = run_cli(["specineq", "--lambda-max", "60",
                    "--lambda-list", "10,25,50",
                    "--region", "0,1.5707963267948966,0.4,0.6",
                    "--format", "structured",
                    "--out-dir", str(tmp_path / "structured")])
    assert code == 0
    doc = json.loads((tmp_path / "structured" / "specineq.json").read_text())
    assert doc["columns"][5] == "kappa_f"
    assert [r[5] for r in doc["rows"]] == kappas


def test_specineq_unconverged_kernel_quadrature_exits_1(tmp_path, capsys):
    code = run_cli(["specineq", "--lambda-max", "60",
                    "--lambda-list", "10,25,50",
                    "--kernel-support", "0.49,0.51",
                    "--out-dir", str(tmp_path)])
    assert code == 1
    err = capsys.readouterr().err
    assert re.search(r"^error: kernel quadrature on support \(0\.49, 0\.51\) "
                     r"did not converge", err, re.M)
    assert not (tmp_path / "specineq.csv").exists()


def test_observe_single_point(tmp_path):
    code = run_cli(["observe", "--lambda-max", "40", "--lambda-list", "30",
                    "--t-list", "0.5", "--out-dir", str(tmp_path)])
    assert code == 0
    rows = [l for l in (tmp_path / "observe.csv").read_text().splitlines()
            if not l.startswith("#")]
    assert len(rows) == 2  # header + one data row


def test_observe_monotone_reported(tmp_path):
    code = run_cli(["observe", "--lambda-max", "40", "--lambda-list", "30",
                    "--t-list", "0.1,0.2,0.4,0.8", "--out-dir", str(tmp_path)])
    assert code == 0
    fits = json.loads((tmp_path / "observe_fits.json").read_text())
    assert fits["t_sweeps"][0]["monotone_nonincreasing_in_t"] is True


def test_observe_monotone_flag_ignores_t_list_order(tmp_path):
    # the flag compares neighbours in T, not in --t-list order, so a
    # descending list reports the same sweep entry as the ascending one
    entries = []
    for order in ("0.1,0.2,0.4,0.8", "0.8,0.4,0.2,0.1"):
        out = tmp_path / order.replace(",", "_")
        code = run_cli(["observe", "--lambda-max", "40", "--lambda-list", "30",
                        "--t-list", order, "--out-dir", str(out)])
        assert code == 0
        entries.append(json.loads((out / "observe_fits.json").read_text())
                       ["t_sweeps"][0])
    assert entries[1]["monotone_nonincreasing_in_t"] is True
    assert entries[1] == entries[0]


def test_missing_config_file_exit_code(tmp_path, capsys):
    code = run_cli(["eigens", "--config", str(tmp_path / "nope.json"),
                    "--out-dir", str(tmp_path)])
    assert code == 2
    assert "cannot read config" in capsys.readouterr().err


def test_observe_defect_exit_and_dump(tmp_path, monkeypatch):
    import numpy as np

    from stokesheat import cli
    from stokesheat.errors import ObservabilityDefectError

    def raising(*args, **kwargs):
        raise ObservabilityDefectError("nearly invisible direction",
                                       direction=np.array([1.0, 0.0]))

    monkeypatch.setattr(cli.ct, "obs_constant", raising)
    code = run_cli(["observe", "--lambda-max", "40", "--lambda-list", "30",
                    "--t-list", "0.5", "--out-dir", str(tmp_path)])
    assert code == 1
    dump = json.loads((tmp_path / "observability_defect.json").read_text())
    assert dump["direction"] == [1.0, 0.0]


def test_control_zero_initial_state(tmp_path):
    code = run_cli(["control", "--lambda-max", "80", "--lambda-cap", "64",
                    "--z0-modes", "0", "--out-dir", str(tmp_path)])
    assert code == 0
    doc = json.loads((tmp_path / "control_report.json").read_text())
    assert doc["final_norm"] == 0.0
    assert doc["total_cost"] == 0.0


def test_control_small_scenario(tmp_path):
    code = run_cli(["control", "--lambda-max", "200", "--lambda-cap", "181",
                    "--z0-modes", "8", "--out-dir", str(tmp_path)])
    assert code == 0
    doc = json.loads((tmp_path / "control_report.json").read_text())
    assert doc["final_ratio"] <= 1e-4
    stage_csv = (tmp_path / "control_stages.csv").read_text().splitlines()
    assert stage_csv[1].split(",") == ["stage", "tau", "Lambda", "pre_norm",
                                       "post_norm", "low_residual", "cost",
                                       "cond_estimate"]


def test_control_cap_below_first_eigenvalue(tmp_path):
    code = run_cli(["control", "--lambda-max", "80", "--lambda-cap", "3",
                    "--z0-modes", "5", "--out-dir", str(tmp_path)])
    assert code == 1  # no effective control, pure decay misses the tolerance
    # every stage is empty, and an empty stage's infinite cond_estimate is
    # null in the JSON report
    stages = strict_json(tmp_path / "control_report.json")["stages"]
    assert [s["cond_estimate"] for s in stages] == [None] * len(stages)
    assert (tmp_path / "control_stages.csv").read_text().count(",inf\n") == len(stages)


def test_structured_specineq_writes_nan_as_null(tmp_path):
    # a cutoff below the first eigenvalue is a row of NaNs
    code = run_cli(["specineq", "--lambda-max", "60",
                    "--lambda-list", "5,10,25,50",
                    "--region", "0,1.5707963267948966,0.4,0.6",
                    "--format", "structured", "--out-dir", str(tmp_path)])
    assert code == 0
    rows = strict_json(tmp_path / "specineq.json")["rows"]
    assert rows[0] == [5.0, 0, None, None, math.sqrt(5.0), None]
    assert all(v is not None for row in rows[1:] for v in row)
    strict_json(tmp_path / "specineq_fit.json")


def test_control_insufficient_basis_is_config_error(tmp_path, capsys):
    code = run_cli(["control", "--lambda-max", "80", "--lambda-cap", "1024",
                    "--out-dir", str(tmp_path)])
    assert code == 2
    # the schedule's largest cutoff is named, so raising --lambda-max to it
    # is enough
    assert re.search(r"^invalid argument: lam_cap 1024\.0 exceeds the basis "
                     r"cutoff 80\.0$", capsys.readouterr().err, re.M)


def test_cache_in_missing_directory_is_usage_error(tmp_path, capsys):
    code = run_cli(["eigens", "--lambda-max", "30", "--cache",
                    str(tmp_path / "missing" / "b.json"),
                    "--out-dir", str(tmp_path / "out")])
    err = capsys.readouterr().err
    assert code == 2
    assert "Traceback" not in err
    assert re.search(r"^error: .*missing", err, re.M)


def test_cache_directory_checked_before_the_build(tmp_path, capsys,
                                                  monkeypatch):
    from stokesheat import spectral

    builds = []
    true_assemble = spectral.assemble_basis

    def counting(*args, **kwargs):
        builds.append(args)
        return true_assemble(*args, **kwargs)

    monkeypatch.setattr(spectral, "assemble_basis", counting)
    cache = str(tmp_path / "missing" / "b.json")
    code = run_cli(["eigens", "--lambda-max", "30", "--cache", cache,
                    "--out-dir", str(tmp_path / "out")])
    err = capsys.readouterr().err
    assert code == 2
    assert builds == []
    assert cache in err
    assert ".tmp." not in err


def test_eigens_empty_basis(tmp_path, capsys):
    # no eigenvalue lies below pi^2, so the basis has no modes
    code = run_cli(["eigens", "--lambda-max", "3", "--out-dir", str(tmp_path)])
    assert code == 0
    assert ("modes=0 max|Gram-I|=0.000e+00 pass=True"
            in capsys.readouterr().out.splitlines())
    assert (tmp_path / "modes.csv").read_text().splitlines() == [
        "# stokesheat modes schema=1", "k,n,phase,lambda"]


def test_out_dir_that_is_a_file_is_usage_error(tmp_path, capsys):
    path = tmp_path / "taken"
    path.write_text("")
    code = run_cli(["eigens", "--lambda-max", "30", "--out-dir", str(path)])
    err = capsys.readouterr().err
    assert code == 2
    assert "Traceback" not in err
    assert re.search(r"^error: .*taken", err, re.M)


def test_structured_output_format(tmp_path):
    code = run_cli(["eigens", "--lambda-max", "30", "--format", "structured",
                    "--out-dir", str(tmp_path)])
    assert code == 0
    assert not (tmp_path / "modes.csv").exists()
    doc = json.loads((tmp_path / "modes.json").read_text())
    assert doc["columns"] == ["k", "n", "phase", "lambda"]
    assert doc["rows"][0][3] == pytest.approx(6.1165672323271707)


def test_thread_count_does_not_change_outputs(tmp_path):
    outs = []
    for threads in (1, 2, 8):
        out = tmp_path / f"t{threads}"
        code = run_cli(["eigens", "--lambda-max", "60", "--threads",
                        str(threads), "--out-dir", str(out)])
        assert code == 0
        outs.append((out / "modes.csv").read_bytes()
                    + (out / "orthonormality.json").read_bytes())
    assert outs[0] == outs[1] == outs[2]


def test_verify_command(tmp_path):
    code = run_cli(["verify", "--out-dir", str(tmp_path)])
    assert code == 0
    doc = json.loads((tmp_path / "verify.json").read_text())
    assert doc["pass"] is True
    assert all(c["pass"] for c in doc["checks"])


def test_cache_reused_only_with_matching_build_settings(tmp_path, capsys):
    cache = tmp_path / "b.json"
    base = ["eigens", "--lambda-max", "60", "--out-dir", str(tmp_path),
            "--cache", str(cache)]
    assert run_cli(base + ["--density", "8", "--k-max", "20"]) == 0
    capsys.readouterr()
    assert run_cli(base + ["--density", "8", "--k-max", "20"]) == 0
    assert "loaded basis from cache" in capsys.readouterr().err
    # a default run must not silently reuse the density-8, k_max=20 build
    assert run_cli(base) == 0
    err = capsys.readouterr().err
    assert "scan_density 8, want 16" in err and "rebuilding" in err
    from stokesheat import load_basis

    meta = load_basis(cache).metadata
    assert (meta["scan_density"], meta["k_max"]) == (16, 8)
    # k_max is compared only when it is configured
    assert run_cli(base + ["--k-max", "8"]) == 0
    assert "loaded basis from cache" in capsys.readouterr().err
    assert run_cli(base + ["--k-max", "9"]) == 0
    assert "k_max 8, want 9" in capsys.readouterr().err


@pytest.mark.parametrize("field, value", [("residual_gate", 1e-05),
                                          ("multiplicity_gate", 1e-07),
                                          ("gauss_nodes_x2", 32)])
def test_cache_with_another_build_setting_is_rebuilt(tmp_path, capsys, field,
                                                     value):
    cache = tmp_path / "b.json"
    args = ["eigens", "--lambda-max", "60", "--out-dir", str(tmp_path),
            "--cache", str(cache)]
    assert run_cli(args) == 0
    doc = json.loads(cache.read_text())
    want = doc["metadata"][field]
    doc["metadata"][field] = value
    cache.write_text(json.dumps(doc))
    capsys.readouterr()
    assert run_cli(args) == 0
    err = capsys.readouterr().err
    assert f"has {field} {value!r}, want {want!r}; rebuilding" in err
    assert json.loads(cache.read_text())["metadata"][field] == want
