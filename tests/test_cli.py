"""Command-line surface: every subcommand, exit codes, file outputs, and the
dimension-cap environment override."""

import json
import math
import os
import pathlib
import re
import subprocess
import sys

import numpy as np
import pytest

from qdiv import cli, fixtures, hypotest
from qdiv.cli import main
from qdiv.config import DEFAULT_TOLERANCES
from qdiv.serialize import dump, state_to_dict
from qdiv.states import DensityMatrix
from qdiv.suites import ALL_SUITES


@pytest.fixture
def files(tmp_path):
    rho, sigma = fixtures.QUBIT_A
    paths = {}
    for name, state in (("rho", rho), ("sigma", sigma)):
        p = tmp_path / f"{name}.json"
        dump(state_to_dict(state), str(p))
        paths[name] = str(p)
    x = np.array([[0.05, 0.1j], [-0.1j, -0.05]])
    tangent = tmp_path / "tangent.json"
    dump({"matrix": [[[z.real, z.imag] for z in row] for row in x]}, str(tangent))
    paths["tangent"] = str(tangent)
    r0, s0 = fixtures.CONVERSION_SOURCE
    for name, state in (("rho0", r0), ("sigma0", s0)):
        p = tmp_path / f"{name}.json"
        dump(state_to_dict(state), str(p))
        paths[name] = str(p)
    paths["dir"] = tmp_path
    return paths


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out.strip()
    return code, out


class TestDivergenceCommand:
    @pytest.mark.parametrize("kind,key", [("umegaki", "umegaki"), ("rld", "rld"),
                                          ("dmax", "dmax"), ("fidelity", "fidelity")])
    def test_values_match_fixture(self, capsys, files, kind, key):
        code, out = run_cli(capsys, "divergence", "--kind", kind,
                            "--rho", files["rho"], "--sigma", files["sigma"])
        assert code == 0
        assert json.loads(out)["value"] == pytest.approx(fixtures.VALUES["qubit_a"][key], abs=1e-10)

    def test_measured_reports_bound(self, capsys, files):
        code, out = run_cli(capsys, "divergence", "--kind", "measured", "--budget", "80",
                            "--rho", files["rho"], "--sigma", files["sigma"])
        assert code == 0
        data = json.loads(out)
        assert data["value"] <= fixtures.VALUES["qubit_a"]["umegaki"] + 1e-8
        # the search draws nothing, so there is no seed to report
        assert set(data) == {"kind", "value", "budget", "note"}
        assert data["note"] == ("lower bound from a deterministic ascent over projective "
                                "measurements; inf when supp rho escapes supp sigma")

    def test_measured_takes_no_seed(self, files):
        with pytest.raises(SystemExit) as exc:
            main(["divergence", "--kind", "measured", "--seed", "7",
                  "--rho", files["rho"], "--sigma", files["sigma"]])
        assert exc.value.code == 2

    def test_measured_escaping_support_is_inf(self, capsys, tmp_path):
        paths = {}
        for name, m in (("rho", np.eye(2) / 2), ("sigma", np.diag([1.0, 0.0]))):
            paths[name] = str(tmp_path / f"{name}.json")
            dump(state_to_dict(DensityMatrix(m.astype(complex))), paths[name])
        code, out = run_cli(capsys, "divergence", "--kind", "measured",
                            "--rho", paths["rho"], "--sigma", paths["sigma"])
        assert code == 0 and json.loads(out)["value"] == "inf"

    def test_measured_rejects_empty_budget(self, capsys, files):
        code = main(["divergence", "--kind", "measured", "--budget", "0",
                     "--rho", files["rho"], "--sigma", files["sigma"]])
        assert code == 2
        assert "error:" in capsys.readouterr().err

    def test_missing_file_errors(self, capsys, files):
        code = main(["divergence", "--kind", "umegaki", "--rho", files["rho"],
                     "--sigma", str(files["dir"] / "nonexistent.json")])
        assert code == 2

    def test_malformed_state_file_errors(self, capsys, files):
        bad = files["dir"] / "bad.json"
        bad.write_text(json.dumps({"dim": 2}))
        code = main(["divergence", "--kind", "umegaki", "--rho", str(bad), "--sigma", files["sigma"]])
        assert code == 2
        assert "error:" in capsys.readouterr().err

    def test_support_violation_stays_strict_json(self, capsys, files):
        a = files["dir"] / "pure0.json"
        b = files["dir"] / "pure1.json"
        dump(state_to_dict(DensityMatrix(np.diag([1.0, 0.0]).astype(complex))), str(a))
        dump(state_to_dict(DensityMatrix(np.diag([0.0, 1.0]).astype(complex))), str(b))
        code, out = run_cli(capsys, "divergence", "--kind", "umegaki",
                            "--rho", str(a), "--sigma", str(b))
        assert code == 0
        data = json.loads(out)   # must parse as strict JSON
        assert data["value"] == "inf"
        assert data["support_condition"] == "violated"


class TestMetricCommand:
    def test_value(self, capsys, files):
        code, out = run_cli(capsys, "metric", "--spec", "sld",
                            "--rho", files["rho"], "--tangent", files["tangent"])
        assert code == 0
        assert json.loads(out)["spec"] == "sld"

    def test_alpha_spec(self, capsys, files):
        code, out = run_cli(capsys, "metric", "--spec", "alpha=2",
                            "--rho", files["rho"], "--tangent", files["tangent"])
        assert code == 0

    def test_nan_alpha_exits_two(self, capsys, files):
        code = main(["metric", "--spec", "alpha=nan",
                     "--rho", files["rho"], "--tangent", files["tangent"]])
        assert code == 2
        assert "alpha" in capsys.readouterr().err


def test_emit_writes_one_strict_object(capsys, tmp_path):
    path = tmp_path / "out.json"
    cli._emit({"a": math.inf, "b": -math.inf, "c": math.nan, "d": 0.5}, str(path))
    expected = {"a": "inf", "b": "-inf", "c": None, "d": 0.5}
    assert json.loads(capsys.readouterr().out) == expected
    assert json.loads(path.read_text()) == expected


class TestReverseTestCommand:
    def test_json_output(self, capsys, files):
        out_path = files["dir"] / "rt.json"
        code, out = run_cli(capsys, "reverse-test", "--rho", files["rho"],
                            "--sigma", files["sigma"], "--json", str(out_path))
        assert code == 0
        summary = json.loads(out)
        assert summary["input_kl"] == pytest.approx(summary["rld"], abs=1e-8)
        data = json.loads(out_path.read_text())
        assert set(data) == {"frame", "p", "q", "input_kl"}


class TestAsymCommands:
    def test_threshold_with_csv(self, capsys, files):
        csv_path = files["dir"] / "curve.csv"
        code, out = run_cli(capsys, "asym", "threshold", "--n", "2",
                            "--rho", files["rho"], "--sigma", files["sigma"],
                            "--eps", "0.5", "--csv", str(csv_path))
        assert code == 0
        data = json.loads(out)
        assert abs(data["threshold"] - data["umegaki"]) < 0.6
        header = csv_path.read_text().splitlines()[0]
        assert header == "n,a,type1_accept,type2,threshold"

    def test_threshold_csv_at_n12_builds_no_power(self, capsys, files, validated_dims):
        # a qubit pair's threshold and curve run on its Schur-Weyl blocks, so
        # n = 12 (dense 4096x4096) neither builds nor decomposes a tensor power
        csv_path = files["dir"] / "curve12.csv"
        code, out = run_cli(capsys, "asym", "threshold", "--n", "12",
                            "--rho", files["rho"], "--sigma", files["sigma"],
                            "--eps", "0.5", "--csv", str(csv_path))
        assert code == 0
        assert json.loads(out)["n"] == 12
        rows = csv_path.read_text().splitlines()[1:]
        assert len(rows) == 13 and all(row.startswith("12,") for row in rows)
        assert validated_dims == [2, 2]

    def test_threshold_csv_on_a_qutrit_validates_no_power(self, capsys, files, validated_dims, monkeypatch):
        # a qutrit pair's powers are dense krons, built once for the threshold
        # and the curve, and not validated as states
        built = []
        build = hypotest.power_blocks
        monkeypatch.setattr(hypotest, "power_blocks", lambda rho, n: built.append(n) or build(rho, n))
        paths = {}
        for name, state in zip(("rho", "sigma"), fixtures.QUTRIT):
            paths[name] = str(files["dir"] / f"qutrit_{name}.json")
            dump(state_to_dict(state), paths[name])
        validated_dims.clear()
        csv_path = files["dir"] / "curve_qutrit.csv"
        code, out = run_cli(capsys, "asym", "threshold", "--n", "4",
                            "--rho", paths["rho"], "--sigma", paths["sigma"],
                            "--eps", "0.5", "--csv", str(csv_path))
        assert code == 0
        assert len(csv_path.read_text().splitlines()) == 14
        assert validated_dims == [3, 3]
        assert built == [4, 4]

    def test_reverse_test_feasible(self, capsys, files):
        code, out = run_cli(capsys, "asym", "reverse-test", "--n", "3",
                            "--rho", files["rho"], "--sigma", files["sigma"],
                            "--rate", "0.75")
        assert code == 0
        data = json.loads(out)
        assert data["feasible"] and data["sigma_error"] <= 1e-10

    def test_reverse_test_json_file_is_the_stdout_object(self, capsys, files):
        out_path = files["dir"] / "brt.json"
        code, out = run_cli(capsys, "asym", "reverse-test", "--n", "3",
                            "--rho", files["rho"], "--sigma", files["sigma"],
                            "--rate", "0.75", "--json", str(out_path))
        assert code == 0
        assert json.loads(out_path.read_text()) == json.loads(out)

    def test_infinite_rate_prints_strict_json(self, capsys, files):
        # the rate overflows e^(n rate), so the test caps nothing; the
        # infinite rate is written as a string on stdout and in the file
        out_path = files["dir"] / "brt_inf.json"
        code, out = run_cli(capsys, "asym", "reverse-test", "--n", "2",
                            "--rho", files["rho"], "--sigma", files["sigma"],
                            "--rate", "inf", "--json", str(out_path))
        assert code == 0

        def reject(name):
            raise ValueError(f"non-strict JSON constant {name}")
        for text in (out, out_path.read_text()):
            data = json.loads(text, parse_constant=reject)
            assert data["rate"] == "inf" and data["q0"] == 0.0
            assert data["rho_error"] <= 1e-12 and data["sigma_error"] <= 1e-12

    def test_convert_json_file_is_the_stdout_object(self, capsys, files):
        out_path = files["dir"] / "convert.json"
        code, out = run_cli(capsys, "asym", "convert", "--n", "3",
                            "--rho0", files["rho0"], "--sigma0", files["sigma0"],
                            "--rho", files["rho"], "--sigma", files["sigma"],
                            "--c", "0.25", "--json", str(out_path))
        assert code == 0
        assert json.loads(out_path.read_text()) == json.loads(out)

    def test_convert(self, capsys, files):
        code, out = run_cli(capsys, "asym", "convert", "--n", "3",
                            "--rho0", files["rho0"], "--sigma0", files["sigma0"],
                            "--rho", files["rho"], "--sigma", files["sigma"],
                            "--c", "0.25")
        assert code == 0
        data = json.loads(out)
        assert data["feasible"]
        assert data["sigma_error"] <= 1e-9

    def test_dim_cap_env(self, capsys, files, monkeypatch):
        monkeypatch.setenv("QDIV_DIM_CAP", "4")
        code = main(["asym", "threshold", "--n", "4",
                     "--rho", files["rho"], "--sigma", files["sigma"]])
        assert code == 2

    def test_huge_n_names_the_cap(self, capsys, files):
        code = main(["asym", "threshold", "--n", "1000000",
                     "--rho", files["rho"], "--sigma", files["sigma"]])
        assert code == 2
        assert "2^1000000 exceeds the dimension cap" in capsys.readouterr().err

    def test_dim_cap_env_not_an_integer(self, capsys, files, monkeypatch):
        monkeypatch.setenv("QDIV_DIM_CAP", "abc")
        code = main(["asym", "threshold", "--n", "2",
                     "--rho", files["rho"], "--sigma", files["sigma"]])
        assert code == 2
        assert "QDIV_DIM_CAP must be an integer, got 'abc'" in capsys.readouterr().err


class TestVerifyCommand:
    def test_passing_run_exits_zero(self, capsys, files):
        report = files["dir"] / "report.json"
        code, out = run_cli(capsys, "verify", "--suite", "joint-convexity",
                            "--suite", "metric-ordering", "--seed", "9",
                            "--trials", "2", "--report", str(report))
        assert code == 0
        assert "total:" in out
        payload = json.loads(report.read_text())
        assert payload["failed"] == 0
        assert {s["suite"] for s in payload["suites"]} == {"joint-convexity", "metric-ordering"}

    def test_config_file_with_forced_failure(self, capsys, files, monkeypatch):
        monkeypatch.setitem(DEFAULT_TOLERANCES, "reconstruction", 0.0)
        cfg_path = files["dir"] / "cfg.json"
        cfg_path.write_text(json.dumps({
            "seed": 3, "trials": 1, "dims": [2],
            "suites": ["reverse-test-optimality"],
        }))
        code, out = run_cli(capsys, "verify", "--config", str(cfg_path))
        assert code == 1
        assert "FAIL" in out

    # slacks and the measured-search budget are fixed, so naming either is an unknown key
    @pytest.mark.parametrize("config", [{"n_range": [3, 3]},
                                        {"tolerances": {"stein_grid_width": -1}},
                                        {"tolerances": {"sandwich_slack": 1e-8}},
                                        {"budget": 500}])
    def test_config_rejected_exits_two(self, capsys, files, config):
        cfg_path = files["dir"] / "cfg.json"
        cfg_path.write_text(json.dumps({"suites": ["stein-trend"], **config}))
        assert main(["verify", "--config", str(cfg_path)]) == 2
        if "n_range" not in config:
            assert f"unknown config keys: {list(config)}" in capsys.readouterr().err

    def test_config_non_integer_exits_two(self, capsys, files):
        cfg_path = files["dir"] / "cfg.json"
        cfg_path.write_text(json.dumps({"suites": ["stein-trend"], "trials": 2.9}))
        assert main(["verify", "--config", str(cfg_path)]) == 2
        assert "trials must be a JSON integer" in capsys.readouterr().err

    def test_readme_config_runs(self, capsys, tmp_path):
        # the config block under "A JSON config can pin everything" in README.md
        readme = (pathlib.Path(__file__).parents[1] / "README.md").read_text()
        block = re.search(r"A JSON\s+config can pin everything:\s*```json\n(.*?)```", readme, re.S)
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(block.group(1))
        code, out = run_cli(capsys, "verify", "--config", str(cfg_path), "--trials", "1")
        assert code == 0
        assert out.splitlines()[-1].endswith(" 0 failed")

    def test_one_parser_serves_every_call(self, capsys, tmp_path):
        # main parses with one parser per process: a --suite of one call does
        # not carry into the next, and each call exits and reports as a call
        # in a process of its own does
        assert cli.build_parser() is cli.build_parser()
        argvs = [["verify", "--suite", "sandwich", "--trials", "1", "--seed", "5"],
                 ["verify", "--trials", "1", "--seed", "5"]]
        codes = [main([*argv, "--report", str(tmp_path / f"{k}.json")]) for k, argv in enumerate(argvs)]
        capsys.readouterr()

        def timeless(name):
            rep = json.loads((tmp_path / name).read_text())
            for suite in rep["suites"]:
                suite.pop("wall_time")
            return rep
        assert [s["suite"] for s in timeless("0.json")["suites"]] == ["sandwich"]
        assert [s["suite"] for s in timeless("1.json")["suites"]] == list(ALL_SUITES)
        src = str(pathlib.Path(__file__).parents[1] / "src")
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
        for k, argv in enumerate(argvs):
            done = subprocess.run([sys.executable, "-m", "qdiv.cli", *argv, "--report", str(tmp_path / f"fresh{k}.json")],
                                  env=env, capture_output=True, timeout=300)
            assert done.returncode == codes[k] == 0
        assert timeless("0.json") == timeless("fresh0.json")

    def test_default_run_passes(self, capsys):
        # seed 20240, 40 trials, all nine suites
        code, out = run_cli(capsys, "verify")
        assert out.splitlines()[-1] == "total: 1712 passed, 0 failed"
        assert code == 0
