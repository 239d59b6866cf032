"""Command-line surface: every subcommand, exit codes, file outputs, and the
dimension-cap environment override."""

import json

import numpy as np
import pytest

from qdiv import fixtures
from qdiv.cli import main
from qdiv.serialize import dump, state_to_dict
from qdiv.states import DensityMatrix


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

    def test_reverse_test_feasible(self, capsys, files):
        code, out = run_cli(capsys, "asym", "reverse-test", "--n", "3",
                            "--rho", files["rho"], "--sigma", files["sigma"],
                            "--rate", "0.75")
        assert code == 0
        data = json.loads(out)
        assert data["feasible"] and data["sigma_error"] <= 1e-10

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

    def test_config_file_with_forced_failure(self, capsys, files):
        cfg_path = files["dir"] / "cfg.json"
        cfg_path.write_text(json.dumps({
            "seed": 3, "trials": 1, "dims": [2],
            "suites": ["reverse-test-optimality"],
            "tolerances": {"reconstruction": 0.0},
        }))
        code, out = run_cli(capsys, "verify", "--config", str(cfg_path))
        assert code == 1
        assert "FAIL" in out

    @pytest.mark.parametrize("config", [{"n_range": [3, 3]},
                                        {"tolerances": {"stein_grid_width": -1}}])
    def test_config_rejected_exits_two(self, capsys, files, config):
        cfg_path = files["dir"] / "cfg.json"
        cfg_path.write_text(json.dumps({"suites": ["stein-trend"], **config}))
        code, _ = run_cli(capsys, "verify", "--config", str(cfg_path))
        assert code == 2

    def test_default_run_passes(self, capsys):
        # seed 20240, 40 trials, all nine suites
        code, out = run_cli(capsys, "verify")
        assert out.splitlines()[-1] == "total: 1712 passed, 0 failed"
        assert code == 0
