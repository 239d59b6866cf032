"""Verification harness framework: determinism, schema stability, and
failure reproducibility."""

import json
import math

import pytest

from qdiv import hypotest, suites
from qdiv.errors import ValidationError
from qdiv.suites import (ALL_SUITES, SuiteConfig, report_from_json,
                         report_to_dict, run_suite)


def _strip_walltime(payload: dict) -> dict:
    out = json.loads(json.dumps(payload))
    for suite in out["suites"]:
        suite.pop("wall_time")
    return out


class TestConfig:
    def test_defaults_valid(self):
        cfg = SuiteConfig()
        assert set(cfg.suites) == set(ALL_SUITES)

    def test_rejects_zero_trials(self):
        with pytest.raises(ValidationError, match="trials"):
            SuiteConfig(trials=0)

    def test_rejects_zero_budget(self):
        with pytest.raises(ValidationError, match="budget"):
            SuiteConfig(budget=0)

    def test_rejects_large_dim(self):
        with pytest.raises(ValidationError, match="dims"):
            SuiteConfig(dims=(2, 9))

    def test_rejects_unknown_suite(self):
        with pytest.raises(ValidationError, match="unknown"):
            SuiteConfig(suites=("monotonicity", "nope"))

    def test_rejects_capped_n_range(self):
        with pytest.raises(ValidationError, match="cap"):
            SuiteConfig(n_range=(2, 20))

    @pytest.mark.parametrize("n_range", [(3, 3), (1, 1), (9, 10)])
    def test_rejects_n_range_without_even_n(self, n_range):
        with pytest.raises(ValidationError, match="even"):
            SuiteConfig(n_range=n_range)

    @pytest.mark.parametrize("value", [-1.0, math.nan, math.inf])
    def test_rejects_bad_tolerance(self, value):
        with pytest.raises(ValidationError, match="finite and nonnegative"):
            SuiteConfig(tolerances={"sandwich_slack": value})

    @pytest.mark.parametrize("value", [0.0, -1.0, math.nan])
    def test_rejects_nonpositive_grid_width(self, value):
        with pytest.raises(ValidationError, match="stein_grid_width"):
            SuiteConfig(tolerances={"stein_grid_width": value})

    @pytest.mark.parametrize("data,match", [
        ([1], "object"),
        ({"dims": 3}, "dims"),
        ({"n_range": [2, 3, 4]}, "n_range"),
        ({"suites": "sandwich"}, "suites must"),
        ({"tolerances": [1e-6]}, "tolerances"),
        ({"seed": None}, "malformed"),
        ({"trails": 3}, "trails"),
        ({"tolerances": {"sandwich_slak": 1e-6}}, "sandwich_slak"),
        ({"tolerances": {"trace": 1e-3}}, "trace"),
    ])
    def test_from_dict_rejects_malformed(self, data, match):
        with pytest.raises(ValidationError, match=match):
            SuiteConfig.from_dict(data)

    def test_from_dict(self):
        cfg = SuiteConfig.from_dict({"seed": 5, "trials": 3, "dims": [2],
                                     "suites": ["sandwich"], "tolerances": {"sandwich_slack": 1e-6}})
        assert cfg.seed == 5 and cfg.trials == 3
        assert cfg.tol("sandwich_slack") == 1e-6
        assert cfg.tol("reconstruction") == 1e-9


class TestRunSuite:
    def test_minimal_config_all_pass(self):
        cfg = SuiteConfig(seed=3, trials=1, dims=(2,), n_range=(2, 4))
        reports = run_suite(cfg)
        assert len(reports) == 9
        total = sum(len(r.records) for r in reports)
        assert total >= 9
        assert all(r.n_failed == 0 for r in reports)

    def test_deterministic_modulo_walltime(self):
        cfg = SuiteConfig(seed=11, trials=2, dims=(2,), n_range=(2, 4),
                          suites=("monotonicity", "sandwich", "reverse-test-optimality"))
        a = _strip_walltime(report_to_dict(cfg, run_suite(cfg)))
        b = _strip_walltime(report_to_dict(cfg, run_suite(cfg)))
        assert json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)

    def test_failures_carry_reproducing_seed(self):
        # a zero slack fails every reconstruction residual left by roundoff
        cfg = SuiteConfig(seed=13, trials=2, dims=(2,), suites=("reverse-test-optimality",),
                          tolerances={"reconstruction": 0.0})
        first = run_suite(cfg)[0]
        assert first.n_failed > 0
        again = run_suite(cfg)[0]
        fails_a = [(r.name, r.seed, r.inputs_digest, r.measured) for r in first.records if not r.passed]
        fails_b = [(r.name, r.seed, r.inputs_digest, r.measured) for r in again.records if not r.passed]
        assert fails_a == fails_b

    def test_report_schema_roundtrip(self):
        cfg = SuiteConfig(seed=17, trials=1, dims=(2,), suites=("joint-convexity",))
        payload = report_to_dict(cfg, run_suite(cfg))
        text = json.dumps(payload)
        again = report_from_json(text)
        assert again == payload
        rec = payload["suites"][0]["records"][0]
        assert set(rec) == {"name", "seed", "inputs_digest", "measured", "bound", "margin", "passed"}

    def test_stein_trend_builds_each_power_once(self, monkeypatch):
        # QUBIT_A's two powers at n = 2, 4, 6, the two inside each of the
        # three stein_threshold calls, and the two of the n = 6 commuting control
        calls = []

        def counting(build):
            def wrapper(state, n):
                calls.append(n)
                return build(state, n)
            return wrapper

        for module in (suites, hypotest):
            monkeypatch.setattr(module, "tensor_power", counting(module.tensor_power))
        suites._suite_stein_trend(SuiteConfig())
        assert len(calls) == 14
        assert calls.count(6) == 6

    def test_rejects_malformed_report(self):
        with pytest.raises(ValidationError, match="missing"):
            report_from_json(json.dumps({"suites": []}))
