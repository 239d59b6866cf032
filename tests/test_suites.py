"""Verification harness framework: determinism, schema stability, and
failure reproducibility."""

import collections
import dataclasses
import json

import pytest

from qdiv import hypotest, states, suites
from qdiv.config import DEFAULT_TOLERANCES
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

    @pytest.mark.parametrize("data,match", [
        ([1], "object"),
        ({"dims": 3}, "dims"),
        ({"n_range": [2, 3, 4]}, "n_range"),
        ({"suites": "sandwich"}, "suites must"),
        ({"tolerances": [1e-6]}, "tolerances"),
        ({"seed": None}, "malformed"),
        ({"trails": 3}, "trails"),
        # every slack is the fixed table in qdiv.config, and the measured
        # search has one budget: neither is a config key
        ({"tolerances": {"sandwich_slack": 1e-8}}, "unknown config keys.*tolerances"),
        ({"budget": 500}, "unknown config keys.*budget"),
        # numbers are JSON integers, not coerced: no float, bool or string
        ({"trials": 2.9}, "malformed config: trials"),
        ({"seed": 1.5}, "malformed config: seed"),
        ({"seed": True}, "malformed config: seed"),
        ({"dims": [2.7]}, "malformed config: dims"),
        ({"dims": ["2"]}, "malformed config: dims"),
        ({"n_range": [2.2, 6.9]}, "malformed config: n_range"),
        ({"suites": [1]}, "malformed config: suites"),
    ])
    def test_from_dict_rejects_malformed(self, data, match):
        with pytest.raises(ValidationError, match=match):
            SuiteConfig.from_dict(data)

    def test_from_dict(self):
        cfg = SuiteConfig.from_dict({"seed": 5, "trials": 3, "dims": [2], "n_range": [2, 4],
                                     "suites": ["sandwich"]})
        assert cfg == SuiteConfig(seed=5, trials=3, dims=(2,), n_range=(2, 4), suites=("sandwich",))

    def test_fields_are_the_five_settable_values(self):
        assert [f.name for f in dataclasses.fields(SuiteConfig)] == ["seed", "trials", "dims",
                                                                      "n_range", "suites"]


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

    def test_failures_carry_reproducing_seed(self, monkeypatch):
        # a zero slack fails every reconstruction residual left by roundoff
        monkeypatch.setitem(DEFAULT_TOLERANCES, "reconstruction", 0.0)
        cfg = SuiteConfig(seed=13, trials=2, dims=(2,), suites=("reverse-test-optimality",))
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

    def test_records_serialize_as_asdict(self):
        # same keys, order and values as dataclasses.asdict, so the report
        # JSON is unchanged
        cfg = SuiteConfig(seed=19, trials=1, dims=(2,), suites=("sandwich",))
        report, = run_suite(cfg)
        records = report.to_dict()["records"]
        assert records == [dataclasses.asdict(r) for r in report.records]
        assert [list(r) for r in records] == [list(dataclasses.asdict(r)) for r in report.records]

    def test_stein_trend_builds_no_power(self, validated_dims):
        # the threshold, the commuting control included, works on
        # Schur-Weyl blocks, the reverse tests at n = 6 on the one-copy frame,
        # and the smoothing on krons in sigma's eigenbasis, whose certificate
        # reads sigma^(x n) as a diagonal. No state above one copy is
        # validated: the smoothed states at n = 2 and 4 ([4, 16] before) are
        # built only when read, and the suite reads their bounds alone
        suites._suite_stein_trend(SuiteConfig())
        assert [d for d in validated_dims if d > 2] == []
        assert not hasattr(suites, "tensor_power")

    @staticmethod
    def _count(monkeypatch, names):
        """Calls of each name, as hypotest and suites read it."""
        calls = collections.Counter()
        for module in (hypotest, suites):
            for name in names:
                if hasattr(module, name):
                    build = getattr(module, name)
                    monkeypatch.setattr(module, name,
                                        lambda *args, name=name, build=build: calls.update([name]) or build(*args))
        return calls

    def test_stein_trend_builds_each_pair_once(self, monkeypatch):
        # one n-copy pair per n: the threshold and the curve points share its
        # powers, and the six reverse tests at n = 6 its one-copy frame; the
        # commuting control is one more pair. The one-copy pair reads the
        # Umegaki value once and dmax twice, for the scan interval of every n
        # and the smoothing's mid rate; the commuting pair reads dmax twice
        # (9 dmax reads before: 2 per pair and 1 for the mid rate)
        calls = self._count(monkeypatch, ("power_blocks", "support_frame", "dmax", "umegaki"))
        suites._suite_stein_trend(SuiteConfig())
        assert calls == {"power_blocks": 8, "support_frame": 1, "dmax": 4, "umegaki": 1}

    def test_stein_trend_builds_each_block_stack_once(self, monkeypatch):
        # sym_powers of rho's and sigma's eigenbases in each of the 8
        # power_blocks calls, and of the frame at n = 6 once, with the frame,
        # for all six reverse tests' error reads (6 before, one per read)
        calls = []
        for module in (hypotest, states):
            build = module.sym_powers
            monkeypatch.setattr(module, "sym_powers", lambda v, n, build=build: calls.append(n) or build(v, n))
        suites._suite_stein_trend(SuiteConfig())
        assert len(calls) == 9

    def test_conversion_builds_each_source_power_once(self, monkeypatch):
        # one source pair per n = 2, 4, 6, shared by both targets: its two
        # powers at each n (12 before, once per target), and one frame per
        # target, which its one-copy pair keeps for every n (6 before, one
        # per target and n). The source's and each target's Umegaki value
        # are read once (15 before: 3 in the suite and 2 per conversion)
        calls = self._count(monkeypatch, ("power_blocks", "support_frame", "umegaki"))
        suites._suite_conversion(SuiteConfig())
        assert calls == {"power_blocks": 6, "support_frame": 2, "umegaki": 3}

    def test_stein_trend_uses_no_dense_ratio_test(self, monkeypatch):
        # every trace record reads curve_points on the Schur-Weyl blocks
        calls = []
        dense = hypotest.CopyPair.projector

        def counting(*args):
            calls.append(args)
            return dense(*args)

        monkeypatch.setattr(hypotest.CopyPair, "projector", counting)
        suites._suite_stein_trend(SuiteConfig())
        assert calls == []

    def test_rejects_malformed_report(self):
        with pytest.raises(ValidationError, match="missing"):
            report_from_json(json.dumps({"suites": []}))
