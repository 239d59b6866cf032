"""Tests of the benchmark itself: span and interval arithmetic, wrapper
restoration, the emitted metric names, the compare verdicts and the
missing-sources exit.

    python3 -m pytest -q bench/tests
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(ROOT / "src"))

import compare  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402


def _spec():
    with open(ROOT / "BENCHMARK.json") as fh:
        return json.load(fh)


def test_layer_totals_on_synthetic_tree():
    span_names = ["qdiv.divergences.umegaki", "qdiv.linalg.eigh", "numpy.linalg.eigh", "numpy.linalg.svd"]
    layers = [spans.layer_of(n) for n in span_names]
    #        umegaki [0,100] -> linalg.eigh [10,40] -> np.eigh [15,35]
    #                        -> np.svd [50,60]
    #                        -> linalg.eigh [70,90] -> np.eigh [72,88]
    names = [0, 1, 2, 3, 1, 2]
    parents = [-1, 0, 1, 0, 0, 4]
    starts = [0, 10, 15, 50, 70, 72]
    ends = [100, 40, 35, 60, 90, 88]
    calls, self_t, lapack = spans.layer_totals(names, parents, starts, ends, layers)
    assert calls == {"qdiv.divergences": 1, "qdiv.linalg": 2, "numpy.linalg": 3}
    assert self_t == {"qdiv.divergences": 100 - 30 - 10 - 20, "qdiv.linalg": 10 + 4, "numpy.linalg": 46}
    assert sum(self_t.values()) == 100
    assert lapack == {"qdiv.divergences": 10, "qdiv.linalg": 36}
    assert spans.matrices_beneath(names, parents, [0, 0, 1, 1, 0, 3], span_names,
                                  "qdiv.linalg.eigh", "numpy.linalg.eigh") == 4
    assert spans.matrices_beneath(names, parents, [0, 0, 1, 1, 0, 3], span_names,
                                  "qdiv.metrics.integral_divergence", "numpy.linalg.eigh") == 0


def test_wrappers_restored_after_traced_pass():
    q = run.load_program()
    watched = [(q.linalg, "eigh"), (q.divergences, "eigh"), (q.divergences, "umegaki"),
               (q.hypotest, "tensor_power"), (q.states.DensityMatrix, "__post_init__"),
               (np.linalg, "eigh"), (np.linalg, "svd")]
    before = [getattr(owner, attr) for owner, attr in watched]
    tracer = spans.Tracer()
    rho, sigma = q.fixtures.QUBIT_A
    with pytest.raises(RuntimeError), tracer.installed():
        assert all(getattr(o, a) is not b for (o, a), b in zip(watched, before))
        q.divergences.umegaki(rho, sigma)
        q.states.tensor_power(rho, 2)
        raise RuntimeError("the pass failed")
    assert all(getattr(o, a) is b for (o, a), b in zip(watched, before))
    vals = spans.layer_metrics(tracer)
    assert vals["qdiv.divergences.calls"] >= 1
    assert vals["numpy.linalg.eigh_calls"] >= 4
    assert vals["qdiv.states.tensor_power_calls"] == 1
    assert vals["numpy.linalg.max_dim"] == 4


def test_fastest_pass_takes_each_interval_at_its_shortest():
    passes = [np.array([1.0, 5.0, 2.0]), np.array([3.0, 4.0, 2.5]), np.array([2.0, 6.0, 1.5]),
              np.array([0.1, 0.1])]   # a pass with another call count is left out
    assert spans.fastest_pass(passes) == 1.0 + 4.0 + 1.5


def test_stamps_cut_a_pass_and_are_removed_afterwards():
    q = run.load_program()
    before = {f: getattr(np.linalg, f) for f in spans.LAPACK_FUNCS}
    stamps = spans.Stamps()
    with pytest.raises(RuntimeError), stamps.recording():
        t0 = spans.time.perf_counter()
        q.divergences.umegaki(*q.fixtures.QUBIT_A)
        t1 = spans.time.perf_counter()
        raise RuntimeError("the pass failed")
    assert all(getattr(np.linalg, f) is fn for f, fn in before.items())
    intervals = stamps.intervals(t0, t1)
    assert len(intervals) == len(stamps.times) + 1 >= 3
    assert (intervals >= 0).all() and abs(intervals.sum() - (t1 - t0)) < 1e-12


def test_emitted_metric_names_match_benchmark_json():
    q = run.load_program()
    tracer = spans.Tracer()
    with tracer.installed():
        q.divergences.umegaki(*q.fixtures.QUBIT_A)
    tally = run.Tally()
    tally.op("one", lambda: True)
    spec = _spec()
    passes = SimpleNamespace(intervals=[np.array([0.5, 0.5]), np.array([0.4, 0.7])], setups=[0.1, 0.2])
    e2e = run.end_to_end(passes, tally, 50.0)
    assert e2e["pass_s"]["value"] == pytest.approx(0.9) and e2e["setup_s"]["value"] == pytest.approx(0.15)
    layer = run.per_layer(tracer, 1.5, [1.0])
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == [(k, v["unit"]) for k, v in e2e.items()]
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == [(k, v["unit"]) for k, v in layer.items()]
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)


def test_compare_verdicts():
    parent = [10.0, 10.1, 9.9, 10.0, 10.05]
    assert compare.verdict(parent, [10.0, 10.1, 9.95, 10.02, 10.0], "lower", 0.1) == "unchanged"
    assert compare.verdict(parent, [12.0, 12.1, 11.9, 12.0, 12.05], "lower", 0.1) == "worse"
    assert compare.verdict(parent, [8.0, 8.1, 7.9, 8.0, 8.05], "lower", 0.1) == "improved"
    assert compare.verdict(parent, [5.0, 15.0, 8.0, 12.0, 10.0], "lower", 0.1) == "unresolved"
    assert compare.verdict([1.0] * 4, [0.999] * 4, "higher", 0.0005) == "worse"
    assert compare.verdict([52557] * 2, [30000] * 2, "lower") == "improved"
    assert compare.verdict([52557] * 2, [52557] * 2, "lower") == "unchanged"


def test_run_fails_without_program_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__", "tests"))
    proc = subprocess.run([sys.executable, "bench/run.py", "--workload", "operators", "--seed", "1",
                           "--seconds", "1", "--trace", "0"], cwd=tmp_path, capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode != 0
    assert proc.stdout == "" and "no qdiv sources" in proc.stderr
