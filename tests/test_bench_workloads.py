"""One set-up, pass and check of each benchmark workload (bench/workloads.py)
at seed 1 against this source tree, so that a change to qdiv that breaks what
the benchmark calls fails here too."""

import importlib
import pkgutil
import types
from pathlib import Path

import pytest

import qdiv

WORKLOADS_PY = Path(__file__).resolve().parent.parent / "bench" / "workloads.py"


def _load_workloads() -> types.ModuleType:
    # Compiled from source so that nothing is written under bench/.
    module = types.ModuleType("bench_workloads")
    module.__file__ = str(WORKLOADS_PY)
    exec(compile(WORKLOADS_PY.read_text(), str(WORKLOADS_PY), "exec"), module.__dict__)
    return module


WORKLOADS = _load_workloads()


def _program() -> types.SimpleNamespace:
    """The namespace the benchmark calls qdiv through, built from the qdiv
    modules this session already imported."""
    names = [m.name for m in pkgutil.iter_modules(qdiv.__path__)]
    return types.SimpleNamespace(**{n: importlib.import_module(f"qdiv.{n}") for n in names})


@pytest.mark.parametrize("name", list(WORKLOADS.WORKLOADS))
def test_workload_pass_is_correct(name, tmp_path):
    q = _program()
    workload = WORKLOADS.WORKLOADS[name]()
    tally = WORKLOADS.Tally()
    inputs = workload.setup(q, 1, str(tmp_path))
    workload.check(q, inputs, workload.run(q, inputs), tally)
    assert tally.attempted > 0
    assert tally.correct and tally.failed == 0, tally.failures
