"""qdiv benchmark: one workload per run, closed loop, checked outputs.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1 [--out FILE]
    python3 bench/run.py --compare PARENT.jsonl CHANGE.jsonl

A run imports qdiv from src/ of the checkout, makes the workload's inputs from
the seed, then repeats passes (each call issued after the previous returns)
until --seconds have elapsed, checking every pass's outputs. The last line of
stdout is one JSON object: correct, attempted, failed and metrics. With
--trace 0 the metrics are the end-to-end ones, measured with tracing off; with
--trace 1 they are the per-layer ones, from one traced pass after untraced
passes. --out appends the result, the pass times and the environment to a
JSON-lines file that --compare reads.
"""

import os

# One BLAS thread: the benchmark is single-threaded, and OpenBLAS's idle
# threads spin on the other cores between calls. Set before numpy loads.
os.environ["OPENBLAS_NUM_THREADS"] = "1"

import argparse  # noqa: E402
import ctypes  # noqa: E402
import gc  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402
from types import SimpleNamespace  # noqa: E402

import numpy as np  # noqa: E402

import compare  # noqa: E402
import spans  # noqa: E402
from workloads import WORKLOADS, Tally  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_out"
SETUP_REPEATS = 11
MODULES = ("cli", "config", "divergences", "errors", "fixtures", "hypotest", "linalg",
           "metrics", "reverse", "serialize", "states", "suites")

END_TO_END_UNITS = {"pass_s": "s", "setup_s": "s", "ops_passed_frac": "frac", "peak_rss_mb": "MB"}
# Layer times are reported only for the layers every workload enters, so that
# no reported time is zero by construction on some workload; calls are
# counted for every layer, and every layer's times are in the spans file.
LAYER_TIMES = ("numpy.linalg.self_s", "qdiv.linalg.self_s", "qdiv.linalg.lapack_s",
               "qdiv.states.self_s", "qdiv.states.lapack_s", "qdiv.divergences.self_s")


def per_layer_units() -> dict:
    units = {f"{layer}.calls": "count" for layer in spans.LAYERS}
    units.update({name: "s" for name in LAYER_TIMES})
    units.update({"numpy.linalg.eigh_calls": "count", "numpy.linalg.matrices": "count",
                  "numpy.linalg.work_d3": "d3", "numpy.linalg.max_dim": "dim",
                  "numpy.linalg.eigh_repeat_frac": "frac", "qdiv.metrics.integral_nodes": "count",
                  "qdiv.hypotest.np_projector_calls": "count", "qdiv.states.tensor_power_calls": "count",
                  "trace_overhead_frac": "frac"})
    return units


def load_program() -> SimpleNamespace:
    """Import qdiv afresh: drop every loaded qdiv module first."""
    for name in [m for m in sys.modules if m == "qdiv" or m.startswith("qdiv.")]:
        del sys.modules[name]
    return SimpleNamespace(**{m: importlib.import_module(f"qdiv.{m}") for m in MODULES})


def timed_passes(workload, seed: int, tmp: str, seconds: float, tally: Tally) -> SimpleNamespace:
    """Untraced passes until `seconds` of wall time have gone (at least one),
    with SETUP_REPEATS set-ups spread evenly over that time.

    A set-up imports qdiv afresh and makes the inputs from the seed; the passes
    after it run that program on those inputs, the same work each time.
    Set-ups are spread out so that their median, like the passes, samples the
    whole run. Garbage is collected before each pass: an output that holds an
    exception holds, through its traceback, the frame that holds the whole
    output, so without it one pass's outputs can live on through the next pass.
    """
    stamps = spans.Stamps()
    setups, times, intervals, extras = [], [], [], []
    start = time.perf_counter()
    while not times or time.perf_counter() - start < seconds:
        if len(setups) < SETUP_REPEATS and time.perf_counter() - start >= len(setups) * seconds / SETUP_REPEATS:
            t0 = time.perf_counter()
            q = load_program()
            inputs = workload.setup(q, seed, tmp)
            setups.append(time.perf_counter() - t0)
        gc.collect()
        with stamps.recording():
            t0 = time.perf_counter()
            out = workload.run(q, inputs)
            t1 = time.perf_counter()
        times.append(t1 - t0)
        intervals.append(stamps.intervals(t0, t1))
        extras.append(workload.check(q, inputs, out, tally))
        del out
    return SimpleNamespace(q=q, inputs=inputs, setups=setups, times=times, intervals=intervals,
                           extras=extras)


def traced_pass(workload, q, inputs, tally: Tally):
    tracer = spans.Tracer()
    gc.collect()
    with tracer.installed():
        t0 = time.perf_counter()
        out = workload.run(q, inputs)
        elapsed = time.perf_counter() - t0
    workload.check(q, inputs, out, tally)
    return tracer, elapsed


def metric(value, unit: str) -> dict:
    return {"value": value, "unit": unit}


def end_to_end(passes: SimpleNamespace, tally: Tally, peak_rss_mb: float) -> dict:
    vals = {"pass_s": spans.fastest_pass(passes.intervals),
            "setup_s": statistics.median(passes.setups),
            "ops_passed_frac": (tally.attempted - tally.failed) / tally.attempted,
            "peak_rss_mb": peak_rss_mb}
    return {k: metric(v, END_TO_END_UNITS[k]) for k, v in vals.items()}


def per_layer(tracer, traced_s: float, pass_times) -> dict:
    vals = spans.layer_metrics(tracer)
    vals["trace_overhead_frac"] = traced_s / statistics.median(pass_times) - 1
    units = per_layer_units()
    return {k: metric(vals[k], u) for k, u in units.items()}


def blas_threads():
    """Thread count of the OpenBLAS that numpy loaded, or None if unknown."""
    libdir = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for lib in sorted(libdir.glob("*openblas*.so*")):
        handle = ctypes.CDLL(str(lib))
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(handle, sym, None)
            if fn is not None:
                fn.restype, fn.argtypes = ctypes.c_int, []
                return fn()
    return None


def environment(seed: int) -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"python": platform.python_version(), "numpy": np.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}", "blas_threads": blas_threads(),
            "nproc": os.cpu_count(), "cpus_allowed": len(os.sched_getaffinity(0)),
            "machine": platform.machine(), "seed": seed}


def run(args) -> tuple[dict, dict]:
    workload = WORKLOADS[args.workload]()
    tally = Tally()
    OUT_DIR.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT_DIR) as tmp:
        passes = timed_passes(workload, args.seed, tmp, args.seconds / 2 if args.trace else args.seconds, tally)
        # the peak of the set-ups and timed passes, before a traced or final pass
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        if args.trace:
            tracer, traced_s = traced_pass(workload, passes.q, passes.inputs, tally)
            tracer.write(OUT_DIR / f"spans-{workload.name}.tsv")
        final = workload.final(passes.q, passes.inputs, tally) if hasattr(workload, "final") else {}
    if args.trace:
        metrics = per_layer(tracer, traced_s, passes.times)
    else:
        metrics = end_to_end(passes, tally, peak_rss_mb)
    suites = {}
    for extra in passes.extras:
        for suite, secs in extra.items():
            suites.setdefault(suite, []).append(secs)
    result = {"correct": tally.correct,
              "attempted": tally.attempted, "failed": tally.failed, "metrics": metrics}
    detail = {"passes_s": passes.times, "median_pass_s": statistics.median(passes.times),
              "setups_s": passes.setups, "failures": sorted(set(tally.failures)),
              "ops_failed_frac": tally.failed / tally.attempted,
              "suites_s": {suite: statistics.median(secs) for suite, secs in suites.items()}, **final}
    return result, detail


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=20240)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", default=None, help="append the run's record to this JSON-lines file")
    parser.add_argument("--compare", nargs=2, metavar=("PARENT", "CHANGE"))
    args = parser.parse_args(argv)
    if args.compare:
        return compare.main(*args.compare, ROOT / "BENCHMARK.json")
    if args.workload is None:
        parser.error("--workload is required")
    if not (SRC / "qdiv" / "__init__.py").is_file():
        print(f"error: no qdiv sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    result, detail = run(args)
    env = environment(args.seed)
    print("env " + json.dumps(env))
    print("detail " + json.dumps(detail))
    if args.out:
        record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
                  "trace": args.trace, "env": env, "detail": detail, "result": result}
        with open(args.out, "a") as fh:
            fh.write(json.dumps(record) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
