"""Command-line interface: divergence/metric evaluation, reverse tests,
finite-n studies, and the verification harness.

Exit status is 0 only when every requested check passes. QDIV_DIM_CAP in the
environment overrides the tensor-power dimension cap.
"""

import argparse
import functools
import json
import math
import sys
from dataclasses import asdict, replace

import numpy as np

from .divergences import (dmax, fidelity_logdiv, measured_div_lower,
                          rld_entropy, umegaki)
from .errors import InfeasibleRateError, QdivError
from .hypotest import CopyPair, state_conversion, write_curve_csv
from .metrics import metric_scalar, named_metric
from .reverse import optimal_reverse_test
from .serialize import (dump, load_hermitian, load_state, reverse_test_to_dict)
from .states import TangentDirection
from .suites import SuiteConfig, report_to_dict, run_suite


def _emit(out: dict, path: str | None = None) -> None:
    # one strict-JSON object to stdout and to path: +-inf become strings, NaN null
    clean = {k: v if not isinstance(v, float) or math.isfinite(v) else
             None if math.isnan(v) else f"{'-' if v < 0 else ''}inf" for k, v in out.items()}
    if path:
        dump(clean, path)
    print(json.dumps(clean, allow_nan=False))


def _cmd_divergence(args) -> int:
    rho, sigma = load_state(args.rho), load_state(args.sigma)
    if args.kind in ("umegaki", "rld"):
        rep = (umegaki if args.kind == "umegaki" else rld_entropy)(rho, sigma)
        out = {"kind": args.kind, "value": rep.value, "support_condition": rep.support_condition}
    elif args.kind == "dmax":
        out = {"kind": args.kind, "value": dmax(rho, sigma)}
    elif args.kind == "fidelity":
        out = {"kind": args.kind, "value": fidelity_logdiv(rho, sigma)}
    else:
        val, _ = measured_div_lower(rho, sigma, budget=args.budget)
        out = {"kind": args.kind, "value": val, "budget": args.budget,
               "note": "lower bound from a deterministic ascent over projective measurements; "
                       "inf when supp rho escapes supp sigma"}
    _emit(out)
    return 0


def _cmd_metric(args) -> int:
    spec = named_metric(args.spec)
    rho = load_state(args.rho)
    x = TangentDirection(load_hermitian(args.tangent))
    _emit({"spec": spec.name, "value": metric_scalar(spec, rho, x)})
    return 0


def _cmd_reverse_test(args) -> int:
    rho, sigma = load_state(args.rho), load_state(args.sigma)
    rt = optimal_reverse_test(rho, sigma)
    if args.json:
        dump(reverse_test_to_dict(rt), args.json)
    _emit({"input_kl": rt.input_kl, "rld": rld_entropy(rho, sigma).value, "symbols": len(rt.p)})
    return 0


def _cmd_asym_threshold(args) -> int:
    rho, sigma = load_state(args.rho), load_state(args.sigma)
    pair = CopyPair(rho, sigma, args.n)
    thr = pair.threshold(args.eps)
    out = {"n": args.n, "eps": args.eps, "threshold": thr, "umegaki": umegaki(rho, sigma).value}
    if args.csv:
        rates = np.linspace(thr - 0.3, thr + 0.3, 13)
        write_curve_csv(args.csv, [(args.n, pt, thr) for pt in pair.curve_points(rates)])
        out["csv"] = args.csv
    _emit(out)
    return 0


def _cmd_asym_reverse_test(args) -> int:
    rho, sigma = load_state(args.rho), load_state(args.sigma)
    try:
        brt = CopyPair(rho, sigma, args.n).reverse_test(args.rate)
    except InfeasibleRateError as exc:
        out = {"n": args.n, "rate": args.rate, "feasible": False, "min_rate": exc.min_rate}
    else:
        out = {"n": args.n, "rate": brt.rate, "feasible": True, "certificate": brt.certificate,
               "rho_error": brt.rho_error, "sigma_error": brt.sigma_error, "q0": brt.q.probs[0]}
    _emit(out, args.json)
    return 0 if out["feasible"] else 1


def _cmd_asym_convert(args) -> int:
    rho0, sigma0 = load_state(args.rho0), load_state(args.sigma0)
    rho, sigma = load_state(args.rho), load_state(args.sigma)
    _, rep = state_conversion(rho0, sigma0, rho, sigma, args.n, args.c)
    _emit(asdict(rep), args.json)
    return 0 if rep.feasible else 1


def _cmd_verify(args) -> int:
    data = {}
    if args.config:
        with open(args.config) as fh:
            data = json.load(fh)
    flags = {"seed": args.seed, "trials": args.trials, "suites": tuple(args.suite) if args.suite else None}
    config = replace(SuiteConfig.from_dict(data), **{k: v for k, v in flags.items() if v is not None})
    reports = run_suite(config)
    payload = report_to_dict(config, reports)
    if args.report:
        dump(payload, args.report)
    for rep in reports:
        status = "ok" if rep.n_failed == 0 else "FAIL"
        print(f"{rep.suite:28s} {rep.n_passed:4d} passed {rep.n_failed:4d} failed "
              f"[{rep.wall_time:7.2f}s] {status}")
        if rep.n_failed:
            for rec in rep.records:
                if not rec.passed:
                    print(f"  FAIL {rec.name} seed={rec.seed} digest={rec.inputs_digest} "
                          f"measured={rec.measured!r} bound={rec.bound!r} margin={rec.margin!r}")
    print(f"total: {payload['passed']} passed, {payload['failed']} failed")
    return 0 if payload["failed"] == 0 else 1


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="qdiv", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("divergence", help="evaluate a divergence on a state pair")
    p.add_argument("--kind", required=True, choices=["umegaki", "rld", "dmax", "fidelity", "measured"])
    p.add_argument("--rho", required=True)
    p.add_argument("--sigma", required=True)
    p.add_argument("--budget", type=int, default=500)
    p.set_defaults(fn=_cmd_divergence)

    p = sub.add_parser("metric", help="evaluate a monotone metric in a tangent direction")
    p.add_argument("--spec", required=True, help="sld | rld | bkm | wy | alpha=A")
    p.add_argument("--rho", required=True)
    p.add_argument("--tangent", required=True)
    p.set_defaults(fn=_cmd_metric)

    p = sub.add_parser("reverse-test", help="construct the optimal reverse test")
    p.add_argument("--rho", required=True)
    p.add_argument("--sigma", required=True)
    p.add_argument("--json", default=None)
    p.set_defaults(fn=_cmd_reverse_test)

    asym = sub.add_parser("asym", help="finite-n studies").add_subparsers(dest="asym_command", required=True)

    p = asym.add_parser("threshold", help="acceptance threshold scan")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--rho", required=True)
    p.add_argument("--sigma", required=True)
    p.add_argument("--eps", type=float, default=0.5)
    p.add_argument("--csv", default=None)
    p.set_defaults(fn=_cmd_asym_threshold)

    p = asym.add_parser("reverse-test", help="binary asymptotic reverse test at a rate")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--rho", required=True)
    p.add_argument("--sigma", required=True)
    p.add_argument("--rate", type=float, required=True)
    p.add_argument("--json", default=None)
    p.set_defaults(fn=_cmd_asym_reverse_test)

    p = asym.add_parser("convert", help="measure-and-prepare pair conversion")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--rho0", required=True)
    p.add_argument("--sigma0", required=True)
    p.add_argument("--rho", required=True)
    p.add_argument("--sigma", required=True)
    p.add_argument("--c", type=float, default=0.05)
    p.add_argument("--json", default=None)
    p.set_defaults(fn=_cmd_asym_convert)

    p = sub.add_parser("verify", help="run the randomized verification suites")
    p.add_argument("--config", default=None)
    p.add_argument("--suite", action="append", default=None)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--trials", type=int, default=None)
    p.add_argument("--report", default=None)
    p.set_defaults(fn=_cmd_verify)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except (QdivError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
