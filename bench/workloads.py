"""The benchmark's workloads.

Each workload makes its inputs from the seed (`setup`), runs one pass of
operations (`run`, the timed part) and checks that pass's outputs (`check`,
untimed). The program is reached only through the module namespace `q`, so a
traced pass sees the wrapped functions.

An operation counts as failed when it raises where no error is expected,
does not raise where the documented error is expected, or its output misses
its check. Tolerances come from qdiv's own DEFAULT_TOLERANCES.
"""

import contextlib
import io
import math
import os
import time

import numpy as np


class Raised:
    """An operation's exception, kept as its result."""

    def __init__(self, exc: BaseException):
        self.exc = exc


def attempt(fn, *args):
    try:
        return fn(*args)
    except Exception as exc:  # an unexpected error is a failed op, not a crashed run
        return Raised(exc)


class Tally:
    """Operations attempted and failed. `correct` is false once a check the
    benchmark makes on an output fails; failures that the program reports
    about itself (the records of a verify report) count in `failed` only."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.correct = True
        self.failures: list[str] = []

    def op(self, name: str, check) -> None:
        """Count one operation; `check()` returns whether its output is right."""
        self.attempted += 1
        try:
            ok = bool(check())
        except Exception:  # a check that cannot evaluate the output fails the op
            ok = False
        if not ok:
            self.failed += 1
            self.correct = False
            self.failures.append(name)


def value(result):
    if isinstance(result, Raised):
        raise result.exc
    return result


def raised(result, error_cls) -> bool:
    return isinstance(result, Raised) and isinstance(result.exc, error_cls)


def rel_gap(a: float, b: float) -> float:
    """|a - b| / (1 + |b|), the form qdiv.suites uses for large values."""
    return abs(a - b) / (1 + abs(b))


def rel_excess(a: float, b: float) -> float:
    """(a - b) / (1 + |b|): how far a exceeds b, relative to b's size."""
    return (a - b) / (1 + abs(b))


# ---------------------------------------------------------------------------


# Trials per suite in a timed verify pass. The default configuration's 40
# trials make a pass too long to repeat the many times the timing needs (see
# spans.fastest_pass and bench/README.md); one trial keeps every suite and its
# code path.
VERIFY_TRIALS = 1


class Verify:
    """`qdiv verify --seed S --report FILE`: the default configuration (dims
    2-3, n_range 2-6, all nine suites) at one trial per suite in each timed
    pass, and once per run at its default 40 trials."""

    name = "verify"

    def setup(self, q, seed: int, tmp: str) -> dict:
        report = os.path.join(tmp, "verify-report.json")
        return {"argv": ["verify", "--seed", str(seed), "--trials", str(VERIFY_TRIALS), "--report", report],
                "default_argv": ["verify", "--seed", str(seed), "--report", report],
                "report": report, "suites": tuple(q.suites.ALL_SUITES)}

    def run(self, q, inp, which: str = "argv"):
        with contextlib.redirect_stdout(io.StringIO()):
            return q.cli.main(inp[which])

    def check(self, q, inp, code, tally: Tally) -> dict:
        """Counts every check record of the report as one operation; the
        report's own verdict decides whether it failed. The benchmark checks
        that the report is complete and agrees with itself and the exit code."""
        try:
            with open(inp["report"]) as fh:
                report = q.suites.report_from_json(fh.read())
            os.remove(inp["report"])   # a pass that writes no report must not see this one
        except (OSError, ValueError, q.errors.QdivError):
            tally.op("verify report", lambda: False)
            return {}
        suites = report["suites"]
        records = [r for s in suites for r in s["records"]]
        n_failed = sum(not r["passed"] for r in records)
        tally.attempted += len(records)
        tally.failed += n_failed
        tally.failures += [f"{r['name']} seed={r['seed']}" for r in records if not r["passed"]]
        tally.correct &= (tuple(s["suite"] for s in suites) == inp["suites"]
                          and report["failed"] == n_failed
                          and report["passed"] == len(records) - n_failed
                          and all(s["failed"] == sum(not r["passed"] for r in s["records"]) for s in suites)
                          and code == (1 if n_failed else 0))
        return {s["suite"]: s["wall_time"] for s in suites}

    def final(self, q, inp, tally: Tally) -> dict:
        """One pass at the default 40 trials, what users run, checked like the
        timed passes. Seed 20240 fails 2 of its 1712 records."""
        attempted, failed = tally.attempted, tally.failed
        t0 = time.perf_counter()
        code = self.run(q, inp, "default_argv")
        elapsed = time.perf_counter() - t0
        self.check(q, inp, code, tally)
        return {"default_pass_s": elapsed, "default_records": tally.attempted - attempted,
                "default_failed": tally.failed - failed}


# ---------------------------------------------------------------------------

# d=64 keeps LAPACK and the O(d^4) frame validation ahead of per-call
# overhead while a pass stays short (see bench/README.md).
PAIR_DIM = 64
LOW_RANK = 32
INTEGRAL_DIM = 16
MEASURED_BUDGET = 16
# The d=16 quadrature pair takes the spectra of these two fixed Ginibre draws
# (sigma's smallest eigenvalue is 5.7e-5) and Haar eigenbases from the seed,
# so that its node count, and with it the pass time, does not depend on the
# seed: 962 eighs per call.
INTEGRAL_SPECTRUM_SEEDS = (11, 12)


class PairsD64:
    """Divergences, reverse tests and metrics on seeded Ginibre pairs at d=64:
    a full-rank pair, a rank-32 rho against a full-rank sigma, and that pair
    reversed, whose supports violate."""

    def setup(self, q, seed: int, tmp: str) -> dict:
        st, derive = q.states, q.config.derive_seed
        full_r = st.random_density(PAIR_DIM, seed=derive(seed, 1))
        full_s = st.random_density(PAIR_DIM, seed=derive(seed, 2))
        low_r = st.random_density(PAIR_DIM, rank=LOW_RANK, seed=derive(seed, 3))
        rng = np.random.default_rng(derive(seed, 5))
        integral_pair = []
        for ref in INTEGRAL_SPECTRUM_SEEDS:
            w = np.linalg.eigvalsh(st.random_density(INTEGRAL_DIM, seed=ref).matrix)
            u = st.random_unitary(INTEGRAL_DIM, rng)
            integral_pair.append(st.DensityMatrix((u * w) @ u.conj().T))
        m = q.metrics
        return {"pairs": (("full", full_r, full_s, "equal"),
                          ("low_rank", low_r, full_s, "contained"),
                          ("reversed", full_s, low_r, "violated")),
                "tangent": st.random_tangent(PAIR_DIM, seed=derive(seed, 4)),
                "specs": (m.sld_metric(), m.wy_metric(), m.bkm_metric(), m.rld_metric(),
                          m.alpha_metric(2.0)),
                "integral_pair": tuple(integral_pair),
                "measured_seed": derive(seed, 6)}

    def run(self, q, inp) -> dict:
        dv, mt, rv = q.divergences, q.metrics, q.reverse
        x = inp["tangent"]
        out = {}
        for label, rho, sigma, _ in inp["pairs"]:
            out[label] = {
                "umegaki": attempt(dv.umegaki, rho, sigma),
                "rld": attempt(dv.rld_entropy, rho, sigma),
                "dmax": attempt(dv.dmax, rho, sigma),
                "fidelity": attempt(dv.fidelity_logdiv, rho, sigma),
                "reverse_test": attempt(rv.optimal_reverse_test, rho, sigma),
                "metrics": [attempt(mt.petz_metric, spec, rho, x) for spec in inp["specs"]],
                "sld_measurement": attempt(mt.sld_optimal_measurement, rho, x),
                "reverse_estimation": attempt(rv.reverse_estimation_1param, rho, x),
                "measured": attempt(dv.measured_div_lower, rho, sigma, MEASURED_BUDGET,
                                    inp["measured_seed"]),
            }
        ir, isg = inp["integral_pair"]
        out["integral"] = attempt(mt.integral_divergence, mt.bkm_metric(), ir, isg)
        out["integral_umegaki"] = attempt(dv.umegaki, ir, isg)
        return out

    def check(self, q, inp, out, tally: Tally) -> dict:
        tol = q.config.DEFAULT_TOLERANCES
        err = q.errors
        slack = tol["sandwich_slack"]
        order = tol["metric_order_slack"]
        for label, rho, sigma, support in inp["pairs"]:
            r = out[label]
            finite = support != "violated"
            full_rank_rho = label != "low_rank"

            def flagged(key):
                rep = value(r[key])
                return rep.support_condition == support and rep.finite == finite

            tally.op(f"{label}/umegaki", lambda: flagged("umegaki"))
            # sandwich: measured <= umegaki <= rld <= dmax (all +inf when violated)
            tally.op(f"{label}/rld_entropy", lambda: flagged("rld") and
                     value(r["umegaki"]).value <= value(r["rld"]).value + slack)
            tally.op(f"{label}/dmax", lambda: math.isfinite(value(r["dmax"])) == finite and
                     value(r["rld"]).value <= value(r["dmax"]) + slack)
            tally.op(f"{label}/fidelity_logdiv", lambda: math.isfinite(value(r["fidelity"])))
            tally.op(f"{label}/measured_div_lower",
                     lambda: value(r["measured"])[0] <= value(r["umegaki"]).value + slack)

            if label == "full":
                tally.op(f"{label}/optimal_reverse_test", lambda: self._reverse_test_ok(q, tol, rho, sigma, r))
            else:
                tally.op(f"{label}/optimal_reverse_test",
                         lambda: raised(r["reverse_test"], err.SupportViolationError))

            names = [spec.name for spec in inp["specs"]]
            if full_rank_rho:
                vals = dict(zip(names, (value(v).real for v in r["metrics"])))
                # sld <= wy <= bkm <= rld, and every monotone metric between sld and rld
                bounds = {"sld": ("sld", "wy"), "wy": ("sld", "bkm"), "bkm": ("wy", "rld"),
                          "rld": ("bkm", "rld"), "alpha=2": ("sld", "rld")}
                for name in names:
                    lo, hi = bounds[name]
                    tally.op(f"{label}/petz_metric[{name}]",
                             lambda lo=lo, hi=hi, name=name: rel_excess(vals[lo], vals[name]) <= order
                             and rel_excess(vals[name], vals[hi]) <= order)
                tally.op(f"{label}/sld_optimal_measurement",
                         lambda: rel_gap(value(r["sld_measurement"])[1], vals["sld"]) <= tol["sld_achievability"])
                tally.op(f"{label}/reverse_estimation_1param",
                         lambda: rel_gap(value(r["reverse_estimation"]).input_fisher, vals["rld"])
                         <= tol["reverse_estimation_match"])
            else:
                for name, res in zip(names, r["metrics"]):
                    tally.op(f"{label}/petz_metric[{name}]", lambda res=res: raised(res, err.RankError))
                tally.op(f"{label}/sld_optimal_measurement",
                         lambda: raised(r["sld_measurement"], err.RankError))
                tally.op(f"{label}/reverse_estimation_1param",
                         lambda: raised(r["reverse_estimation"], err.SupportViolationError))

        tally.op("integral/umegaki", lambda: value(out["integral_umegaki"]).finite)
        tally.op("integral/integral_divergence[bkm]",
                 lambda: abs(value(out["integral"]) - value(out["integral_umegaki"]).value)
                 <= tol["integral_identity"])
        return {}

    @staticmethod
    def _reverse_test_ok(q, tol, rho, sigma, r) -> bool:
        rt = value(r["reverse_test"])
        recon = tol["reconstruction"]
        rebuilt_s = q.states.cq_apply(rt.preparation, rt.q).matrix
        rebuilt_r = q.states.cq_apply(rt.preparation, rt.p).matrix
        return (rel_gap(rt.input_kl, value(r["rld"]).value) <= tol["reverse_test_match"]
                and np.linalg.norm(rebuilt_s - sigma.matrix) <= recon
                and np.linalg.norm(rebuilt_r - rho.matrix) <= recon)


# ---------------------------------------------------------------------------

# n=6 (64x64 operators) keeps a pass short (see bench/README.md).
N_COPIES = 6
EPS = 0.5
# qdiv.suites pins these: the gap |threshold - D| shrinks from n=4 to n=6, and
# the commuting control matches the classical scan to 1e-9
GAP_REFERENCE_N = 4
COMMUTING_MATCH = 1e-9
# asymptotic_reverse_test accepts a certificate up to rate + 1e-9
CERTIFICATE_SLACK = 1e-9
CURVE_RATES = 13


class FiniteN6:
    """Finite-n constructions on the committed fixtures at n=6, where every
    operator is a dense 64x64 matrix. The inputs do not depend on the seed."""

    def setup(self, q, seed: int, tmp: str) -> dict:
        fx, dv = q.fixtures, q.divergences
        rho, sigma = fx.QUBIT_A
        d = dv.umegaki(rho, sigma).value
        gap_reference = abs(q.hypotest.stein_threshold(rho, sigma, GAP_REFERENCE_N, EPS) - d)
        dm = dv.dmax(rho, sigma)
        d0 = dv.umegaki(*fx.CONVERSION_SOURCE).value
        targets = tuple((name, pair, 0.45 * (d0 - dv.umegaki(*pair).value))
                        for name, pair in (("qubit_a", fx.QUBIT_A), ("qubit_b", fx.QUBIT_B)))
        return {"pair": (rho, sigma), "D": d, "gap_reference": gap_reference, "rates": ((d + dm) / 2, d + 0.05),
                "commuting": fx.COMMUTING, "source": fx.CONVERSION_SOURCE, "targets": targets}

    def run(self, q, inp) -> dict:
        hy = q.hypotest
        rho, sigma = inp["pair"]
        out = {"stein": attempt(hy.stein_threshold, rho, sigma, N_COPIES, EPS),
               "stein_commuting": attempt(hy.stein_threshold, *inp["commuting"], N_COPIES, EPS),
               "reverse_tests": [attempt(hy.asymptotic_reverse_test, rho, sigma, N_COPIES, rate)
                                 for rate in inp["rates"]],
               "conversions": [attempt(hy.state_conversion, *inp["source"], *pair, N_COPIES, c)
                               for _, pair, c in inp["targets"]]}
        thr = out["stein"]
        out["curve"] = thr if isinstance(thr, Raised) else attempt(
            hy.curve_points, rho, sigma, N_COPIES, np.linspace(thr - 0.3, thr + 0.3, CURVE_RATES))
        return out

    def check(self, q, inp, out, tally: Tally) -> dict:
        tol = q.config.DEFAULT_TOLERANCES
        _, sigma = inp["pair"]
        tally.op("stein_threshold[qubit_a]",
                 lambda: abs(value(out["stein"]) - inp["D"]) <= inp["gap_reference"])
        cr, cs = inp["commuting"]
        oracle = q.suites.classical_threshold_oracle(np.diag(cr.matrix).real, np.diag(cs.matrix).real,
                                                     N_COPIES, EPS)
        tally.op("stein_threshold[commuting]",
                 lambda: abs(value(out["stein_commuting"]) - oracle) <= COMMUTING_MATCH)
        sigma_n = q.states.tensor_power(sigma, N_COPIES).matrix
        for rate, res in zip(inp["rates"], out["reverse_tests"]):
            tally.op(f"asymptotic_reverse_test[{rate:.4f}]",
                     lambda rate=rate, res=res: self._reverse_test_ok(tol, sigma_n, rate, value(res)))
        for (name, _, _), res in zip(inp["targets"], out["conversions"]):
            tally.op(f"state_conversion[{name}]",
                     lambda res=res: value(res)[1].feasible
                     and value(res)[1].sigma_error <= tol["sigma_exact"])
        tally.op("curve_points", lambda: len(value(out["curve"])) == CURVE_RATES and all(
            pt.type2 <= math.exp(-N_COPIES * pt.a) * (1 + tol["type2_slack"]) for pt in value(out["curve"])))
        return {}

    @staticmethod
    def _reverse_test_ok(tol, sigma_n, rate, brt) -> bool:
        """The certificate meets the rate and holds (state <= e^{n rate}
        sigma^n), and the preparation returns sigma^n exactly."""
        state = brt.preparation.states[0].matrix
        witness = math.exp(N_COPIES * rate) * sigma_n - state
        return (brt.certificate <= rate + CERTIFICATE_SLACK
                and float(np.linalg.eigvalsh(witness).min()) >= -CERTIFICATE_SLACK
                and brt.sigma_error <= tol["sigma_exact"])


# ---------------------------------------------------------------------------


class Operators:
    """PairsD64 then FiniteN6 in each pass. They share one workload because
    the time the whole benchmark may take allows runs long enough for the
    timing (see spans.fastest_pass) to two workloads, not three."""

    name = "operators"

    def __init__(self):
        self.parts = (PairsD64(), FiniteN6())

    def setup(self, q, seed: int, tmp: str) -> list:
        return [part.setup(q, seed, tmp) for part in self.parts]

    def run(self, q, inp) -> list:
        return [part.run(q, i) for part, i in zip(self.parts, inp)]

    def check(self, q, inp, out, tally: Tally) -> dict:
        for part, i, o in zip(self.parts, inp, out):
            part.check(q, i, o, tally)
        return {}


WORKLOADS = {w.name: w for w in (Verify, Operators)}
