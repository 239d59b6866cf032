"""Randomized verification suites over the package's inequalities and
identities, with machine-readable reports.

Each check record carries the derived seed and an input digest so any failure
reproduces exactly. Tolerances come from one table; suites never inline
numeric slack.
"""

import functools
import hashlib
import json
import math
import time
from dataclasses import dataclass, field, asdict

import numpy as np

from . import fixtures
from .config import DEFAULT_TOLERANCES, derive_seed, dimension_cap
from .divergences import (dmax, fidelity_logdiv, kl, measured_div_lower,
                          rld_entropy, umegaki)
from .errors import ValidationError
from .hypotest import (binary_reverse_test, np_projector, smooth_state,
                       state_conversion, stein_threshold, threshold_scan)
from .linalg import frobenius
from .metrics import (alpha_metric, bkm_metric, classical_fisher_scalar,
                      holevo_rld_bound, holevo_rld_minimizer,
                      integral_divergence, metric_scalar, rld_matrix,
                      rld_metric, rld_operator, sld_metric,
                      sld_optimal_measurement, wy_metric)
from .reverse import (optimal_reverse_test, pushforward_reverse_test,
                      refine_reverse_estimation, refine_reverse_test,
                      reverse_estimation_1param)
from .states import (ClassicalDistribution, DensityMatrix, TangentDirection,
                     apply_channel, apply_channel_tangent, cq_apply,
                     random_commuting_pair, random_cptp, random_density,
                     random_tangent, tensor_power)

ALL_SUITES = ("monotonicity", "sandwich", "joint-convexity", "reverse-test-optimality",
              "integral-identities", "metric-ordering", "stein-trend", "conversion",
              "fidelity-counterexample")


def _even_ns(n_range: tuple) -> list:
    """The even n of n_range in [2, 8], the sizes the finite-n suites run."""
    return [n for n in range(max(n_range[0], 2), min(n_range[1], 8) + 1) if n % 2 == 0]


@dataclass(frozen=True)
class SuiteConfig:
    seed: int = 20240
    trials: int = 40
    dims: tuple = (2, 3)
    tolerances: dict = field(default_factory=dict)
    n_range: tuple = (2, 6)
    suites: tuple = ALL_SUITES
    budget: int = 500

    def __post_init__(self):
        if self.trials < 1:
            raise ValidationError("trials must be >= 1")
        if self.budget < 1:
            raise ValidationError("budget must be >= 1")
        if not self.dims or not set(self.dims) <= set(range(2, 7)):
            raise ValidationError(f"dims must be a nonempty subset of 2..6, got {self.dims}")
        if len(self.n_range) != 2 or self.n_range[0] < 1 or not _even_ns(self.n_range):
            raise ValidationError(f"bad n_range {self.n_range}: it must hold an even n in [2, 8]")
        if 2 ** self.n_range[1] > dimension_cap():
            raise ValidationError(f"n_range {self.n_range} exceeds the dimension cap")
        unknown = set(self.suites) - set(ALL_SUITES)
        if unknown:
            raise ValidationError(f"unknown suites: {sorted(unknown)}")
        unknown = set(self.tolerances) - set(DEFAULT_TOLERANCES)
        if unknown:
            raise ValidationError(f"unknown tolerances: {sorted(unknown)}")
        bad = sorted(name for name, t in self.tolerances.items()
                     if not 0 <= t < math.inf or name == "stein_grid_width" and t == 0)
        if bad:
            raise ValidationError(f"tolerances must be finite and nonnegative, stein_grid_width positive: {bad}")

    def tol(self, name: str) -> float:
        return float(self.tolerances.get(name, DEFAULT_TOLERANCES[name]))

    @staticmethod
    def from_dict(data: dict) -> "SuiteConfig":
        if not isinstance(data, dict):
            raise ValidationError("config must be a JSON object")
        convert = {"seed": int, "trials": int, "budget": int,
                   "dims": lambda v: tuple(int(d) for d in v), "n_range": lambda v: tuple(int(n) for n in v),
                   "suites": lambda v: tuple(str(name) for name in v),
                   "tolerances": lambda v: {name: float(t) for name, t in v.items()}}
        unknown = set(data) - set(convert)
        if unknown:
            raise ValidationError(f"unknown config keys: {sorted(unknown)}")
        for key, shape in (("dims", list), ("n_range", list), ("suites", list), ("tolerances", dict)):
            if key in data and not isinstance(data[key], shape):
                raise ValidationError(f"config {key} must be a JSON {'object' if shape is dict else 'array'}")
        try:
            kwargs = {key: convert[key](value) for key, value in data.items()}
        except (TypeError, ValueError) as exc:
            raise ValidationError(f"malformed config: {exc}") from exc
        return SuiteConfig(**kwargs)


@dataclass(frozen=True)
class CheckRecord:
    name: str
    seed: int
    inputs_digest: str
    measured: float
    bound: float
    margin: float
    passed: bool


@dataclass
class SuiteReport:
    suite: str
    records: list
    wall_time: float = 0.0

    @property
    def n_passed(self) -> int:
        return sum(r.passed for r in self.records)

    @property
    def n_failed(self) -> int:
        return sum(not r.passed for r in self.records)

    def to_dict(self) -> dict:
        return {"suite": self.suite,
                "passed": self.n_passed,
                "failed": self.n_failed,
                "wall_time": self.wall_time,
                "records": [asdict(r) for r in self.records]}


def _digest(*arrays) -> str:
    h = hashlib.sha256()
    for a in arrays:
        h.update(np.ascontiguousarray(a).tobytes())
    return h.hexdigest()[:16]


def _record(records, name, seed, digest, measured, bound, lower_is_pass=True, slack=0.0):
    """measured <= bound + slack  (or >= bound - slack with lower_is_pass False)."""
    if lower_is_pass:
        margin = bound + slack - measured
    else:
        margin = measured - (bound - slack)
    records.append(CheckRecord(name, seed, digest, float(measured), float(bound),
                               float(margin), bool(margin >= 0)))


def _trials(cfg: SuiteConfig, count: int | None = None, offset: int = 0):
    """(seed, dim) of each trial: the seed derived from cfg.seed and
    offset + t, the dimension cycling through cfg.dims."""
    for t in range(cfg.trials if count is None else count):
        yield derive_seed(cfg.seed, offset + t), cfg.dims[t % len(cfg.dims)]


def _random_pair(dim, rng_seed):
    rho = random_density(dim, seed=derive_seed(rng_seed, 1))
    sigma = random_density(dim, seed=derive_seed(rng_seed, 2))
    return rho, sigma


_METRIC_SPECS = (sld_metric(), wy_metric(), bkm_metric(), rld_metric(), alpha_metric(2.0))


# ---------------------------------------------------------------------------
# individual suites


def _suite_monotonicity(cfg: SuiteConfig):
    records = []
    slack = cfg.tol("monotonicity_slack")
    for seed, dim in _trials(cfg):
        rho, sigma = _random_pair(dim, seed)
        ch = random_cptp(dim, dim, seed=derive_seed(seed, 3))
        lr, ls = apply_channel(ch, rho), apply_channel(ch, sigma)
        dig = _digest(rho.matrix, sigma.matrix, *ch.kraus)
        _record(records, "umegaki-dpi", seed, dig,
                umegaki(lr, ls).value, umegaki(rho, sigma).value, slack=slack)
        _record(records, "rld-dpi", seed, dig,
                rld_entropy(lr, ls).value, rld_entropy(rho, sigma).value, slack=slack)
        _record(records, "dmax-dpi", seed, dig,
                dmax(lr, ls), dmax(rho, sigma), slack=slack)
        x = random_tangent(dim, seed=derive_seed(seed, 4))
        lx = apply_channel_tangent(ch, x)
        for spec in _METRIC_SPECS:
            _record(records, f"metric-dpi-{spec.name}", seed, dig,
                    metric_scalar(spec, lr, lx), metric_scalar(spec, rho, x), slack=slack)
    return records


def _suite_sandwich(cfg: SuiteConfig):
    records = []
    slack = cfg.tol("sandwich_slack")
    for seed, dim in _trials(cfg):
        rho, sigma = _random_pair(dim, seed)
        dig = _digest(rho.matrix, sigma.matrix)
        low, _ = measured_div_lower(rho, sigma, budget=cfg.budget, seed=derive_seed(seed, 5))
        mid = umegaki(rho, sigma).value
        high = rld_entropy(rho, sigma).value
        _record(records, "measured<=umegaki", seed, dig, low, mid, slack=slack)
        _record(records, "umegaki<=rld", seed, dig, mid, high, slack=slack)
    # normalization: the admissible divergences collapse to their classical
    # values on commuting pairs
    ntol = cfg.tol("normalization_match")
    for seed, dim in _trials(cfg, max(cfg.trials // 4, 2), 10_000):
        rho, sigma, p, q = random_commuting_pair(dim, seed=seed)
        dig = _digest(rho.matrix, sigma.matrix)
        classical = kl(ClassicalDistribution(p), ClassicalDistribution(q))
        for name, val in (("umegaki", umegaki(rho, sigma).value),
                          ("rld", rld_entropy(rho, sigma).value)):
            _record(records, f"normalization-{name}", seed, dig, abs(val - classical), 0.0, slack=ntol)
        _record(records, "normalization-dmax", seed, dig,
                abs(dmax(rho, sigma) - float(np.log(p / q).max())), 0.0, slack=ntol)
    return records


def _suite_joint_convexity(cfg: SuiteConfig):
    records = []
    slack = cfg.tol("joint_convexity_slack")
    for seed, dim in _trials(cfg):
        r0, s0 = _random_pair(dim, derive_seed(seed, 1))
        r1, s1 = _random_pair(dim, derive_seed(seed, 2))
        lam = np.random.default_rng(derive_seed(seed, 3)).uniform(0.05, 0.95)
        mix_r = DensityMatrix(lam * r0.matrix + (1 - lam) * r1.matrix)
        mix_s = DensityMatrix(lam * s0.matrix + (1 - lam) * s1.matrix)
        lhs = lam * rld_entropy(r0, s0).value + (1 - lam) * rld_entropy(r1, s1).value
        rhs = rld_entropy(mix_r, mix_s).value
        _record(records, "rld-joint-convexity", seed,
                _digest(r0.matrix, s0.matrix, r1.matrix, s1.matrix, np.array([lam])),
                rhs, lhs, slack=slack)
    return records


def _suite_reverse_test(cfg: SuiteConfig):
    records = []
    tol = cfg.tol("reverse_test_match")
    est_tol = cfg.tol("reverse_estimation_match")
    recon = cfg.tol("reconstruction")
    for seed, dim in _trials(cfg):
        rho, sigma = _random_pair(dim, seed)
        dig = _digest(rho.matrix, sigma.matrix)
        rt = optimal_reverse_test(rho, sigma)
        prep = rt.preparation
        dr = rld_entropy(rho, sigma).value
        _record(records, "input-kl-matches-rld", seed, dig, abs(rt.input_kl - dr), 0.0, slack=tol)
        _record(records, "reconstruction-rho", seed, dig,
                frobenius(cq_apply(prep, rt.p).matrix - rho.matrix), 0.0, slack=recon)
        _record(records, "reconstruction-sigma", seed, dig,
                frobenius(cq_apply(prep, rt.q).matrix - sigma.matrix), 0.0, slack=recon)
        for k in range(3):
            comp = refine_reverse_test(rt, splits=2 + k % 2, seed=derive_seed(seed, 20 + k))
            _record(records, "competitor-kl", seed, dig, rt.input_kl,
                    kl(comp.p, comp.q), slack=tol)
        # monotonicity witness: push the optimal test through a channel
        ch = random_cptp(dim, dim, seed=derive_seed(seed, 6))
        wit = pushforward_reverse_test(rt, ch)
        lr, ls = apply_channel(ch, rho), apply_channel(ch, sigma)
        _record(records, "witness-reconstruction", seed, dig,
                max(frobenius(cq_apply(wit, rt.p).matrix - lr.matrix),
                    frobenius(cq_apply(wit, rt.q).matrix - ls.matrix)),
                0.0, slack=recon)
        _record(records, "witness-dominates-rld", seed, dig,
                rld_entropy(lr, ls).value, rt.input_kl, slack=tol)
        # reverse estimation against the RLD metric
        x = random_tangent(dim, seed=derive_seed(seed, 7))
        est = reverse_estimation_1param(rho, x)
        jr = metric_scalar(rld_metric(), rho, x)
        _record(records, "fisher-matches-rld-metric", seed, dig,
                abs(est.input_fisher - jr), 0.0, slack=est_tol)
        for k in range(2):
            cp, cdp = refine_reverse_estimation(est, seed=derive_seed(seed, 30 + k))
            _record(records, "competitor-fisher", seed, dig, jr,
                    classical_fisher_scalar(cp, cdp), slack=est_tol)
        # classical Fisher along the mixture path equals the RLD metric there
        for tt in (0.25, 0.75):
            pt = ClassicalDistribution(tt * rt.p.probs + (1 - tt) * rt.q.probs)
            jcl = classical_fisher_scalar(pt, rt.p.probs - rt.q.probs)
            jq = metric_scalar(rld_metric(), rt.state_at(tt),
                              TangentDirection(rho.matrix - sigma.matrix))
            _record(records, f"path-fisher-t={tt}", seed, dig, abs(jcl - jq), 0.0, slack=est_tol)
    return records


def _suite_integral_identities(cfg: SuiteConfig):
    records = []
    tol = cfg.tol("integral_identity")
    for seed, dim in _trials(cfg):
        rho, sigma = _random_pair(dim, seed)
        dig = _digest(rho.matrix, sigma.matrix)
        _record(records, "bkm-integral-is-umegaki", seed, dig,
                abs(integral_divergence(bkm_metric(), rho, sigma) - umegaki(rho, sigma).value),
                0.0, slack=tol)
        _record(records, "rld-integral-is-rld-divergence", seed, dig,
                abs(integral_divergence(rld_metric(), rho, sigma) - rld_entropy(rho, sigma).value),
                0.0, slack=tol)
    for seed, dim in _trials(cfg, max(cfg.trials // 4, 2), 20_000):
        rho, sigma, p, q = random_commuting_pair(dim, seed=seed)
        classical = kl(ClassicalDistribution(p), ClassicalDistribution(q))
        dig = _digest(rho.matrix, sigma.matrix)
        for spec in _METRIC_SPECS:
            _record(records, f"commuting-{spec.name}-integral-is-kl", seed, dig,
                    abs(integral_divergence(spec, rho, sigma) - classical), 0.0, slack=tol)
    return records


def _suite_metric_ordering(cfg: SuiteConfig):
    records = []
    gap = cfg.tol("metric_order_slack")
    ach = cfg.tol("sld_achievability")
    hol = cfg.tol("holevo_bound_slack")
    imj = cfg.tol("imj_identity")
    chain = (sld_metric(), wy_metric(), bkm_metric(), rld_metric())
    for seed, dim in _trials(cfg):
        rho = random_density(dim, seed=derive_seed(seed, 1))
        x = random_tangent(dim, seed=derive_seed(seed, 2))
        dig = _digest(rho.matrix, x.matrix)
        names = ("sld", "wy", "bkm", "rld")
        vals = [metric_scalar(s, rho, x) for s in chain]
        for i in range(3):
            _record(records, f"order-{names[i]}<={names[i + 1]}", seed, dig,
                    vals[i], vals[i + 1], slack=gap)
        _, achieved = sld_optimal_measurement(rho, x)
        # relative form: ill-conditioned draws push the metric to 1e4+ where
        # double precision cannot certify a 1e-8 absolute match
        _record(records, "sld-achievability", seed, dig,
                abs(achieved - vals[0]) / (1 + abs(vals[0])), 0.0, slack=ach)
        # two-parameter weighted-trace bound
        rng = np.random.default_rng(derive_seed(seed, 3))
        y = random_tangent(dim, seed=derive_seed(seed, 4))
        j = rld_matrix(rho, [x, y])
        g = rng.standard_normal((2, 2))
        g = g @ g.T + 0.1 * np.eye(2)
        bound = holevo_rld_bound(g, j)
        jstar = holevo_rld_minimizer(g, j)
        _record(records, "holevo-minimizer-attains", seed, dig,
                abs(float(np.trace(g @ jstar)) - bound), 0.0, slack=hol)
        _record(records, "holevo-minimizer-dominates", seed, dig,
                0.0, float(np.linalg.eigvalsh(jstar.astype(complex) - j).min()), slack=hol)
        for k in range(5):
            r = rng.standard_normal((2, 2))
            r = (r + r.T) / 2
            cand = np.real(j) + r
            wmin = float(np.linalg.eigvalsh(cand.astype(complex) - j).min())
            if wmin < 0:
                cand = cand + (-wmin + 1e-12) * np.eye(2)
            _record(records, "holevo-sampled-dominating", seed, dig,
                    bound, float(np.trace(g @ cand)), slack=hol)
        # commutator form of the imaginary part (relative, as above)
        l1, l2 = rld_operator(rho, x), rld_operator(rho, y)
        comm = -0.5 * np.trace(rho.matrix @ (l1 @ l2 - l2 @ l1))
        _record(records, "imj-commutator-identity", seed, dig,
                abs(np.imag(j[0, 1]) - np.real(1j * comm)) / (1 + np.abs(j).max()),
                0.0, slack=imj)
    return records


def _suite_stein_trend(cfg: SuiteConfig):
    records = []
    rho, sigma = fixtures.QUBIT_A
    d = umegaki(rho, sigma).value
    ns = _even_ns(cfg.n_range)
    powers = {n: (tensor_power(rho, n), tensor_power(sigma, n)) for n in ns}
    dig = _digest(rho.matrix, sigma.matrix)
    gaps = []
    for n in ns:
        a = stein_threshold(rho, sigma, n, 0.5, width=cfg.tol("stein_grid_width"))
        gaps.append(abs(a - d))
    for i in range(len(ns) - 1):
        _record(records, f"gap-decreases-{ns[i]}->{ns[i + 1]}", cfg.seed, dig,
                gaps[i + 1], gaps[i], slack=0.0)
    if ns[-1] >= 8:
        # the 0.1-nat closeness claim is pinned at n = 8
        _record(records, f"gap-at-n={ns[-1]}", cfg.seed, dig, gaps[-1], 0.1, slack=0.0)
    # commuting control against the classical likelihood-ratio scan
    crho, csigma = fixtures.COMMUTING
    p = np.diag(crho.matrix).real
    q = np.diag(csigma.matrix).real
    n_cl = min(cfg.n_range[1], 6)
    a_q = stein_threshold(crho, csigma, n_cl, 0.5)
    a_c = classical_threshold_oracle(p, q, n_cl, 0.5)
    _record(records, "commuting-matches-classical", cfg.seed, _digest(crho.matrix, csigma.matrix),
            abs(a_q - a_c), 0.0, slack=1e-9)
    # substitute for the projective-test existence statement at rate D - c:
    # the complement keeps accepting the first state (floor, not monotone
    # growth: the acceptance curve sawtooths at desk scale), the type-2 error
    # obeys the exponential bound exactly, and the binary outcome already
    # carries the implied measured relative entropy
    c = 0.3
    slack2 = cfg.tol("type2_slack")
    for n in ns:
        pt = np_projector(*powers[n], d - c, n)[1]
        accept = 1 - pt.type1_accept
        _record(records, f"type2-bound-n={n}", cfg.seed, dig,
                pt.type2, math.exp(-n * (d - c)) * (1 + slack2), slack=0.0)
        _record(records, f"acceptance-floor-n={n}", cfg.seed, dig,
                accept, 0.5, lower_is_pass=False, slack=0.0)
        if 0 < pt.type2 and 0 < accept < 1:
            binary_kl = kl(ClassicalDistribution(np.array([accept, 1 - accept])),
                           ClassicalDistribution(np.array([pt.type2, 1 - pt.type2])))
            floor = accept * (d - c) - (1 / math.e + abs(math.log(accept))) / n
            _record(records, f"binary-kl-floor-n={n}", cfg.seed, dig,
                    binary_kl / n, floor, lower_is_pass=False, slack=1e-12)
    # smoothing certificates at a mid rate
    mid = (d + dmax(rho, sigma)) / 2
    for n in ns[:2]:
        sm = smooth_state(*powers[n], mid, n)
        _record(records, f"datta-distance-bound-n={n}", cfg.seed, dig,
                sm.epsilon, sm.datta_bound, slack=0.0)
    # converse witness: the constructed reverse test bounds, at this very n,
    # the type-2 exponent of every test that keeps accepting the first state:
    # sigma^n >= e^{-nr} * (smoothed rho), so
    # exponent <= r - ln(accept - err/2)/n for each feasible rate r
    n_max = ns[-1]
    dm = dmax(rho, sigma)
    witnesses = []
    for r in np.linspace(d + 0.05, dm + 0.1, 6):
        brt = binary_reverse_test(*powers[n_max], float(r), n_max)
        witnesses.append((float(r), brt.rho_error))
    slack_w = cfg.tol("converse_witness_slack")
    for k, rate in enumerate((d - 0.2, d - 0.1, d - 0.05)):
        pt = np_projector(*powers[n_max], rate, n_max)[1]
        accept = 1 - pt.type1_accept
        if pt.type2 <= 0:
            continue
        bounds = [r - math.log(accept - err / 2) / n_max
                  for r, err in witnesses if accept - err / 2 > 0]
        if bounds:
            _record(records, f"converse-witness-{k}", cfg.seed, dig,
                    -math.log(pt.type2) / n_max, min(bounds), slack=slack_w)
    return records


def classical_threshold_oracle(p: np.ndarray, q: np.ndarray, n: int, eps: float) -> float:
    """Brute-force classical threshold: enumerate all |p|^n outcomes and run
    the quantum path's threshold_scan on their likelihood-ratio acceptance."""
    pn, qn = functools.reduce(np.kron, [p] * n), functools.reduce(np.kron, [q] * n)

    def accept(a: float) -> float:
        diff = pn - math.exp(n * a) * qn
        tol = 1e-12 * max(float(np.abs(diff).max()), 1e-300)
        return float(pn[diff <= tol].sum())

    # classical dmax bounds, each a maximum over the support of its first argument
    with np.errstate(divide="ignore"):
        lo = -float(np.max(np.log(q[q > 0]) - np.log(p[q > 0]))) - 0.5
        hi = float(np.max(np.log(p[p > 0]) - np.log(q[p > 0]))) + 0.5
    return threshold_scan(accept, lo, hi, n, eps, DEFAULT_TOLERANCES["stein_grid_width"])


def _suite_conversion(cfg: SuiteConfig):
    records = []
    sig_tol = cfg.tol("sigma_exact")
    rho0, sigma0 = fixtures.CONVERSION_SOURCE
    d0 = umegaki(rho0, sigma0).value
    ns = _even_ns(cfg.n_range)
    for name, (rho, sigma) in (("qubit_a", fixtures.QUBIT_A), ("qubit_b", fixtures.QUBIT_B)):
        d1 = umegaki(rho, sigma).value
        c = 0.45 * (d0 - d1)
        dig = _digest(rho0.matrix, sigma0.matrix, rho.matrix, sigma.matrix)
        errs = {}
        for n in ns:
            _, rep = state_conversion(rho0, sigma0, rho, sigma, n, c)
            _record(records, f"{name}-feasible-n={n}", cfg.seed, dig,
                    1.0 if rep.feasible else 0.0, 1.0, lower_is_pass=False, slack=0.0)
            if rep.feasible:
                errs[n] = rep.rho_error
                _record(records, f"{name}-sigma-exact-n={n}", cfg.seed, dig,
                        rep.sigma_error, 0.0, slack=sig_tol)
        if ns[0] in errs and ns[-1] in errs:
            _record(records, f"{name}-rho-error-shrinks", cfg.seed, dig,
                    errs[ns[-1]], errs[ns[0]], slack=0.0)
    return records


def _suite_fidelity_counterexample(cfg: SuiteConfig):
    records = []
    add_tol = cfg.tol("additivity")
    slack = cfg.tol("monotonicity_slack")
    # anchor pairs across distinguishability regimes keep the scalar fit
    # meaningful even at trials = 1 (weakly distinguishable pairs alone are
    # accidentally near-proportional)
    anchors = [fixtures.QUBIT_A, fixtures.QUBIT_B, fixtures.QUTRIT, fixtures.COMMUTING,
               (DensityMatrix(np.diag([0.98, 0.02]).astype(complex)),
                DensityMatrix(np.eye(2, dtype=complex) / 2)),
               (DensityMatrix(np.diag([0.999, 0.001]).astype(complex)),
                DensityMatrix(np.diag([0.001, 0.999]).astype(complex)))]
    samples = [(fidelity_logdiv(r, s), umegaki(r, s).value) for r, s in anchors]
    for seed, dim in _trials(cfg):
        rho, sigma = _random_pair(dim, seed)
        dig = _digest(rho.matrix, sigma.matrix)
        df = fidelity_logdiv(rho, sigma)
        samples.append((df, umegaki(rho, sigma).value))
        rho2, sigma2 = _random_pair(dim, derive_seed(seed, 9))
        prod_r = DensityMatrix(np.kron(rho.matrix, rho2.matrix))
        prod_s = DensityMatrix(np.kron(sigma.matrix, sigma2.matrix))
        _record(records, "fidelity-additive", seed, dig,
                abs(fidelity_logdiv(prod_r, prod_s) - df - fidelity_logdiv(rho2, sigma2)),
                0.0, slack=add_tol)
        ch = random_cptp(dim, dim, seed=derive_seed(seed, 3))
        # data processing for this functional runs upward: channels can only
        # increase the root-fidelity overlap
        _record(records, "fidelity-dpi-upward", seed, dig,
                df, fidelity_logdiv(apply_channel(ch, rho), apply_channel(ch, sigma)),
                slack=slack)
    dfs = np.array([s[0] for s in samples])
    ds = np.array([s[1] for s in samples])
    cstar = float(dfs @ ds / (ds @ ds)) if float(ds @ ds) > 0 else 0.0
    resid = float(np.abs(dfs - cstar * ds).max())
    _record(records, "not-proportional-to-umegaki", cfg.seed, _digest(dfs, ds),
            0.02, resid, slack=0.0)
    return records


_SUITE_FNS = {
    "monotonicity": _suite_monotonicity,
    "sandwich": _suite_sandwich,
    "joint-convexity": _suite_joint_convexity,
    "reverse-test-optimality": _suite_reverse_test,
    "integral-identities": _suite_integral_identities,
    "metric-ordering": _suite_metric_ordering,
    "stein-trend": _suite_stein_trend,
    "conversion": _suite_conversion,
    "fidelity-counterexample": _suite_fidelity_counterexample,
}


def run_suite(config: SuiteConfig) -> list:
    """Execute the configured suites; deterministic given the seed."""
    reports = []
    for name in config.suites:
        start = time.perf_counter()
        records = _SUITE_FNS[name](config)
        reports.append(SuiteReport(name, records, time.perf_counter() - start))
    return reports


def report_to_dict(config: SuiteConfig, reports: list) -> dict:
    return {
        "config": {"seed": config.seed, "trials": config.trials,
                   "dims": list(config.dims), "n_range": list(config.n_range),
                   "suites": list(config.suites), "budget": config.budget,
                   "tolerances": dict(config.tolerances)},
        "suites": [r.to_dict() for r in reports],
        "passed": sum(r.n_passed for r in reports),
        "failed": sum(r.n_failed for r in reports),
    }


def report_from_json(text: str) -> dict:
    data = json.loads(text)
    for key in ("config", "suites", "passed", "failed"):
        if key not in data:
            raise ValidationError(f"report missing key {key!r}")
    return data
