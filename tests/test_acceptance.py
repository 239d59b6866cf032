"""Acceptance gate: each criterion runs standalone at its pinned tolerance
and prints one pass/fail line (run with `pytest tests/test_acceptance.py -v -s`).
"""

import math
import time

import numpy as np

from qdiv import fixtures
from qdiv.config import derive_seed
from qdiv.divergences import dmax, measured_div_lower, rld_entropy, umegaki
from qdiv.hypotest import state_conversion, stein_threshold
from qdiv.metrics import (alpha_metric, bkm_metric, classical_fisher_scalar,
                          holevo_rld_bound, holevo_rld_minimizer,
                          integral_divergence, metric_scalar, rld_matrix,
                          rld_metric, sld_metric, sld_optimal_measurement,
                          wy_metric)
from qdiv.reverse import (optimal_reverse_test, refine_reverse_estimation,
                          reverse_estimation_1param)
from qdiv.states import (DensityMatrix, apply_channel, apply_channel_tangent,
                         random_cptp, random_density, random_tangent,
                         tensor_power)
from qdiv.suites import classical_threshold_oracle

SEED = 987654321


def _seed(*idx) -> int:
    s = SEED
    for i in idx:
        s = derive_seed(s, i)
    return s


def _conditioned_density(dim: int, seed: int, floor: float = 0.02) -> DensityMatrix:
    """Full-rank draw with smallest eigenvalue bounded away from zero; the
    1e-8 absolute tolerances presuppose metrics of moderate magnitude."""
    for attempt in range(64):
        rho = random_density(dim, seed=derive_seed(seed, 1000 + attempt))
        if np.linalg.eigvalsh(rho.matrix).min() >= floor:
            return rho
    raise AssertionError("conditioned draw failed; floor too aggressive")


def _finish(num: int, desc: str, started: float, budget_s: float, ok: bool, detail: str = ""):
    elapsed = time.perf_counter() - started
    status = "PASS" if ok and elapsed < budget_s else "FAIL"
    print(f"[criterion {num:2d}] {status} ({elapsed:6.1f}s / {budget_s:.0f}s) {desc} {detail}")
    assert ok, f"criterion {num}: {desc} {detail}"
    assert elapsed < budget_s, f"criterion {num} exceeded its {budget_s:.0f}s budget ({elapsed:.1f}s)"


def test_criterion_01_reverse_test_optimality():
    t0 = time.perf_counter()
    worst = 0.0
    for d in (2, 3, 4):
        for k in range(100):
            rho = random_density(d, seed=_seed(1, d, 2 * k))
            sigma = random_density(d, seed=_seed(1, d, 2 * k + 1))
            rt = optimal_reverse_test(rho, sigma)
            worst = max(worst, abs(rt.input_kl - rld_entropy(rho, sigma).value))
    _finish(1, "optimal reverse test matches the RLD divergence", t0, 10,
            worst <= 1e-8, f"max |kl - D^R| = {worst:.2e}")


def test_criterion_02_sandwich():
    t0 = time.perf_counter()
    worst = math.inf
    for k in range(200):
        d = 2 + k % 2
        rho = random_density(d, seed=_seed(2, 2 * k))
        sigma = random_density(d, seed=_seed(2, 2 * k + 1))
        low, _ = measured_div_lower(rho, sigma, budget=500, seed=_seed(2, k, 7))
        mid = umegaki(rho, sigma).value
        high = rld_entropy(rho, sigma).value
        worst = min(worst, mid - low, high - mid)
    _finish(2, "measured <= umegaki <= rld sandwich", t0, 60,
            worst >= -1e-8, f"min margin = {worst:.2e}")


def test_criterion_03_integral_identities():
    t0 = time.perf_counter()
    worst = 0.0
    for k in range(50):
        d = 2 + k % 2
        rho = random_density(d, seed=_seed(3, 2 * k))
        sigma = random_density(d, seed=_seed(3, 2 * k + 1))
        worst = max(worst,
                    abs(integral_divergence(bkm_metric(), rho, sigma) - umegaki(rho, sigma).value),
                    abs(integral_divergence(rld_metric(), rho, sigma) - rld_entropy(rho, sigma).value))
    _finish(3, "metric integrals reproduce umegaki (BKM) and the RLD divergence", t0, 30,
            worst <= 1e-6, f"max deviation = {worst:.2e}")


def test_criterion_04_metric_ordering():
    t0 = time.perf_counter()
    specs = (sld_metric(), wy_metric(), bkm_metric(), rld_metric())
    worst = math.inf
    for k in range(500):
        d = 2 + k % 2
        rho = random_density(d, seed=_seed(4, 2 * k))
        x = random_tangent(d, seed=_seed(4, 2 * k + 1))
        vals = [metric_scalar(s, rho, x) for s in specs]
        worst = min(worst, min(np.diff(vals)))
    _finish(4, "ordering sld <= wy <= bkm <= rld", t0, 10,
            worst >= -1e-10, f"min gap = {worst:.2e}")


def test_criterion_05_monotonicity():
    t0 = time.perf_counter()
    specs = (sld_metric(), wy_metric(), bkm_metric(), rld_metric(), alpha_metric(2.0))
    worst = math.inf
    for k in range(200):
        d = 2 + k % 2
        rho = random_density(d, seed=_seed(5, 3 * k))
        sigma = random_density(d, seed=_seed(5, 3 * k + 1))
        ch = random_cptp(d, d, seed=_seed(5, 3 * k + 2))
        lr, ls = apply_channel(ch, rho), apply_channel(ch, sigma)
        worst = min(worst,
                    umegaki(rho, sigma).value - umegaki(lr, ls).value,
                    rld_entropy(rho, sigma).value - rld_entropy(lr, ls).value,
                    dmax(rho, sigma) - dmax(lr, ls))
        x = random_tangent(d, seed=_seed(5, k, 11))
        lx = apply_channel_tangent(ch, x)
        for spec in specs:
            worst = min(worst, metric_scalar(spec, rho, x) - metric_scalar(spec, lr, lx))
    _finish(5, "data processing for divergences and every metric spec", t0, 60,
            worst >= -1e-8, f"min decrease = {worst:.2e}")


def test_criterion_06_joint_convexity():
    t0 = time.perf_counter()
    worst = math.inf
    for k in range(200):
        d = 2 + k % 2
        r0 = random_density(d, seed=_seed(6, 4 * k))
        s0 = random_density(d, seed=_seed(6, 4 * k + 1))
        r1 = random_density(d, seed=_seed(6, 4 * k + 2))
        s1 = random_density(d, seed=_seed(6, 4 * k + 3))
        lam = np.random.default_rng(_seed(6, k, 13)).uniform(0.05, 0.95)
        lhs = lam * rld_entropy(r0, s0).value + (1 - lam) * rld_entropy(r1, s1).value
        mix = rld_entropy(DensityMatrix(lam * r0.matrix + (1 - lam) * r1.matrix),
                          DensityMatrix(lam * s0.matrix + (1 - lam) * s1.matrix)).value
        worst = min(worst, lhs - mix)
    _finish(6, "joint convexity of the RLD divergence", t0, 20,
            worst >= -1e-8, f"min margin = {worst:.2e}")


def test_criterion_07_reverse_estimation():
    t0 = time.perf_counter()
    worst_eq = 0.0
    worst_comp = math.inf
    for k in range(100):
        d = 2 + k % 2
        rho = _conditioned_density(d, _seed(7, 2 * k))
        x = random_tangent(d, seed=_seed(7, 2 * k + 1))
        est = reverse_estimation_1param(rho, x)
        jr = metric_scalar(rld_metric(), rho, x)
        worst_eq = max(worst_eq, abs(est.input_fisher - jr))
        if k < 50:
            cp, cdp = refine_reverse_estimation(est, seed=_seed(7, k, 17))
            worst_comp = min(worst_comp, classical_fisher_scalar(cp, cdp) - jr)
    _finish(7, "tangent reverse estimation achieves the RLD Fisher value", t0, 20,
            worst_eq <= 1e-8 and worst_comp >= -1e-8,
            f"max |J_in - J^R| = {worst_eq:.2e}, min competitor margin = {worst_comp:.2e}")


def test_criterion_08_sld_achievability():
    t0 = time.perf_counter()
    worst = 0.0
    for k in range(100):
        d = 2 + k % 2
        rho = _conditioned_density(d, _seed(8, 2 * k))
        x = random_tangent(d, seed=_seed(8, 2 * k + 1))
        _, achieved = sld_optimal_measurement(rho, x)
        worst = max(worst, abs(achieved - metric_scalar(sld_metric(), rho, x)))
    _finish(8, "SLD metric achieved by its eigenbasis measurement", t0, 10,
            worst <= 1e-8, f"max |J_M - J^S| = {worst:.2e}")


def test_criterion_09_stein_trend():
    t0 = time.perf_counter()
    rho, sigma = fixtures.QUBIT_A
    d = umegaki(rho, sigma).value
    gaps = [abs(stein_threshold(rho, sigma, n, 0.5) - d) for n in (2, 4, 6, 8)]
    decreasing = all(gaps[i + 1] < gaps[i] for i in range(3))
    close = gaps[-1] <= 0.1
    crho, csigma = fixtures.COMMUTING
    p = np.diag(crho.matrix).real
    q = np.diag(csigma.matrix).real
    control_ok = True
    for n in (5, 10, 12):
        a_q = stein_threshold(crho, csigma, n, 0.5)
        a_c = classical_threshold_oracle(p, q, n, 0.5)
        control_ok = control_ok and abs(a_q - a_c) <= 1e-9
    _finish(9, "acceptance threshold trends to umegaki; classical control exact", t0, 120,
            decreasing and close and control_ok,
            f"gaps = {[round(g, 4) for g in gaps]}, control_ok = {control_ok}")


def test_criterion_10_conversion():
    t0 = time.perf_counter()
    rho0, sigma0 = fixtures.CONVERSION_SOURCE
    d0 = umegaki(rho0, sigma0).value
    ok = True
    details = []
    for name, (rho, sigma) in (("A", fixtures.QUBIT_A), ("B", fixtures.QUBIT_B)):
        d1 = umegaki(rho, sigma).value
        c = 0.45 * (d0 - d1)
        errs = {}
        for n in (2, 4, 6, 8):
            _, rep = state_conversion(rho0, sigma0, rho, sigma, n, c)
            ok = ok and rep.feasible and rep.sigma_error <= 1e-9
            errs[n] = rep.rho_error
        ok = ok and errs[8] < errs[2]
        details.append(f"{name}: {errs[2]:.4f}->{errs[8]:.4f}")
    _finish(10, "conversion exact on the sigma side with shrinking rho error", t0, 120,
            ok, "; ".join(details))


def test_criterion_11_sld_integral_regularization():
    t0 = time.perf_counter()
    rho, sigma = fixtures.QUBIT_A
    d = umegaki(rho, sigma).value
    vals = {}
    for n in (1, 6):
        rn, sn = tensor_power(rho, n), tensor_power(sigma, n)
        vals[n] = integral_divergence(sld_metric(), rn, sn) / n
    gap1, gap6 = abs(vals[1] - d), abs(vals[6] - d)
    _finish(11, "per-copy SLD integral divergence approaches umegaki", t0, 120,
            gap6 <= 0.05 and gap6 < gap1, f"gap n=1: {gap1:.5f}, n=6: {gap6:.5f}")


def test_criterion_12_weighted_trace_bound():
    t0 = time.perf_counter()
    ok = True
    worst_attain = 0.0
    worst_sample = math.inf
    for k in range(100):
        rho = random_density(2, seed=_seed(12, 3 * k))
        xs = [random_tangent(2, seed=_seed(12, 3 * k + 1)),
              random_tangent(2, seed=_seed(12, 3 * k + 2))]
        j = rld_matrix(rho, xs)
        rng = np.random.default_rng(_seed(12, k, 19))
        g = rng.standard_normal((2, 2))
        g = g @ g.T + 0.1 * np.eye(2)
        bound = holevo_rld_bound(g, j)
        jstar = holevo_rld_minimizer(g, j)
        worst_attain = max(worst_attain, abs(float(np.trace(g @ jstar)) - bound))
        ok = ok and np.linalg.eigvalsh(jstar.astype(complex) - j).min() >= -1e-8
        for _ in range(5):
            r = rng.standard_normal((2, 2))
            r = (r + r.T) / 2
            cand = np.real(j) + r
            wmin = float(np.linalg.eigvalsh(cand.astype(complex) - j).min())
            if wmin < 0:
                cand = cand + (-wmin + 1e-12) * np.eye(2)
            worst_sample = min(worst_sample, float(np.trace(g @ cand)) - bound)
    _finish(12, "weighted-trace bound dominated by samples and attained by the minimizer", t0, 30,
            ok and worst_attain <= 1e-8 and worst_sample >= -1e-8,
            f"max attain dev = {worst_attain:.2e}, min sample margin = {worst_sample:.2e}")
