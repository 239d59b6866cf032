"""Monotone metric family: kernel values against the superoperator oracle,
the alpha family's coincidences, operators, achievability, the weighted-trace
bound, and integral divergences."""

import math

import numpy as np
import pytest

from qdiv import fixtures
from qdiv.config import derive_seed
from qdiv.divergences import ratio_spectrum, rld_entropy, umegaki
from qdiv.errors import ConvergenceError, RankError, SupportViolationError
from qdiv import metrics
from qdiv.metrics import (MetricSpec, alpha_metric, bkm_metric, classical_fisher,
                          classical_fisher_scalar, f_alpha, holevo_rld_bound,
                          holevo_rld_minimizer, integral_divergence,
                          integral_divergences, metric_scalar, named_metric,
                          petz_metric,
                          rld_matrix, rld_metric, rld_operator, sld_metric,
                          sld_operator, sld_optimal_measurement, wy_metric)
from qdiv.states import (ClassicalDistribution, DensityMatrix,
                         TangentDirection, random_commuting_pair,
                         random_density, random_tangent)
from qdiv.suites import _random_pair

import oracles

ALL_SPECS = [sld_metric(), wy_metric(), bkm_metric(), rld_metric(), alpha_metric(2.0)]


class TestFAlpha:
    def test_normalized_at_one(self):
        for a in (-3, -1.5, -1, 0, 0.5, 1, 2.3, 3):
            assert f_alpha(1.0, a) == pytest.approx(1.0, abs=1e-12)

    def test_wy_value(self):
        assert f_alpha(4.0, 0.0) == pytest.approx(9 / 4, abs=1e-12)

    def test_rld_coincidence(self):
        assert f_alpha(4.0, 3.0) == pytest.approx(8 / 5, abs=1e-12)
        xs = np.linspace(0.01, 8, 200)
        for a in (3.0, -3.0):
            np.testing.assert_allclose(f_alpha(xs, a), 2 * xs / (xs + 1), atol=1e-10)

    def test_bkm_coincidence(self):
        xs = np.linspace(0.01, 8, 200)
        for a in (1.0, -1.0):
            np.testing.assert_allclose(f_alpha(xs, a), (xs - 1) / np.log(xs), atol=1e-10)

    def test_symmetry(self):
        xs = np.linspace(0.02, 9, 157)
        for a in (-2.4, 0.0, 1.7):
            np.testing.assert_allclose(xs * f_alpha(1 / xs, a), f_alpha(xs, a), atol=1e-10)

    def test_near_one_series_branch(self):
        xs = 1.0 + np.array([-3e-7, -1e-9, 0.0, 1e-9, 3e-7])
        vals = f_alpha(xs, 2.0)
        assert np.all(np.isfinite(vals))
        np.testing.assert_allclose(vals, 1.0, atol=1e-6)

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError, match="alpha"):
            f_alpha(2.0, 3.2)

    def test_nan_alpha_rejected(self):
        with pytest.raises(ValueError, match="alpha"):
            f_alpha(2.0, math.nan)
        with pytest.raises(ValueError, match="alpha"):
            alpha_metric(math.nan)

    def test_nan_argument_rejected(self):
        with pytest.raises(ValueError, match="positive"):
            f_alpha(math.nan, 0.5)

    def test_operator_monotone_spot_check(self):
        rng = np.random.default_rng(11)
        for spec in ALL_SPECS:
            for _ in range(100):
                d = int(rng.integers(2, 5))
                g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
                a = g @ g.conj().T + 0.05 * np.eye(d)
                h = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
                b = a + h @ h.conj().T
                wa, va = np.linalg.eigh(a)
                wb, vb = np.linalg.eigh(b)
                fa = (va * spec.f(wa)) @ va.conj().T
                fb = (vb * spec.f(wb)) @ vb.conj().T
                assert np.linalg.eigvalsh(fb - fa).min() >= -1e-8


class TestClassicalFisher:
    def test_hand_value(self):
        p = ClassicalDistribution(np.array([0.5, 0.5]))
        j = classical_fisher(p, [np.array([0.1, -0.1])])
        assert j[0, 0] == pytest.approx(0.04, abs=1e-14)

    def test_zero_tangent(self):
        p = ClassicalDistribution(np.array([0.3, 0.7]))
        assert classical_fisher_scalar(p, np.zeros(2)) == 0.0

    def test_equal_tangents_rank_one(self):
        p = ClassicalDistribution(np.array([0.2, 0.3, 0.5]))
        dp = np.array([0.05, -0.02, -0.03])
        j = classical_fisher(p, [dp, dp])
        assert np.linalg.matrix_rank(j, tol=1e-12) == 1

    def test_nan_tangent_rejected(self):
        p = ClassicalDistribution(np.array([0.5, 0.5]))
        with pytest.raises(ValueError, match="sum to 0"):
            classical_fisher(p, [np.array([np.nan, 0.0])])

    def test_off_support_flagged(self):
        p = ClassicalDistribution(np.array([1.0, 0.0]))
        with pytest.raises(SupportViolationError, match="infinite"):
            classical_fisher(p, [np.array([0.1, -0.1])])


class TestOperators:
    def test_sld_maximally_mixed(self):
        rho = DensityMatrix(np.eye(2, dtype=complex) / 2)
        x = random_tangent(2, seed=1)
        np.testing.assert_allclose(sld_operator(rho, x), 2 * x.matrix, atol=1e-12)

    def test_sld_zero(self):
        rho = random_density(3, seed=2)
        z = TangentDirection(np.zeros((3, 3), dtype=complex))
        np.testing.assert_allclose(sld_operator(rho, z), 0.0, atol=1e-14)

    def test_sld_residual_full_rank(self):
        for k in range(20):
            rho = random_density(2, seed=derive_seed(1, k))
            x = random_tangent(2, seed=derive_seed(2, k))
            l = sld_operator(rho, x)
            # Frobenius residual of the defining equation (L rho + rho L)/2 = X
            assert np.linalg.norm((l @ rho.matrix + rho.matrix @ l) / 2 - x.matrix) <= 1e-10

    def test_rld_maximally_mixed(self):
        rho = DensityMatrix(np.eye(2, dtype=complex) / 2)
        x = random_tangent(2, seed=3)
        np.testing.assert_allclose(rld_operator(rho, x), 2 * x.matrix, atol=1e-12)

    def test_rld_residual(self):
        rho = random_density(3, seed=4)
        x = random_tangent(3, seed=5)
        l = rld_operator(rho, x)
        assert np.linalg.norm(l @ rho.matrix - x.matrix) <= 1e-10

    def test_rld_existence_error(self):
        rho = DensityMatrix(np.diag([1.0, 0.0]).astype(complex))
        x = TangentDirection(np.diag([0.1, -0.1]).astype(complex))
        with pytest.raises(SupportViolationError, match="support"):
            rld_operator(rho, x)


class TestPetzMetric:
    def test_sld_hand_value(self):
        rho = DensityMatrix(np.diag([0.75, 0.25]).astype(complex))
        x = TangentDirection(np.array([[0, 0.1], [0.1, 0]], dtype=complex))
        assert metric_scalar(sld_metric(), rho, x) == pytest.approx(0.04, abs=1e-12)

    def test_rld_hand_value(self):
        rho = DensityMatrix(np.diag([0.75, 0.25]).astype(complex))
        x = TangentDirection(np.array([[0, 0.1], [0.1, 0]], dtype=complex))
        assert metric_scalar(rld_metric(), rho, x) == pytest.approx(2 * 0.01 * 8 / 3, abs=1e-12)

    def test_diagonal_case_is_classical_for_every_spec(self):
        pv = np.array([0.5, 0.3, 0.2])
        rho = DensityMatrix(np.diag(pv).astype(complex))
        dp = np.array([0.03, -0.01, -0.02])
        x = TangentDirection(np.diag(dp).astype(complex))
        expect = classical_fisher_scalar(ClassicalDistribution(pv), dp)
        for spec in ALL_SPECS:
            assert metric_scalar(spec, rho, x) == pytest.approx(expect, abs=1e-12)

    def test_superoperator_oracle_agreement(self):
        for k, spec in enumerate(ALL_SPECS):
            for d in (2, 3):
                rho = random_density(d, seed=derive_seed(30 + k, d))
                x = random_tangent(d, seed=derive_seed(60 + k, d))
                mine = petz_metric(spec, rho, x)
                ref = oracles.petz_superoperator(spec.f, rho.matrix, x.matrix, x.matrix)
                assert abs(mine - ref) <= 1e-9 * (1 + abs(ref))

    def test_bkm_matches_finite_difference(self):
        rho = random_density(3, seed=8)
        x = random_tangent(3, seed=9)
        fd = oracles.bkm_finite_difference(rho.matrix, x.matrix)
        assert metric_scalar(bkm_metric(), rho, x) == pytest.approx(fd, rel=1e-5)

    def test_rld_equals_operator_form(self):
        rho = random_density(3, seed=10)
        x = random_tangent(3, seed=11)
        l = rld_operator(rho, x)
        op_form = float(np.trace(rho.matrix @ l.conj().T @ l).real)
        assert metric_scalar(rld_metric(), rho, x) == pytest.approx(op_form, abs=1e-9)

    def test_singular_rejected(self):
        rho = DensityMatrix(np.diag([1.0, 0.0]).astype(complex))
        x = TangentDirection(np.array([[0, 0.1], [0.1, 0]], dtype=complex))
        with pytest.raises(RankError, match="support"):
            petz_metric(sld_metric(), rho, x)

    def test_named_metric_resolution(self):
        assert named_metric("alpha=2").name == "alpha=2"
        assert named_metric("BKM").name == "bkm"
        with pytest.raises(ValueError, match="unknown"):
            named_metric("frobenius")


class TestSLDAchievability:
    def test_diagonal_instance(self):
        rho = DensityMatrix(np.diag([0.7, 0.3]).astype(complex))
        x = TangentDirection(np.diag([0.1, -0.1]).astype(complex))
        _, achieved = sld_optimal_measurement(rho, x)
        assert achieved == pytest.approx(metric_scalar(sld_metric(), rho, x), abs=1e-12)

    def test_zero_tangent(self):
        rho = random_density(2, seed=12)
        _, achieved = sld_optimal_measurement(rho, TangentDirection(np.zeros((2, 2), dtype=complex)))
        assert achieved == pytest.approx(0.0, abs=1e-12)

    def test_random_instances(self):
        for k in range(30):
            d = 2 + k % 2
            rho = random_density(d, seed=derive_seed(90, k))
            x = random_tangent(d, seed=derive_seed(91, k))
            v, achieved = sld_optimal_measurement(rho, x)
            assert achieved == pytest.approx(metric_scalar(sld_metric(), rho, x), abs=1e-8)
            assert v.shape == (d, d)
            np.testing.assert_allclose(v.conj().T @ v, np.eye(d), atol=1e-12)


class TestRLDMatrixAndBound:
    def test_single_parameter_scalar(self):
        rho = random_density(2, seed=13)
        x = random_tangent(2, seed=14)
        j = rld_matrix(rho, [x])
        assert j.shape == (1, 1)
        assert j[0, 0].imag == pytest.approx(0.0, abs=1e-12)
        g = np.array([[1.0]])
        assert holevo_rld_bound(g, j) == pytest.approx(j[0, 0].real, abs=1e-10)

    def test_commuting_family_real(self):
        rho = DensityMatrix(np.diag([0.5, 0.3, 0.2]).astype(complex))
        xs = [TangentDirection(np.diag([0.1, -0.05, -0.05]).astype(complex)),
              TangentDirection(np.diag([0.0, 0.04, -0.04]).astype(complex))]
        j = rld_matrix(rho, xs)
        assert np.abs(j.imag).max() <= 1e-12
        g = np.array([[2.0, 0.3], [0.3, 1.0]])
        assert holevo_rld_bound(g, j) == pytest.approx(float(np.trace(g @ j.real)), abs=1e-10)

    def test_weight_checked_once(self):
        # symmetric to the 1e-10 weight check, so accepted by both functions
        rho = random_density(2, seed=13)
        j = rld_matrix(rho, [random_tangent(2, seed=14), random_tangent(2, seed=15)])
        g = np.array([[2.0, 0.3], [0.3 + 5e-11, 1.0]])
        exact = np.array([[2.0, 0.3], [0.3, 1.0]])
        assert holevo_rld_bound(g, j) == pytest.approx(holevo_rld_bound(exact, j), abs=1e-9)
        np.testing.assert_allclose(holevo_rld_minimizer(g, j), holevo_rld_minimizer(exact, j), atol=1e-9)

    @pytest.mark.parametrize("g", [[[1.0, 0.3], [0.5, 1.0]], [[1.0, np.nan], [np.nan, 1.0]]])
    def test_weight_rejected(self, g):
        j = rld_matrix(random_density(2, seed=13), [random_tangent(2, seed=14)] * 2)
        with pytest.raises(ValueError, match="symmetric"):
            holevo_rld_bound(np.array(g), j)

    def test_minimizer_attains_and_dominates(self):
        rng = np.random.default_rng(15)
        for k in range(50):
            rho = random_density(2, seed=derive_seed(200, k))
            xs = [random_tangent(2, seed=derive_seed(201, k)),
                  random_tangent(2, seed=derive_seed(202, k))]
            j = rld_matrix(rho, xs)
            g = rng.standard_normal((2, 2))
            g = g @ g.T + 0.1 * np.eye(2)
            bound = holevo_rld_bound(g, j)
            jstar = holevo_rld_minimizer(g, j)
            assert float(np.trace(g @ jstar)) == pytest.approx(bound, abs=1e-8)
            assert np.linalg.eigvalsh(jstar.astype(complex) - j).min() >= -1e-10

    def test_imaginary_part_commutator_identity(self):
        rho = random_density(3, seed=16)
        xs = [random_tangent(3, seed=17), random_tangent(3, seed=18)]
        j = rld_matrix(rho, xs)
        l1, l2 = rld_operator(rho, xs[0]), rld_operator(rho, xs[1])
        comm = -0.5 * np.trace(rho.matrix @ (l1 @ l2 - l2 @ l1))
        # the commutator expectation is purely imaginary; i times it is Im J
        assert abs(comm.real) <= 1e-10
        assert np.imag(j[0, 1]) == pytest.approx(np.real(1j * comm), abs=1e-9)


def _conditioned(rng, d: int, ratio: float) -> DensityMatrix:
    """Random unitary eigenbasis, eigenvalues geometric from ratio up to 1."""
    q, _ = np.linalg.qr(rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d)))
    lam = np.geomspace(ratio, 1.0, d)
    return DensityMatrix((q * (lam / lam.sum())) @ q.conj().T)


def _floored(d, seed, floor):
    """random_density(d, seed), its smallest eigenvalue set to floor and
    the rest rescaled to unit trace; unchanged for floor None."""
    state = random_density(d, seed=seed)
    if floor is None:
        return state
    lam, v = state.eigen
    lam = np.concatenate(([floor], lam[1:] * (1 - floor) / lam[1:].sum()))
    return DensityMatrix((v * lam) @ v.conj().T)


class TestIntegralDivergence:
    def test_equal_pair_zero(self):
        rho = random_density(2, seed=19)
        assert integral_divergence(bkm_metric(), rho, rho) == pytest.approx(0.0, abs=1e-12)

    def test_commuting_any_spec_is_kl(self):
        rho, sigma, p, q = random_commuting_pair(3, seed=20)
        expect = oracles.kl_direct(p, q)
        for spec in ALL_SPECS:
            assert integral_divergence(spec, rho, sigma) == pytest.approx(expect, abs=1e-8)

    def test_bkm_gives_umegaki_on_fixture(self):
        rho, sigma = fixtures.QUBIT_A
        val = integral_divergence(bkm_metric(), rho, sigma)
        assert val == pytest.approx(fixtures.VALUES["qubit_a"]["umegaki"], abs=1e-6)

    def test_rld_gives_rld_divergence_on_fixture(self):
        rho, sigma = fixtures.QUTRIT
        val = integral_divergence(rld_metric(), rho, sigma)
        assert val == pytest.approx(fixtures.VALUES["qutrit"]["rld"], abs=1e-6)

    def test_non_finite_point_is_named(self, monkeypatch):
        # a NaN ratio spectrum places NaN points on the segment, which their
        # stacked eigh names rather than integrating
        spectrum = metrics.ratio_spectrum
        monkeypatch.setattr(metrics, "ratio_spectrum", lambda rho, sigma: spectrum(rho, sigma) * np.nan)
        with pytest.raises(ValueError, match="eigh input contains non-finite entries"):
            integral_divergence(bkm_metric(), *fixtures.QUTRIT)

    def test_single_integral_matches_double_quadrature(self):
        rho, sigma = fixtures.QUBIT_B
        ref = oracles.double_integral_divergence(bkm_metric().f, rho.matrix, sigma.matrix, nodes=48)
        val = integral_divergence(bkm_metric(), rho, sigma)
        assert val == pytest.approx(ref, abs=1e-7)

    @pytest.mark.parametrize("rho,sigma", [
        _random_pair(3, 18394453892175749232),
        (random_density(64, seed=1), random_density(64, seed=2)),
    ], ids=["verify-seed-pair", "ginibre-d64"])
    def test_identities_on_small_eigenvalues(self, rho, sigma):
        # sigma's smallest eigenvalue is 2.4e-6 and 4.8e-8: the integrand
        # has a boundary layer that wide at s = 0
        bkm = integral_divergence(bkm_metric(), rho, sigma)
        assert bkm == pytest.approx(umegaki(rho, sigma).value, abs=1e-6)
        rld = integral_divergence(rld_metric(), rho, sigma)
        assert rld == pytest.approx(rld_entropy(rho, sigma).value, abs=1e-6)

    def test_conditioning_sweep_against_mpmath(self):
        rng = np.random.default_rng(22)
        for d in (2, 3):
            for ratio in (1e-3, 1e-6, 1e-9):
                rho, sigma = (_conditioned(rng, d, ratio) for _ in range(2))
                bkm = integral_divergence(bkm_metric(), rho, sigma)
                rld = integral_divergence(rld_metric(), rho, sigma)
                ref_bkm = oracles.umegaki_mp(rho.matrix, sigma.matrix)
                ref_rld = oracles.rld_mp(rho.matrix, sigma.matrix)
                assert bkm == pytest.approx(ref_bkm, abs=1e-6), (d, ratio)
                assert rld == pytest.approx(ref_rld, abs=1e-6), (d, ratio)

    @pytest.mark.parametrize("n", [6 * 2 ** k for k in range(9)])
    def test_clenshaw_curtis_weights(self, n):
        # every rule up to the cap sums to 2 and integrates x^(2j) exactly
        # for 2j <= N
        w = metrics._cc_weights(n)
        x = np.cos(np.pi * np.arange(n + 1) / n)
        assert w.sum() == pytest.approx(2.0, abs=1e-14)
        for j in range(n // 2 + 1):
            assert w @ x ** (2 * j) == pytest.approx(2 / (2 * j + 1), abs=1e-14), j

    @pytest.mark.parametrize("floor", [1e-4, 1e-6])
    @pytest.mark.parametrize("where", ["sigma", "rho", "both"])
    @pytest.mark.parametrize("d", [3, 16])
    def test_floored_spectra(self, d, where, floor, monkeypatch):
        # the smallest eigenvalue of sigma, rho or both set to the floor:
        # the rule's point count follows the distance to the singular points
        # next to [0, 1], and stays within 97 points (tanh-sinh took 102-213)
        rho = _floored(d, 31, floor if where != "sigma" else None)
        sigma = _floored(d, 32, floor if where != "rho" else None)
        nodes = []
        eigh = np.linalg.eigh
        monkeypatch.setattr(np.linalg, "eigh", lambda a, *args, **kw: nodes.append(len(a)) or eigh(a, *args, **kw))
        for spec, ref in ((bkm_metric(), umegaki(rho, sigma)), (rld_metric(), rld_entropy(rho, sigma))):
            nodes.clear()
            assert integral_divergence(spec, rho, sigma) == pytest.approx(ref.value, abs=1e-9)
            # the decomposed points, all in stacks, and the two ends
            assert sum(nodes) + 2 <= 97

    def test_ratio_spectrum_rounded_below_zero(self):
        # rho's floor 3e-12 is above the support cut, but sigma's 1e-9 makes
        # the bottom of the ratio spectrum round to -4.6e-8; the rule then
        # places b by lambda_min(rho) / lambda_max(sigma), a lower bound
        rho, sigma = _floored(3, 100, 3e-12), _floored(3, 200, 1e-9)
        assert ratio_spectrum(rho, sigma)[0] < 0
        assert integral_divergence(bkm_metric(), rho, sigma) == pytest.approx(umegaki(rho, sigma).value, abs=1e-6)
        assert integral_divergence(rld_metric(), rho, sigma) == pytest.approx(
            rld_entropy(rho, sigma).value, abs=1e-6)

    def test_unconverged_rule_raises(self, monkeypatch):
        monkeypatch.setattr(metrics, "QUADRATURE_STEP_TOL", 0.0)
        rho, sigma = fixtures.QUBIT_A
        with pytest.raises(ConvergenceError, match="did not converge"):
            integral_divergence(bkm_metric(), rho, sigma)

    @pytest.mark.parametrize("pair", [
        fixtures.QUTRIT,
        random_commuting_pair(3, seed=20)[:2],
        (random_density(4, seed=1), random_density(4, seed=2)),
        # rld converges one doubling after the other four specs
        (random_density(3, seed=1009), random_density(3, seed=2009)),
    ], ids=["qutrit", "commuting", "d4", "rld-converges-later"])
    def test_several_specs_equal_one_spec_calls_bitwise(self, pair):
        specs = (sld_metric(), wy_metric(), bkm_metric(), rld_metric(), alpha_metric(2.0))
        together = integral_divergences(specs, *pair)
        alone = [integral_divergence(spec, *pair) for spec in specs]
        assert [v.hex() for v in together] == [v.hex() for v in alone]

    @pytest.mark.parametrize("pair", [
        fixtures.QUBIT_A,
        _random_pair(3, 18394453892175749232),
        random_commuting_pair(3, seed=20)[:2],
    ], ids=["qubit_a", "verify-seed-pair", "commuting"])
    def test_nodes_that_round_to_a_state_are_not_decomposed(self, pair, monkeypatch):
        # no decomposed point is rho or sigma: s = 1 weighs zero and is
        # skipped, and s = 0 reads the eigensystem sigma carries
        decomposed, read = [], []
        eigh, forms = np.linalg.eigh, metrics._petz_forms
        monkeypatch.setattr(np.linalg, "eigh",
                            lambda a, *args, **kw: decomposed.extend(a.reshape(-1, *a.shape[-2:]))
                            or eigh(a, *args, **kw))
        monkeypatch.setattr(metrics, "_petz_forms",
                            lambda specs, eigen, x, y: read.append(eigen) or forms(specs, eigen, x, y))
        specs = (sld_metric(), wy_metric(), bkm_metric(), rld_metric(), alpha_metric(2.0))
        integral_divergences(specs, *pair)
        states = {state.matrix.tobytes() for state in pair}
        assert decomposed and not any(m.tobytes() in states for m in decomposed)
        assert sum(eigen is pair[1].eigen for eigen in read) == 1

    def test_convergence_error_names_the_spec(self):
        # a metric function with fresh noise on every call never settles;
        # bkm beside it converges and is not named
        rng = np.random.default_rng(0)
        noisy = MetricSpec("noisy", lambda x: bkm_metric().f(x) * rng.uniform(0.5, 1.5, np.shape(x)))
        with pytest.raises(ConvergenceError, match="did not converge for noisy") as err:
            integral_divergences((bkm_metric(), noisy), *fixtures.QUBIT_A)
        assert "bkm" not in str(err.value)

    def test_singular_rejected(self):
        rho = DensityMatrix(np.diag([1.0, 0.0]).astype(complex))
        sigma = random_density(2, seed=21)
        with pytest.raises(RankError, match="full-rank"):
            integral_divergence(bkm_metric(), rho, sigma)

    def test_dimension_mismatch_raises(self):
        with pytest.raises(ValueError, match="dimension mismatch"):
            integral_divergence(bkm_metric(), fixtures.QUBIT_A[0], fixtures.QUTRIT[1])
