"""Finite-n machinery: likelihood-ratio projectors, threshold scans against
the classical enumeration oracle, certified smoothing, binary reverse tests,
and the conversion channel."""

import math

import numpy as np
import pytest

from qdiv import fixtures
from qdiv.divergences import dmax, umegaki
from qdiv.errors import (InfeasibleRateError, SupportViolationError,
                         ValidationError)
from qdiv.hypotest import (asymptotic_reverse_test, binary_reverse_test,
                           np_projector, smooth_state, state_conversion,
                           stein_threshold, threshold_scan, curve_points,
                           write_curve_csv)
from qdiv.states import DensityMatrix, cq_apply, random_density, tensor_power
from qdiv.suites import classical_threshold_oracle

import oracles


class TestNPProjector:
    def test_large_rate_accepts_everything(self):
        rho, sigma = fixtures.QUBIT_A
        proj, pt = np_projector(rho, sigma, 10.0, 1)
        np.testing.assert_allclose(proj, np.eye(2), atol=1e-12)
        assert pt.type1_accept == pytest.approx(1.0, abs=1e-12)

    def test_very_negative_rate_accepts_nothing(self):
        rho, sigma = fixtures.QUBIT_A
        proj, pt = np_projector(rho, sigma, -10.0, 1)
        np.testing.assert_allclose(proj, 0.0, atol=1e-12)
        assert pt.type1_accept == pytest.approx(0.0, abs=1e-12)

    def test_commuting_matches_classical_region(self):
        rho, sigma = fixtures.COMMUTING
        p = np.diag(rho.matrix).real
        q = np.diag(sigma.matrix).real
        for a in (-0.3, 0.1, 0.4):
            _, pt = np_projector(rho, sigma, a, 1)
            region, accept, type2 = oracles.classical_np_region(p, q, 1, a)
            assert pt.type1_accept == pytest.approx(accept, abs=1e-12)
            assert pt.type2 == pytest.approx(type2, abs=1e-12)

    def test_type2_exponential_bound(self):
        # on the positive eigenspace the state dominates e^{na} sigma, so the
        # complement's type-2 mass is at most e^{-na}
        rho, sigma = fixtures.QUBIT_B
        for n in (2, 4):
            for a in (0.2, 0.4):
                _, pt = np_projector(tensor_power(rho, n), tensor_power(sigma, n), a, n)
                assert pt.type2 <= math.exp(-n * a) * (1 + 1e-9)


class TestSteinThreshold:
    def test_equal_pair_near_zero(self):
        rho = random_density(2, seed=1)
        for eps in (0.3, 0.7):
            assert abs(stein_threshold(rho, rho, 2, eps)) <= 2e-3

    @pytest.mark.parametrize("n", [2, 4, 6])
    def test_commuting_matches_bruteforce(self, n):
        rho, sigma = fixtures.COMMUTING
        p = np.diag(rho.matrix).real
        q = np.diag(sigma.matrix).real
        a_q = stein_threshold(rho, sigma, n, 0.5)
        a_c = classical_threshold_oracle(p, q, n, 0.5)
        assert a_q == pytest.approx(a_c, abs=1e-9)

    def test_eps_validation(self):
        rho, sigma = fixtures.QUBIT_A
        with pytest.raises(ValueError, match="eps"):
            stein_threshold(rho, sigma, 2, 1.5)

    @pytest.mark.parametrize("width", [-1.0, 0.0, math.nan, math.inf])
    def test_width_validation(self, width):
        # a width the grid step never drops below would refine forever
        rho, sigma = fixtures.QUBIT_A
        with pytest.raises(ValueError, match="width"):
            stein_threshold(rho, sigma, 2, 0.5, width=width)
        with pytest.raises(ValueError, match="width"):
            threshold_scan(lambda a: 1.0, -1.0, 1.0, 2, 0.5, width)

    @pytest.mark.parametrize("n", [2, 4])
    def test_rank_deficient_rho_matches_bruteforce(self, n):
        # dmax(sigma, rho) is infinite, so the scan's lower end is not
        p, q = np.array([1.0, 0.0]), np.array([0.3, 0.7])
        rho, sigma = (DensityMatrix(np.diag(v).astype(complex)) for v in (p, q))
        a_q = stein_threshold(rho, sigma, n, 0.5)
        assert a_q == pytest.approx(classical_threshold_oracle(p, q, n, 0.5), abs=1e-9)
        assert a_q == pytest.approx(-math.log(0.3), abs=2e-3)

    def test_shared_kernel_matches_bruteforce(self):
        p, q = np.array([0.5, 0.5, 0.0]), np.array([0.3, 0.7, 0.0])
        rho, sigma = (DensityMatrix(np.diag(v).astype(complex)) for v in (p, q))
        assert stein_threshold(rho, sigma, 2, 0.5) == pytest.approx(
            classical_threshold_oracle(p, q, 2, 0.5), abs=1e-9)

    def test_support_violation_raises(self):
        p, q = np.array([0.3, 0.7]), np.array([1.0, 0.0])
        rho, sigma = (DensityMatrix(np.diag(v).astype(complex)) for v in (p, q))
        with pytest.raises(SupportViolationError):
            stein_threshold(rho, sigma, 2, 0.5)
        with pytest.raises(SupportViolationError):
            classical_threshold_oracle(p, q, 2, 0.5)


class TestSmoothState:
    def test_rate_above_dmax_is_identity(self):
        rho, sigma = fixtures.QUBIT_A
        n = 2
        rn, sn = tensor_power(rho, n), tensor_power(sigma, n)
        sm = smooth_state(rn, sn, dmax(rho, sigma) + 0.05, n)
        assert sm.epsilon == pytest.approx(0.0, abs=1e-12)
        assert sm.accept_shortfall == pytest.approx(0.0, abs=1e-10)
        np.testing.assert_allclose(sm.state.matrix, rn.matrix, atol=1e-12)

    def test_commuting_matches_diagonal_truncation(self):
        rho, sigma = fixtures.COMMUTING
        p = np.diag(rho.matrix).real
        q = np.diag(sigma.matrix).real
        n, a = 3, 0.25
        rn, sn = tensor_power(rho, n), tensor_power(sigma, n)
        sm = smooth_state(rn, sn, a, n)
        tilde, _, _ = oracles.classical_smooth(p, q, n, a)
        np.testing.assert_allclose(np.sort(np.diag(sm.state.matrix).real),
                                   np.sort(tilde), atol=1e-12)

    def test_distance_bound_verified(self):
        rho, sigma = fixtures.QUBIT_A
        d = umegaki(rho, sigma).value
        for n in (2, 4):
            rn, sn = tensor_power(rho, n), tensor_power(sigma, n)
            for a in (d + 0.05, (d + dmax(rho, sigma)) / 2):
                sm = smooth_state(rn, sn, a, n)
                assert sm.epsilon <= sm.datta_bound

    def test_certificate_self_consistent(self):
        rho, sigma = fixtures.QUBIT_B
        n = 4
        rn, sn = tensor_power(rho, n), tensor_power(sigma, n)
        sm = smooth_state(rn, sn, 0.6, n)
        gap = np.linalg.eigvalsh(math.exp(n * sm.rate_certificate) * sn.matrix
                                 - sm.state.matrix).min()
        assert gap >= -1e-9

    def test_renormalization_overshoot_form(self):
        # mildly skewed classical pair keeps the shortfall below 1/8 so the
        # certificate obeys the inverse-shortfall overshoot bound
        rho = DensityMatrix(np.diag([0.55, 0.45]).astype(complex))
        sigma = DensityMatrix(np.diag([0.35, 0.65]).astype(complex))
        n, a = 4, 0.35
        rn, sn = tensor_power(rho, n), tensor_power(sigma, n)
        sm = smooth_state(rn, sn, a, n)
        eps = sm.accept_shortfall
        assert eps < 1 / 8
        bound = a + math.log(1 / (1 - math.sqrt(8 * eps))) / n
        assert sm.rate_certificate <= bound + 1e-6


    def test_support_violation_raises(self):
        rho, sigma = _escaping_pair()
        with pytest.raises(SupportViolationError):
            smooth_state(tensor_power(rho, 2), tensor_power(sigma, 2), 0.5, 2)


def _escaping_pair():
    """A full-rank rho against a rank-1 sigma: supp rho escapes supp sigma."""
    return (DensityMatrix(np.array([[0.6, 0.1], [0.1, 0.4]], dtype=complex)),
            DensityMatrix(np.diag([1.0, 0.0]).astype(complex)))


def _ill_conditioned_pair():
    """A rank-2 rho and a full-rank sigma with smallest eigenvalue 4.3e-4."""
    return random_density(3, rank=2, seed=91), random_density(3, seed=92)


class TestAsymptoticReverseTest:
    def test_rate_above_dmax_exact(self):
        rho, sigma = fixtures.QUBIT_A
        brt = asymptotic_reverse_test(rho, sigma, 3, dmax(rho, sigma) + 0.02)
        assert brt.rho_error == pytest.approx(0.0, abs=1e-12)
        assert brt.sigma_error <= 1e-10

    def test_equal_pair_any_rate_exact(self):
        rho = random_density(2, seed=5)
        for n in (1, 3):
            brt = asymptotic_reverse_test(rho, rho, n, 0.1)
            assert brt.rho_error == pytest.approx(0.0, abs=1e-10)
            assert brt.sigma_error <= 1e-10

    def test_sigma_side_exact_and_psd(self):
        rho, sigma = fixtures.QUBIT_B
        d = umegaki(rho, sigma).value
        for n in (2, 4, 6):
            brt = asymptotic_reverse_test(rho, sigma, n, d + 0.25)
            assert brt.sigma_error <= 1e-10
            assert brt.q.probs[0] == pytest.approx(math.exp(-n * (d + 0.25)), rel=1e-12)
            sn = tensor_power(sigma, n)
            np.testing.assert_allclose(cq_apply(brt.preparation, brt.q).matrix,
                                       sn.matrix, atol=1e-10)

    def test_error_shrinks_with_n_above_divergence_rate(self):
        rho, sigma = fixtures.QUBIT_A
        rate = umegaki(rho, sigma).value + 0.25
        e2 = asymptotic_reverse_test(rho, sigma, 2, rate).rho_error
        e8 = asymptotic_reverse_test(rho, sigma, 8, rate).rho_error
        assert e8 < e2

    def test_certificate_meets_rate(self):
        rho, sigma = fixtures.QUBIT_A
        rate = umegaki(rho, sigma).value + 0.15
        brt = asymptotic_reverse_test(rho, sigma, 4, rate)
        assert brt.certificate <= rate + 1e-9

    def test_support_violation_raises(self):
        with pytest.raises(SupportViolationError):
            asymptotic_reverse_test(*_escaping_pair(), 2, 0.5)

    def test_support_violation_raises_on_powers(self):
        # the capped state lives on supp sigma_n and certifies any rate, so
        # the escape must be caught before it is built
        rho_n, sigma_n = (tensor_power(s, 2) for s in _escaping_pair())
        with pytest.raises(SupportViolationError):
            binary_reverse_test(rho_n, sigma_n, 0.5, 2)

    def test_powers_match_single_copy_entry(self):
        rho, sigma = fixtures.QUBIT_A
        rate = umegaki(rho, sigma).value + 0.15
        brt = binary_reverse_test(tensor_power(rho, 4), tensor_power(sigma, 4), rate, 4)
        ref = asymptotic_reverse_test(rho, sigma, 4, rate)
        assert brt.rho_error == ref.rho_error and brt.certificate == ref.certificate

    def test_rejects_nonpositive_rate(self):
        rho, sigma = fixtures.QUBIT_A
        with pytest.raises(ValueError, match="rate"):
            asymptotic_reverse_test(rho, sigma, 2, 0.0)

    # Known conditioning faults of the dense finite-n layer, pinned until mended.
    @pytest.mark.xfail(strict=True, raises=ValidationError,
                       reason="the capped state gets eigenvalue -2.1e-10 though nothing is capped")
    def test_pure_rho_rate_above_dmax(self):
        rho, sigma = random_density(3, rank=1, seed=51), random_density(3, seed=52)
        assert dmax(rho, sigma) < 6.0
        assert asymptotic_reverse_test(rho, sigma, 4, 6.0).rho_error <= 1e-8

    @pytest.mark.xfail(strict=True, raises=InfeasibleRateError,
                       reason="the capped state's certificate misses the rate by 2e-9 to 2e-8")
    @pytest.mark.parametrize("rate", [0.3, 1.0])
    def test_ill_conditioned_sigma_n3(self, rate):
        brt = asymptotic_reverse_test(*_ill_conditioned_pair(), 3, rate)
        assert brt.certificate <= rate + 1e-9

    @pytest.mark.xfail(strict=True, raises=SupportViolationError,
                       reason="sigma^(x4) has eigenvalues under the 1e-12 relative support cutoff")
    @pytest.mark.parametrize("rate", [0.3, 1.0, 2.0])
    def test_ill_conditioned_sigma_n4(self, rate):
        brt = asymptotic_reverse_test(*_ill_conditioned_pair(), 4, rate)
        assert brt.certificate <= rate + 1e-9


class TestStateConversion:
    def test_gap_hypothesis_enforced(self):
        rho, sigma = fixtures.QUBIT_A
        with pytest.raises(ValueError, match="gap"):
            state_conversion(rho, sigma, rho, sigma, 2, 0.05)

    def test_classical_quadruple_matches_enumeration(self):
        rho0, sigma0 = fixtures.CONVERSION_SOURCE
        rho, sigma = fixtures.COMMUTING
        p0 = np.diag(rho0.matrix).real
        q0 = np.diag(sigma0.matrix).real
        p = np.diag(rho.matrix).real
        q = np.diag(sigma.matrix).real
        c = 0.2
        for n in (2, 4, 6):
            channel, rep = state_conversion(rho0, sigma0, rho, sigma, n, c)
            ref = oracles.classical_conversion(p0, q0, p, q, n, c)
            assert rep.feasible
            assert rep.rate == pytest.approx(ref["rate"], abs=1e-10)
            assert rep.accept_prob == pytest.approx(ref["accept"], abs=1e-10)
            assert rep.rho_error == pytest.approx(ref["rho_err"], abs=1e-9)
            assert rep.sigma_error <= 1e-10
            out = channel.apply(tensor_power(rho0, n))
            np.testing.assert_allclose(np.sort(np.diag(out.matrix).real),
                                       np.sort(ref["out_p"]), atol=1e-9)

    def test_fixture_trend_and_exactness(self):
        rho0, sigma0 = fixtures.CONVERSION_SOURCE
        d0 = umegaki(rho0, sigma0).value
        for rho, sigma in (fixtures.QUBIT_A, fixtures.QUBIT_B):
            d1 = umegaki(rho, sigma).value
            c = 0.45 * (d0 - d1)
            errs = {}
            for n in (2, 6):
                channel, rep = state_conversion(rho0, sigma0, rho, sigma, n, c)
                assert rep.feasible
                assert rep.sigma_error <= 1e-9
                errs[n] = rep.rho_error
                out_s = channel.apply(tensor_power(sigma0, n))
                assert np.abs(out_s.matrix - tensor_power(sigma, n).matrix).max() <= 1e-10
            assert errs[6] < errs[2]


class TestDmaxContinuityTrend:
    def test_first_argument_perturbations(self):
        # shrinking trace-distance perturbations move dmax less and less
        rho, sigma = fixtures.QUBIT_A
        from qdiv.states import random_tangent
        x = random_tangent(2, seed=42).matrix
        x /= np.abs(np.linalg.eigvalsh(x)).sum()
        base = dmax(rho, sigma)
        shifts = []
        for scale in (1e-3, 1e-4, 1e-5):
            pert = DensityMatrix(rho.matrix + scale * x)
            shifts.append(abs(dmax(pert, sigma) - base))
        assert shifts[0] <= 0.05
        assert shifts[0] > shifts[1] > shifts[2]


class TestCurveCSV:
    def test_schema(self, tmp_path):
        rho, sigma = fixtures.QUBIT_A
        pts = curve_points(rho, sigma, 2, [0.2, 0.5])
        path = tmp_path / "curve.csv"
        write_curve_csv(str(path), [(2, pt, 0.55) for pt in pts])
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "n,a,type1_accept,type2,threshold"
        assert len(lines) == 3
        first = lines[1].split(",")
        assert int(first[0]) == 2
        assert float(first[1]) == pytest.approx(0.2)
