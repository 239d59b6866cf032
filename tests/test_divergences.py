"""Divergence values against independent oracles, support flagging, and the
measured lower bound."""

import math

import numpy as np
import pytest

from qdiv import fixtures
from qdiv.config import derive_seed
from qdiv.divergences import (SUPPORT_CONTAINED, SUPPORT_EQUAL,
                              SUPPORT_VIOLATED, _projective_kl, dmax,
                              fidelity_logdiv, kl, measured_div_lower,
                              rld_entropy, umegaki)
from qdiv.states import (ClassicalDistribution, DensityMatrix,
                         random_commuting_pair, random_density)

import oracles


def _dist(*vals):
    return ClassicalDistribution(np.array(vals))


class TestKL:
    def test_equal_is_zero(self):
        p = _dist(0.4, 0.6)
        assert kl(p, p) == pytest.approx(0.0, abs=1e-15)

    def test_hand_value(self):
        # 0.75 ln 1.5 + 0.25 ln 0.5 by direct summation
        expect = oracles.kl_direct([0.75, 0.25], [0.5, 0.5])
        assert expect == pytest.approx(0.130812035941137, abs=1e-12)
        assert kl(_dist(0.75, 0.25), _dist(0.5, 0.5)) == pytest.approx(expect, abs=1e-14)

    def test_disjoint_support_infinite(self):
        assert kl(_dist(1.0, 0.0), _dist(0.0, 1.0)) == math.inf

    def test_length_mismatch(self):
        with pytest.raises(ValueError, match="length"):
            kl(_dist(1.0), _dist(0.5, 0.5))


class TestUmegaki:
    def test_self_zero(self):
        rho = random_density(3, seed=1)
        rep = umegaki(rho, rho)
        assert rep.support_condition == SUPPORT_EQUAL
        assert rep.value == pytest.approx(0.0, abs=1e-12)

    def test_commuting_reduces_to_kl(self):
        rho = DensityMatrix(np.diag([0.75, 0.25]).astype(complex))
        sigma = DensityMatrix(np.diag([0.5, 0.5]).astype(complex))
        assert umegaki(rho, sigma).value == pytest.approx(
            oracles.kl_direct([0.75, 0.25], [0.5, 0.5]), abs=1e-14)

    @pytest.mark.parametrize("name", ["qubit_a", "qubit_b", "qutrit"])
    def test_fixture_values_match_oracle(self, name):
        rho, sigma = fixtures.PAIRS[name]
        assert umegaki(rho, sigma).value == pytest.approx(fixtures.VALUES[name]["umegaki"], abs=1e-12)
        assert umegaki(rho, sigma).value == pytest.approx(
            oracles.umegaki_mp(rho.matrix, sigma.matrix), abs=1e-12)

    def test_support_violation_flagged(self):
        rho = DensityMatrix(np.diag([1.0, 0.0]).astype(complex))
        sigma = DensityMatrix(np.diag([0.0, 1.0]).astype(complex))
        rep = umegaki(rho, sigma)
        assert rep.support_condition == SUPPORT_VIOLATED
        assert rep.value == math.inf
        assert not rep.finite

    def test_contained_support_finite(self):
        rho = DensityMatrix(np.diag([1.0, 0.0]).astype(complex))
        sigma = DensityMatrix(np.diag([0.5, 0.5]).astype(complex))
        rep = umegaki(rho, sigma)
        assert rep.support_condition == SUPPORT_CONTAINED
        assert rep.value == pytest.approx(np.log(2.0), abs=1e-12)


class TestRLD:
    def test_commuting_equals_kl(self):
        rho, sigma, p, q = random_commuting_pair(3, seed=7)
        assert rld_entropy(rho, sigma).value == pytest.approx(oracles.kl_direct(p, q), abs=1e-10)

    def test_self_zero(self):
        rho = random_density(2, seed=3)
        assert rld_entropy(rho, rho).value == pytest.approx(0.0, abs=1e-10)

    @pytest.mark.parametrize("name", ["qubit_a", "qubit_b", "qutrit"])
    def test_fixture_values(self, name):
        rho, sigma = fixtures.PAIRS[name]
        val = rld_entropy(rho, sigma).value
        assert val == pytest.approx(fixtures.VALUES[name]["rld"], abs=1e-12)
        assert val == pytest.approx(oracles.rld_mp(rho.matrix, sigma.matrix), abs=1e-12)

    def test_dominates_umegaki(self):
        for k in range(50):
            rho = random_density(3, seed=derive_seed(40, k))
            sigma = random_density(3, seed=derive_seed(41, k))
            assert rld_entropy(rho, sigma).value >= umegaki(rho, sigma).value - 1e-9


class TestFidelityLogDiv:
    def test_pure_self_zero(self):
        v = np.array([1.0, 0.0], dtype=complex)
        rho = DensityMatrix(np.outer(v, v.conj()))
        assert fidelity_logdiv(rho, rho) == pytest.approx(0.0, abs=1e-12)

    def test_maximally_mixed_pair_zero(self):
        # sqrt(I/2) sqrt(I/2) has trace norm one, so the value is ln 1 = 0
        half = DensityMatrix(np.eye(2, dtype=complex) / 2)
        assert fidelity_logdiv(half, half) == pytest.approx(0.0, abs=1e-12)

    def test_orthogonal_pure_states(self):
        rho = DensityMatrix(np.diag([1.0, 0.0]).astype(complex))
        sigma = DensityMatrix(np.diag([0.0, 1.0]).astype(complex))
        assert fidelity_logdiv(rho, sigma) == -math.inf

    @pytest.mark.parametrize("name", ["qubit_a", "qutrit"])
    def test_fixture_values(self, name):
        rho, sigma = fixtures.PAIRS[name]
        assert fidelity_logdiv(rho, sigma) == pytest.approx(fixtures.VALUES[name]["fidelity"], abs=1e-12)


class TestDmax:
    def test_self_zero(self):
        rho = random_density(3, seed=11)
        assert dmax(rho, rho) == pytest.approx(0.0, abs=1e-10)

    def test_diagonal_ratio(self):
        rho = DensityMatrix(np.diag([0.5, 0.5]).astype(complex))
        sigma = DensityMatrix(np.diag([0.75, 0.25]).astype(complex))
        assert dmax(rho, sigma) == pytest.approx(np.log(2.0), abs=1e-12)

    def test_pure_state_inside_full_rank(self):
        rng = np.random.default_rng(5)
        v = rng.standard_normal(3) + 1j * rng.standard_normal(3)
        v /= np.linalg.norm(v)
        rho = DensityMatrix(np.outer(v, v.conj()))
        sigma = random_density(3, seed=50)
        expect = np.log((v.conj() @ np.linalg.inv(sigma.matrix) @ v).real)
        assert dmax(rho, sigma) == pytest.approx(expect, abs=1e-10)

    def test_operator_inequality_certified(self):
        rho = random_density(3, seed=60)
        sigma = random_density(3, seed=61)
        a = dmax(rho, sigma)
        gap = np.linalg.eigvalsh(np.exp(a) * sigma.matrix - rho.matrix).min()
        assert gap >= -1e-10

    def test_support_violation(self):
        rho = DensityMatrix(np.diag([0.5, 0.5]).astype(complex))
        sigma = DensityMatrix(np.diag([1.0, 0.0]).astype(complex))
        assert dmax(rho, sigma) == math.inf


class TestTensorAdditivity:
    def test_all_divergences_additive(self):
        rho1, sigma1 = fixtures.QUBIT_A
        rho2, sigma2 = fixtures.QUTRIT
        prod_r = DensityMatrix(np.kron(rho1.matrix, rho2.matrix))
        prod_s = DensityMatrix(np.kron(sigma1.matrix, sigma2.matrix))
        assert umegaki(prod_r, prod_s).value == pytest.approx(
            umegaki(rho1, sigma1).value + umegaki(rho2, sigma2).value, abs=1e-9)
        assert rld_entropy(prod_r, prod_s).value == pytest.approx(
            rld_entropy(rho1, sigma1).value + rld_entropy(rho2, sigma2).value, abs=1e-9)
        assert dmax(prod_r, prod_s) == pytest.approx(
            dmax(rho1, sigma1) + dmax(rho2, sigma2), abs=1e-9)
        assert fidelity_logdiv(prod_r, prod_s) == pytest.approx(
            fidelity_logdiv(rho1, sigma1) + fidelity_logdiv(rho2, sigma2), abs=1e-9)

    def test_weak_additivity_powers(self):
        from qdiv.states import tensor_power
        rho, sigma = fixtures.QUBIT_B
        rn, sn = tensor_power(rho, 3), tensor_power(sigma, 3)
        assert umegaki(rn, sn).value == pytest.approx(3 * umegaki(rho, sigma).value, abs=1e-9)
        assert rld_entropy(rn, sn).value == pytest.approx(3 * rld_entropy(rho, sigma).value, abs=1e-9)


class TestMeasuredLowerBound:
    def test_self_zero(self):
        rho = random_density(2, seed=70)
        val, _ = measured_div_lower(rho, rho, budget=50, seed=1)
        assert val == pytest.approx(0.0, abs=1e-10)

    def test_commuting_pair_finds_eigenbasis(self):
        rho, sigma, p, q = random_commuting_pair(2, seed=71)
        val, m = measured_div_lower(rho, sigma, budget=60, seed=2)
        assert val == pytest.approx(oracles.kl_direct(p, q), abs=1e-9)

    def test_commuting_degenerate_rho(self):
        rho = DensityMatrix(np.eye(2, dtype=complex) / 2)
        sigma = DensityMatrix(np.diag([0.75, 0.25]).astype(complex))
        val, _ = measured_div_lower(rho, sigma, budget=60, seed=3)
        assert val == pytest.approx(umegaki(rho, sigma).value, abs=1e-9)

    def test_never_exceeds_umegaki(self):
        for k in range(20):
            rho = random_density(3, seed=derive_seed(80, k))
            sigma = random_density(3, seed=derive_seed(81, k))
            val, m = measured_div_lower(rho, sigma, budget=120, seed=k)
            assert val <= umegaki(rho, sigma).value + 1e-8
            assert len(m.effects) == 3

    def test_subnormal_outcome_weight_counts_as_zero(self):
        # rho's weight 1e-310 on sigma's kernel is roundoff: the basis stays
        # a finite candidate instead of scoring +inf
        r = np.diag([1.0, 1e-310]).astype(complex)
        s = np.diag([1.0, 0.0]).astype(complex)
        assert _projective_kl(np.eye(2, dtype=complex), r, s) == 0.0

    def test_deterministic(self):
        rho = random_density(2, seed=90)
        sigma = random_density(2, seed=91)
        v1, _ = measured_div_lower(rho, sigma, budget=100, seed=7)
        v2, _ = measured_div_lower(rho, sigma, budget=100, seed=7)
        assert v1 == v2
