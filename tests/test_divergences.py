"""Divergence values against independent oracles, support flagging, and the
measured lower bound."""

import math
import tracemalloc

import numpy as np
import pytest

from qdiv import divergences, fixtures
from qdiv.config import SUPPORT_TOL, derive_seed
from qdiv.errors import ConvergenceError
from qdiv.divergences import (SUPPORT_CONTAINED, SUPPORT_EQUAL,
                              SUPPORT_VIOLATED, _projective_kls, dmax,
                              fidelity_logdiv, kl, measured_div_lower,
                              ratio_spectrum, rld_entropy, support_escapes,
                              support_relation, umegaki)
from qdiv.linalg import (eigh, frobenius, matrix_function,
                         off_support_residual, support_projector)
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


def _inside(sigma, seed):
    """A state inside the support of sigma."""
    proj = support_projector(sigma.eigen)
    inner = proj @ random_density(sigma.dim, seed=seed).matrix @ proj
    return DensityMatrix(inner / np.trace(inner).real)


_RANK2 = random_density(3, rank=2, seed=71)
RATIO_PAIRS = {**fixtures.PAIRS, "inside-rank2": (_inside(_RANK2, 79), _RANK2)}


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

    @pytest.mark.parametrize("name", list(RATIO_PAIRS))
    def test_ratio_spectrum_matches_dense_reference(self, name):
        # the eigenvalues of sigma^-1 rho on sigma's support, by a general
        # eigensolver in sigma's support basis, and zeros on its kernel
        rho, sigma = RATIO_PAIRS[name]
        lam, v = np.linalg.eigh(sigma.matrix)
        keep = lam > 1e-12 * lam[-1]
        vs = v[:, keep]
        inside = np.linalg.eigvals(np.linalg.solve(vs.conj().T @ sigma.matrix @ vs, vs.conj().T @ rho.matrix @ vs))
        ref = np.sort(np.concatenate((inside.real, np.zeros(rho.dim - keep.sum()))))
        np.testing.assert_allclose(ratio_spectrum(rho, sigma), ref, rtol=1e-10, atol=1e-12 * ref[-1])

    @pytest.mark.parametrize("name", list(RATIO_PAIRS))
    def test_matches_the_eigh_path(self, name):
        # ln of the top eigenvalue of sigma^-1/2 rho sigma^-1/2 from a full
        # eigh, as dmax read it before it read the ratio spectrum
        rho, sigma = RATIO_PAIRS[name]
        isq = matrix_function(sigma.eigen, lambda x: x ** -0.5, support_only=True)
        inner = isq @ rho.matrix @ isq
        ref = float(np.log(eigh((inner + inner.conj().T) / 2).eigenvalues[-1]))
        assert dmax(rho, sigma) == pytest.approx(ref, rel=1e-14)

    def test_ratio_spectrum_checks_dimensions(self):
        with pytest.raises(ValueError, match="dimension mismatch"):
            ratio_spectrum(fixtures.QUBIT_A[0], fixtures.QUTRIT[1])


_TOP = _RANK2.eigen.eigenvectors[:, -1]
SUPPORT_PAIRS = {
    "full-full": (random_density(3, seed=72), random_density(3, seed=73)),
    "rank2-full": (random_density(3, rank=2, seed=74), random_density(3, seed=75)),
    "pure-full": (random_density(3, rank=1, seed=76), random_density(3, seed=77)),
    "full-rank2": (random_density(3, seed=78), _RANK2),
    "inside-rank2": (_inside(_RANK2, 79), _RANK2),
    "pure-inside-rank2": (DensityMatrix(np.outer(_TOP, _TOP.conj())), _RANK2),
    "rank2-self": (_RANK2, _RANK2),
}


class TestSupportChecks:
    @pytest.mark.parametrize("name", list(SUPPORT_PAIRS))
    def test_relation_matches_projector_residuals(self, name):
        # the projector classification, which a full-rank sigma skips
        rho, sigma = SUPPORT_PAIRS[name]
        proj_r, proj_s = (support_projector(state.eigen) for state in (rho, sigma))
        if off_support_residual(proj_s, rho.matrix) > SUPPORT_TOL:
            expect = SUPPORT_VIOLATED
        elif frobenius(proj_r - proj_s) <= SUPPORT_TOL:
            expect = SUPPORT_EQUAL
        else:
            expect = SUPPORT_CONTAINED
        assert support_relation(rho, sigma) == expect
        assert support_escapes(rho, sigma) == (expect == SUPPORT_VIOLATED)
        assert (dmax(rho, sigma) == math.inf) == (expect == SUPPORT_VIOLATED)


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

    def test_non_finite_direction_is_named(self, monkeypatch):
        # a NaN gradient at the best start reaches the first ascent
        # direction, whose eigh names it rather than ending the search
        gradient = divergences._kl_gradient

        def poisoned(v, r, s):
            val, g = gradient(v, r, s)
            return val, g * np.nan

        monkeypatch.setattr(divergences, "_kl_gradient", poisoned)
        with pytest.raises(ValueError, match="eigh input contains non-finite entries"):
            measured_div_lower(*fixtures.QUTRIT, budget=20)

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
            val, v = measured_div_lower(rho, sigma, budget=120, seed=k)
            assert val <= umegaki(rho, sigma).value + 1e-8
            assert v.shape == (3, 3)
            np.testing.assert_allclose(v.conj().T @ v, np.eye(3), atol=1e-12)

    def test_empty_budget_rejected(self):
        rho = random_density(2, seed=92)
        with pytest.raises(ValueError, match="budget"):
            measured_div_lower(rho, rho, budget=0)

    @pytest.mark.parametrize("budget", [1, 2, 3, 4])
    def test_no_finite_basis_raises(self, budget):
        # half of rho's weight lies on sigma's kernel, so the support escapes
        # and every basis scores +inf: the value is +inf at any budget, with
        # sigma's eigenbasis as the witness, and nothing is searched
        rho = DensityMatrix(np.eye(2, dtype=complex) / 2)
        sigma = DensityMatrix(np.diag([1.0, 0.0]).astype(complex))
        val, v = measured_div_lower(rho, sigma, budget=budget)
        assert val == math.inf
        assert v.tobytes() == sigma.eigen.eigenvectors.tobytes()

    def test_every_start_infinite_raises(self):
        # rho's 1e-11 off sigma's support is within SUPPORT_TOL, so the
        # support does not escape, but all four starts are the standard
        # basis and put that weight on sigma's kernel
        rho = DensityMatrix(np.diag([1.0 - 1e-11, 1e-11]).astype(complex))
        sigma = DensityMatrix(np.diag([1.0, 0.0]).astype(complex))
        assert not support_escapes(rho, sigma)
        with pytest.raises(ConvergenceError, match="finite"):
            measured_div_lower(rho, sigma, budget=50)

    def test_subnormal_outcome_weight_counts_as_zero(self):
        # rho's weight 1e-310 on sigma's kernel is roundoff: the basis stays
        # a finite candidate instead of scoring +inf
        r = np.diag([1.0, 1e-310]).astype(complex)
        s = np.diag([1.0, 0.0]).astype(complex)
        assert _projective_kls(np.eye(2, dtype=complex)[None], r, s)[0] == 0.0

    def test_deterministic(self):
        # nothing is drawn, so the seed does not change the result
        rho = random_density(2, seed=90)
        sigma = random_density(2, seed=91)
        v1, b1 = measured_div_lower(rho, sigma, budget=100, seed=7)
        v2, b2 = measured_div_lower(rho, sigma, budget=100, seed=8)
        assert v1 == v2 and b1.tobytes() == b2.tobytes()

    # zero-weight outcomes: a NaN from 0/0 or ln 0 in the gradient would
    # raise, since the test configuration turns RuntimeWarnings into errors

    def test_rank_deficient_rho_from_its_own_eigenbasis(self):
        # rho's own eigenbasis is the best start, and its third outcome has
        # weight exactly 0
        rho = DensityMatrix(np.diag([0.7, 0.3, 0.0]).astype(complex))
        sigma = random_density(3, seed=15)
        start_vals = _start_values(rho, sigma)
        assert np.argmax(start_vals) == 0
        val, v = measured_div_lower(rho, sigma, budget=200)
        assert math.isfinite(val) and not np.isnan(v).any()
        assert start_vals.max() <= val <= umegaki(rho, sigma).value + 1e-8

    def test_contained_supports(self):
        # sigma of rank 3 in C^4 and rho of rank 2 inside its support: in
        # sigma's eigenbasis the last outcome has weight 0 under both
        sigma = DensityMatrix(np.diag([0.5, 0.3, 0.2, 0.0]).astype(complex))
        block = random_density(3, rank=2, seed=16).matrix
        rho = DensityMatrix(np.pad(block, ((0, 1), (0, 1))))
        assert support_relation(rho, sigma) == SUPPORT_CONTAINED
        val, v = measured_div_lower(rho, sigma, budget=200)
        assert math.isfinite(val) and not np.isnan(v).any()
        assert _start_values(rho, sigma).max() <= val <= umegaki(rho, sigma).value + 1e-8

    def test_basis_stays_unitary(self, monkeypatch):
        # every trial is v W e^{it mu} W^dag; after 500 evaluations (the 4
        # starts and 496 trials) the basis is still unitary to 1e-12
        calls = []
        kl_gradient = divergences._kl_gradient
        monkeypatch.setattr(divergences, "_kl_gradient", lambda *a: calls.append(1) or kl_gradient(*a))
        rho, sigma = random_density(8, seed=305), random_density(8, seed=405)
        _, v = measured_div_lower(rho, sigma, budget=500)
        assert len(calls) == 1 + 496   # the start's gradient, then one per trial
        np.testing.assert_allclose(v.conj().T @ v, np.eye(8), rtol=0, atol=1e-12)

    def test_d64_budget16_not_below_best_start(self):
        rho, sigma = random_density(64, seed=65), random_density(64, seed=66)
        val, _ = measured_div_lower(rho, sigma, budget=16)
        assert _start_values(rho, sigma).max() <= val <= umegaki(rho, sigma).value + 1e-8


def _start_values(rho, sigma):
    """The KL of the four starts: the eigenbases of rho, sigma, rho - sigma
    and rho + sqrt(2) sigma."""
    r, s = rho.matrix, sigma.matrix
    starts = [rho.eigen.eigenvectors, sigma.eigen.eigenvectors,
              np.linalg.eigh(r - s)[1], np.linalg.eigh(r + np.sqrt(2.0) * s)[1]]
    return np.array([oracles.projective_kl(v, r, s) for v in starts])


def _measured_pairs(d):
    """rho of full rank, rank 1 and rank d/2 against a full-rank sigma, in the
    orders (rho, sigma), (sigma, rho) and (rho, rho)."""
    sigma = random_density(d, seed=2000 + d)
    for rank in sorted({d, 1, max(1, d // 2)}):
        rho = random_density(d, rank=rank, seed=1000 + 7 * d + rank)
        yield from ((rho, sigma), (sigma, rho), (rho, rho))


def _assert_not_below_sequential(rho, sigma, budget, seed):
    val, v = measured_div_lower(rho, sigma, budget, seed)
    assert v.shape == (rho.dim, rho.dim)
    if support_escapes(rho, sigma):
        assert val == math.inf
        return
    try:
        want, _ = oracles.sequential_measured_search(rho, sigma, budget, seed)
    except ValueError:   # no basis the reference scored was finite
        return
    assert val >= want - 1e-9


# budgets 1-4 end within the starts, 5-8 before the reference's local search
MEASURED_GRID = ([(d, b) for d in (2, 3, 4, 5, 8) for b in (1, 3, 4, 5, 9, 16, 60, 500)]
                 + [(16, b) for b in (1, 4, 9, 60)] + [(64, b) for b in (1, 5, 16)])


class TestMeasuredMatchesSequential:
    """The ascent against the seeded random search it replaced, kept in
    `oracles` as the reference: never below it by more than 1e-9, and
    exactly +inf where supp rho escapes supp sigma."""

    @pytest.mark.parametrize("d,budget", MEASURED_GRID)
    def test_bitwise_equal(self, d, budget):
        for rho, sigma in _measured_pairs(d):
            _assert_not_below_sequential(rho, sigma, budget, seed=d + budget)

    @pytest.mark.parametrize("budget", [1, 2, 3, 4, 5, 9])
    def test_support_violating_pair(self, budget):
        # the support escapes: (+inf, sigma's eigenbasis) at every budget
        rho = DensityMatrix(np.eye(2, dtype=complex) / 2)
        sigma = DensityMatrix(np.diag([1.0, 0.0]).astype(complex))
        val, v = measured_div_lower(rho, sigma, budget, seed=4)
        assert val == math.inf
        assert v.tobytes() == sigma.eigen.eigenvectors.tobytes()

    def test_zero_weight_rows_take_the_masked_sum(self, monkeypatch):
        # a diagonal rank-1 rho has exactly zero outcome weights in its own
        # eigenbasis, so that start is scored by _kl_sum over the nonzero
        # weights only
        calls = []
        kl_sum = divergences._kl_sum
        monkeypatch.setattr(divergences, "_kl_sum", lambda p, q: calls.append(p) or kl_sum(p, q))
        rho = DensityMatrix(np.diag([1.0, 0.0, 0.0]).astype(complex))
        _assert_not_below_sequential(rho, random_density(3, seed=62), 60, seed=1)
        assert calls and all(np.any(p == 0) for p in calls)

    def test_memory_does_not_grow_with_budget(self):
        rho, sigma = random_density(48, seed=63), random_density(48, seed=64)
        peaks = []
        for budget in (100, 1000):
            tracemalloc.start()
            try:
                measured_div_lower(rho, sigma, budget, 0)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[1] <= 1.25 * peaks[0]
