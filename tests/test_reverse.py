"""Parallel decompositions, the optimal reverse test, competitor lower
bounds, and one-parameter reverse estimation."""

import numpy as np
import pytest

from qdiv import fixtures
from qdiv.config import derive_seed
from qdiv.divergences import kl, rld_entropy
from qdiv.errors import SupportViolationError
from qdiv.metrics import classical_fisher_scalar, metric_scalar, rld_metric
from qdiv.reverse import (optimal_reverse_test, pushforward_reverse_test,
                          refine_reverse_estimation, refine_reverse_test,
                          reverse_estimation_1param)
from qdiv.states import (ClassicalDistribution, DensityMatrix,
                         TangentDirection, apply_channel, cq_apply,
                         random_cptp, random_density, random_tangent,
                         random_unitary)

import oracles


def _rank_deficient_pair(seed):
    """Two rank-2 states in dimension 3 sharing a support."""
    rng = np.random.default_rng(seed)
    u = random_unitary(3, rng)
    iso = u[:, :2]
    r2 = random_density(2, seed=derive_seed(seed, 1))
    s2 = random_density(2, seed=derive_seed(seed, 2))
    return (DensityMatrix(iso @ r2.matrix @ iso.conj().T),
            DensityMatrix(iso @ s2.matrix @ iso.conj().T))


def _conditioned(rng, d: int, lam_min: float) -> DensityMatrix:
    """Haar eigenbasis, smallest eigenvalue lam_min, the others geometric
    from it and rescaled to make the trace 1."""
    lam = np.geomspace(lam_min, 1.0, d)
    lam[1:] *= (1 - lam_min) / lam[1:].sum()
    u = random_unitary(d, rng)
    return DensityMatrix((u * lam) @ u.conj().T)


class TestParallelDecomposition:
    def test_commuting_diagonal_pair(self):
        rho = DensityMatrix(np.diag([0.7, 0.3]).astype(complex))
        sigma = DensityMatrix(np.diag([0.35, 0.65]).astype(complex))
        dec = optimal_reverse_test(rho, sigma)
        # standard basis up to the deterministic symbol ordering
        perm = np.abs(dec.frame) @ np.abs(dec.frame).T
        np.testing.assert_allclose(perm, np.eye(2), atol=1e-10)
        order = np.abs(dec.frame).argmax(axis=0)
        np.testing.assert_allclose(dec.p.probs, np.array([0.7, 0.3])[order], atol=1e-12)
        np.testing.assert_allclose(dec.q.probs, np.array([0.35, 0.65])[order], atol=1e-12)

    def test_equal_pair(self):
        rho = random_density(3, seed=1)
        dec = optimal_reverse_test(rho, rho)
        np.testing.assert_allclose(dec.p.probs, dec.q.probs, atol=1e-10)

    def test_fixture_reconstruction_and_kl(self):
        rho, sigma = fixtures.QUBIT_A
        dec = optimal_reverse_test(rho, sigma)
        np.testing.assert_allclose(dec.state_at(1.0).matrix, rho.matrix, atol=1e-10)
        np.testing.assert_allclose(dec.state_at(0.0).matrix, sigma.matrix, atol=1e-10)
        assert kl(dec.p, dec.q) == pytest.approx(
            oracles.rld_mp(rho.matrix, sigma.matrix), abs=1e-8)

    def test_mixture_path_is_covered(self):
        rho, sigma = fixtures.QUTRIT
        dec = optimal_reverse_test(rho, sigma)
        for t in (0.15, 0.5, 0.85):
            target = t * rho.matrix + (1 - t) * sigma.matrix
            np.testing.assert_allclose(dec.state_at(t).matrix, target, atol=1e-10)

    def test_frame_linearly_independent(self):
        rho, sigma = fixtures.QUTRIT
        dec = optimal_reverse_test(rho, sigma)
        gram = dec.frame.conj().T @ dec.frame
        assert np.linalg.eigvalsh(gram).min() > 1e-10

    def test_shared_rank_deficient_support(self):
        rho, sigma = _rank_deficient_pair(5)
        dec = optimal_reverse_test(rho, sigma)
        assert dec.frame.shape == (3, 2)
        np.testing.assert_allclose(dec.state_at(1.0).matrix, rho.matrix, atol=1e-9)
        assert kl(dec.p, dec.q) == pytest.approx(rld_entropy(rho, sigma).value, abs=1e-8)

    def test_support_mismatch_rejected(self):
        rho = random_density(3, seed=7)
        sigma = DensityMatrix(np.diag([0.5, 0.5, 0.0]).astype(complex))
        with pytest.raises(SupportViolationError, match="rank"):
            optimal_reverse_test(rho, sigma)


class TestOptimalReverseTest:
    def test_commuting_pair_kl(self):
        rho, sigma = fixtures.COMMUTING
        rt = optimal_reverse_test(rho, sigma)
        assert rt.input_kl == pytest.approx(oracles.kl_direct([0.7, 0.3], [0.35, 0.65]), abs=1e-10)

    def test_equal_pair_zero(self):
        rho = random_density(2, seed=9)
        rt = optimal_reverse_test(rho, rho)
        assert rt.input_kl == pytest.approx(0.0, abs=1e-10)

    def test_reconstructions(self):
        rho, sigma = fixtures.QUBIT_B
        rt = optimal_reverse_test(rho, sigma)
        np.testing.assert_allclose(cq_apply(rt.preparation, rt.p).matrix, rho.matrix, atol=1e-9)
        np.testing.assert_allclose(cq_apply(rt.preparation, rt.q).matrix, sigma.matrix, atol=1e-9)

    def test_matches_rld_on_random_pairs(self):
        for k in range(40):
            d = 2 + k % 2
            rho = random_density(d, seed=derive_seed(100, k))
            sigma = random_density(d, seed=derive_seed(101, k))
            rt = optimal_reverse_test(rho, sigma)
            assert abs(rt.input_kl - rld_entropy(rho, sigma).value) <= 1e-8

    def test_symbols_ascend_in_likelihood_ratio(self):
        # refine_reverse_test draws each symbol's split in this order, so the
        # competitor-kl records depend on it
        pairs = [fixtures.QUBIT_A, fixtures.QUBIT_B, fixtures.QUTRIT]
        pairs += [(random_density(d, seed=derive_seed(102, d)), random_density(d, seed=derive_seed(103, d)))
                  for d in (2, 3, 4, 5)]
        for rho, sigma in pairs:
            rt = optimal_reverse_test(rho, sigma)
            assert np.all(np.diff(rt.p.probs / rt.q.probs) > 0)

    @pytest.mark.parametrize("d", [2, 3, 4])
    def test_ill_conditioned_pairs(self, d):
        # smallest eigenvalue in [1e-8, 1e-4] for sigma, rho, then both
        rng = np.random.default_rng(derive_seed(130, d))
        for k in range(12):
            lam = 10 ** rng.uniform(-8, -4)
            rho = _conditioned(rng, d, 1e-2 if k % 3 == 0 else lam)
            sigma = _conditioned(rng, d, 1e-2 if k % 3 == 1 else lam)
            rt = optimal_reverse_test(rho, sigma)
            ref = oracles.rld_mp(rho.matrix, sigma.matrix)
            assert abs(rt.input_kl - ref) <= 1e-9 * abs(ref), (k, lam)
            for t, target in ((1.0, rho), (0.0, sigma)):
                assert np.linalg.norm(rt.state_at(t).matrix - target.matrix) <= 1e-12, (k, lam)
            assert np.all(np.diff(rt.p.probs / rt.q.probs) > 0)

    def test_competitors_never_beat_optimum(self):
        rho, sigma = fixtures.QUBIT_A
        rt = optimal_reverse_test(rho, sigma)
        for k in range(25):
            comp = refine_reverse_test(rt, splits=2 + k % 3, seed=k)
            np.testing.assert_allclose(cq_apply(comp.preparation, comp.p).matrix, rho.matrix, atol=1e-9)
            np.testing.assert_allclose(cq_apply(comp.preparation, comp.q).matrix, sigma.matrix, atol=1e-9)
            assert kl(comp.p, comp.q) >= rt.input_kl - 1e-8

    def test_pushforward_witnesses_monotonicity(self):
        rho, sigma = fixtures.QUBIT_A
        rt = optimal_reverse_test(rho, sigma)
        channels = [random_cptp(2, 2, seed=derive_seed(110, k)) for k in range(10)]
        for ch in channels + [random_cptp(2, 3, seed=1)]:
            wit = pushforward_reverse_test(rt, ch)
            lr, ls = apply_channel(ch, rho), apply_channel(ch, sigma)
            assert wit.dim == ch.dim_out
            np.testing.assert_allclose(cq_apply(wit, rt.p).matrix, lr.matrix, atol=1e-9)
            np.testing.assert_allclose(cq_apply(wit, rt.q).matrix, ls.matrix, atol=1e-9)
            assert rld_entropy(lr, ls).value <= rt.input_kl + 1e-8

    def test_pushforward_rejects_input_dim_mismatch(self):
        rt = optimal_reverse_test(*fixtures.QUBIT_A)
        with pytest.raises(ValueError, match="input dim"):
            pushforward_reverse_test(rt, random_cptp(3, 3, seed=1))


class TestReverseEstimation:
    def test_maximally_mixed_hand_value(self):
        rho = DensityMatrix(np.eye(2, dtype=complex) / 2)
        x = TangentDirection(np.diag([0.1, -0.1]).astype(complex))
        est = reverse_estimation_1param(rho, x)
        assert est.input_fisher == pytest.approx(0.04, abs=1e-12)

    def test_zero_tangent(self):
        rho = random_density(3, seed=11)
        est = reverse_estimation_1param(rho, TangentDirection(np.zeros((3, 3), dtype=complex)))
        np.testing.assert_allclose(est.dp, 0.0, atol=1e-12)
        assert est.input_fisher == pytest.approx(0.0, abs=1e-12)

    def test_matches_rld_metric_qutrit(self):
        for k in range(25):
            rho = random_density(3, seed=derive_seed(120, k))
            x = random_tangent(3, seed=derive_seed(121, k))
            est = reverse_estimation_1param(rho, x)
            jr = metric_scalar(rld_metric(), rho, x)
            assert abs(est.input_fisher - jr) <= 1e-8 * (1 + jr)

    def test_reconstructs_state_and_tangent(self):
        rho = random_density(3, seed=13)
        x = random_tangent(3, seed=14)
        est = reverse_estimation_1param(rho, x)
        rec_rho = (est.frame * est.p.probs) @ est.frame.conj().T
        rec_x = (est.frame * est.dp) @ est.frame.conj().T
        np.testing.assert_allclose(rec_rho, rho.matrix, atol=1e-10)
        np.testing.assert_allclose(rec_x, x.matrix, atol=1e-10)

    def test_competitors_dominated(self):
        rho = random_density(3, seed=15)
        x = random_tangent(3, seed=16)
        est = reverse_estimation_1param(rho, x)
        jr = metric_scalar(rld_metric(), rho, x)
        for k in range(25):
            cp, cdp = refine_reverse_estimation(est, seed=k)
            assert classical_fisher_scalar(cp, cdp) >= jr - 1e-8

    def test_support_violation(self):
        rho = DensityMatrix(np.diag([1.0, 0.0]).astype(complex))
        x = TangentDirection(np.diag([0.1, -0.1]).astype(complex))
        with pytest.raises(SupportViolationError, match="support"):
            reverse_estimation_1param(rho, x)

    def test_rank_deficient_supported_tangent(self):
        rho, _ = _rank_deficient_pair(21)
        w, v = np.linalg.eigh(rho.matrix)
        keep = v[:, w > 1e-12]
        inner = np.array([[0.05, 0.02 - 0.01j], [0.02 + 0.01j, -0.05]])
        x = TangentDirection(keep @ inner @ keep.conj().T)
        est = reverse_estimation_1param(rho, x)
        rec = (est.frame * est.p.probs) @ est.frame.conj().T
        np.testing.assert_allclose(rec, rho.matrix, atol=1e-9)


class TestPathFisherIdentity:
    def test_classical_fisher_equals_rld_along_path(self):
        rho, sigma = fixtures.QUBIT_A
        dec = optimal_reverse_test(rho, sigma)
        diff = TangentDirection(rho.matrix - sigma.matrix)
        for t in (0.2, 0.5, 0.8):
            pt = ClassicalDistribution(t * dec.p.probs + (1 - t) * dec.q.probs)
            jcl = classical_fisher_scalar(pt, dec.p.probs - dec.q.probs)
            jq = metric_scalar(rld_metric(), dec.state_at(t), diff)
            assert jcl == pytest.approx(jq, abs=1e-8)

    def test_integrated_path_fisher_equals_input_kl(self):
        rho, sigma = fixtures.QUBIT_B
        dec = optimal_reverse_test(rho, sigma)
        diff = TangentDirection(rho.matrix - sigma.matrix)
        xs, ws = np.polynomial.legendre.leggauss(96)
        total = sum(wi * (1 - si) * metric_scalar(rld_metric(), dec.state_at(si), diff)
                    for si, wi in zip(0.5 * (xs + 1), 0.5 * ws))
        assert total == pytest.approx(kl(dec.p, dec.q), abs=1e-6)
