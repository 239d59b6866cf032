"""Quantum object constructors, channel/measurement operations, tensor
powers, and the seeded random generators."""

from dataclasses import FrozenInstanceError

import numpy as np
import pytest

from qdiv.config import derive_seed
from qdiv.errors import DimensionCapError, ValidationError
from qdiv.linalg import eigh
from qdiv.states import (ClassicalDistribution, DensityMatrix, Measurement,
                         Preparation, QuantumChannel, TangentDirection,
                         apply_channel, apply_channel_tangent, basis_weights,
                         cq_apply, measure, random_commuting_pair,
                         random_cptp, random_density, random_tangent,
                         random_unitary, tensor_power)


class TestConstructors:
    def test_density_rejects_bad_trace(self):
        with pytest.raises(ValidationError, match="trace"):
            DensityMatrix(np.diag([0.7, 0.7]).astype(complex))

    def test_density_rejects_negative(self):
        with pytest.raises(ValidationError):
            DensityMatrix(np.diag([1.2, -0.2]).astype(complex))

    def test_density_clips_roundoff(self):
        rho = DensityMatrix(np.diag([1.0 + 5e-11, -5e-11]).astype(complex))
        assert np.linalg.eigvalsh(rho.matrix).min() >= 0.0

    def test_density_keeps_validation_eigensystem(self):
        rho = random_density(4, seed=17)
        w, v = eigh(rho.matrix)
        assert np.array_equal(rho.eigen.eigenvalues, w)
        assert np.array_equal(rho.eigen.eigenvectors, v)

    def test_density_eigensystem_after_clip(self):
        rho = DensityMatrix(np.diag([1.0 + 5e-11, -5e-11]).astype(complex))
        w, v = rho.eigen
        assert w.min() >= 0.0
        np.testing.assert_allclose((v * w) @ v.conj().T, rho.matrix, rtol=0, atol=1e-15)

    def test_density_eigensystem_is_frozen(self):
        rho = random_density(2, seed=3)
        with pytest.raises(FrozenInstanceError):
            rho.eigen = eigh(np.eye(2, dtype=complex) / 2)

    def test_tangent_rejects_trace(self):
        with pytest.raises(ValidationError, match="trace"):
            TangentDirection(np.diag([0.1, 0.0]).astype(complex))

    def test_channel_rejects_incomplete(self):
        with pytest.raises(ValidationError, match="completeness"):
            QuantumChannel((np.eye(2, dtype=complex) * 0.9,))

    def test_measurement_rejects_incomplete(self):
        with pytest.raises(ValidationError, match="completeness"):
            Measurement((np.diag([0.5, 0.5]).astype(complex),))

    def test_distribution_rejects_negative(self):
        with pytest.raises(ValidationError):
            ClassicalDistribution(np.array([1.1, -0.1]))

    def test_distribution_rejects_bad_sum(self):
        with pytest.raises(ValidationError, match="sum"):
            ClassicalDistribution(np.array([0.5, 0.6]))

    def test_preparation_rejects_mixed_dims(self):
        a = DensityMatrix(np.eye(2, dtype=complex) / 2)
        b = DensityMatrix(np.eye(3, dtype=complex) / 3)
        with pytest.raises(ValidationError, match="dimension"):
            Preparation((a, b))

    def test_fuzz_generators_never_violate(self):
        # 1000 seeded instances per type construct without a validation error
        from qdiv.states import ginibre
        for k in range(1000):
            dim = 2 + k % 3
            rho = random_density(dim, rank=1 + k % dim, seed=derive_seed(1, k))
            random_tangent(dim, seed=derive_seed(2, k))
            random_cptp(dim, dim, kraus_count=1 + k % 3, seed=derive_seed(3, k))
            rng = np.random.default_rng(derive_seed(4, k))
            ClassicalDistribution(rng.dirichlet(np.ones(dim)))
            blocks = [ginibre(dim, dim, rng) for _ in range(2)]
            gram = sum(b.conj().T @ b for b in blocks)
            isq = np.linalg.inv(np.linalg.cholesky(gram)).conj().T
            Measurement(tuple((b @ isq).conj().T @ (b @ isq) for b in blocks))
            Preparation((rho, random_density(dim, seed=derive_seed(5, k))))


class TestChannelOps:
    def test_identity_channel(self):
        rho = random_density(3, seed=4)
        ch = QuantumChannel((np.eye(3, dtype=complex),))
        np.testing.assert_allclose(apply_channel(ch, rho).matrix, rho.matrix, atol=1e-14)

    def test_depolarizing_measure_and_replace(self):
        d = 3
        kraus = tuple(np.sqrt(1.0 / d) * np.outer(np.eye(d)[i], np.eye(d)[j])
                      for i in range(d) for j in range(d))
        ch = QuantumChannel(kraus)
        rho = random_density(d, seed=9)
        np.testing.assert_allclose(apply_channel(ch, rho).matrix, np.eye(d) / d, atol=1e-12)

    def test_random_channel_preserves_trace_and_psd(self):
        for k in range(500):
            dim = 2 + k % 2
            rho = random_density(dim, seed=derive_seed(10, k))
            ch = random_cptp(dim, dim, seed=derive_seed(11, k))
            out = apply_channel(ch, rho)
            assert abs(np.trace(out.matrix).real - 1.0) <= 1e-10
            assert np.linalg.eigvalsh(out.matrix).min() >= -1e-12

    def test_tangent_identity_and_zero(self):
        x = random_tangent(2, seed=1)
        ch = QuantumChannel((np.eye(2, dtype=complex),))
        np.testing.assert_allclose(apply_channel_tangent(ch, x).matrix, x.matrix, atol=1e-14)
        zero = TangentDirection(np.zeros((2, 2), dtype=complex))
        out = apply_channel_tangent(random_cptp(2, 2, seed=3), zero)
        np.testing.assert_allclose(out.matrix, 0.0, atol=1e-14)

    def test_unitary_channel_preserves_tangent_spectrum(self):
        rng = np.random.default_rng(17)
        from qdiv.states import random_unitary
        u = random_unitary(3, rng)
        ch = QuantumChannel((u,))
        x = random_tangent(3, seed=21)
        out = apply_channel_tangent(ch, x)
        np.testing.assert_allclose(np.linalg.eigvalsh(out.matrix),
                                   np.linalg.eigvalsh(x.matrix), atol=1e-12)

    def test_dim_mismatch(self):
        with pytest.raises(ValueError, match="dim"):
            apply_channel(random_cptp(2, 2, seed=0), random_density(3, seed=0))


class TestClassicalQuantum:
    def test_point_mass(self):
        states = tuple(random_density(2, seed=s) for s in (1, 2, 3))
        prep = Preparation(states)
        p = ClassicalDistribution(np.array([0.0, 1.0, 0.0]))
        np.testing.assert_allclose(cq_apply(prep, p).matrix, states[1].matrix, atol=1e-14)

    def test_uniform_over_identical(self):
        s = random_density(2, seed=5)
        prep = Preparation((s, s))
        p = ClassicalDistribution(np.array([0.5, 0.5]))
        np.testing.assert_allclose(cq_apply(prep, p).matrix, s.matrix, atol=1e-14)

    def test_measure_identity_effect(self):
        m = Measurement((np.eye(2, dtype=complex),))
        out = measure(m, random_density(2, seed=1))
        np.testing.assert_allclose(out.probs, [1.0])

    def test_basis_measurement_reads_diagonal(self):
        rho = DensityMatrix(np.diag([0.25, 0.75]).astype(complex))
        m = Measurement((np.diag([1.0, 0.0]).astype(complex), np.diag([0.0, 1.0]).astype(complex)))
        np.testing.assert_allclose(measure(m, rho).probs, [0.25, 0.75], atol=1e-14)

    def test_random_povm_valid_distribution(self):
        rng = np.random.default_rng(33)
        for k in range(100):
            from qdiv.states import ginibre
            blocks = [ginibre(3, 3, rng) for _ in range(3)]
            gram = sum(b.conj().T @ b for b in blocks)
            isq = np.linalg.inv(np.linalg.cholesky(gram)).conj().T
            effects = tuple((b @ isq).conj().T @ (b @ isq) for b in blocks)
            m = Measurement(effects)
            out = measure(m, random_density(3, seed=derive_seed(12, k)))
            assert out.probs.min() >= -1e-12
            assert abs(out.probs.sum() - 1.0) <= 1e-10

    def test_basis_weights_match_povm_pushforward(self):
        rng = np.random.default_rng(34)
        for k in range(40):
            d = 2 + k % 4
            v = random_unitary(d, rng)
            m = Measurement(tuple(np.outer(v[:, j], v[:, j].conj()) for j in range(d)))
            rho = random_density(d, seed=derive_seed(13, k))
            x = random_tangent(d, seed=derive_seed(14, k))
            np.testing.assert_allclose(basis_weights(v, rho.matrix), measure(m, rho).probs,
                                       rtol=0, atol=1e-14)
            # a tangent has no distribution to measure into: its pushforward
            # is the same trace tr(E_k X) that measure takes of a state
            np.testing.assert_allclose(basis_weights(v, x.matrix),
                                       [np.trace(e @ x.matrix).real for e in m.effects],
                                       rtol=0, atol=1e-14)


class TestTensorPower:
    def test_n_one(self):
        rho = random_density(2, seed=8)
        np.testing.assert_array_equal(tensor_power(rho, 1).matrix, rho.matrix)

    def test_diagonal_square(self):
        rho = DensityMatrix(np.diag([0.25, 0.75]).astype(complex))
        out = tensor_power(rho, 2)
        np.testing.assert_allclose(np.diag(out.matrix).real,
                                   [0.0625, 0.1875, 0.1875, 0.5625], atol=1e-14)

    def test_eigenvalues_are_products(self):
        rho = random_density(2, seed=13)
        w1 = np.linalg.eigvalsh(rho.matrix)
        w3 = np.sort(np.linalg.eigvalsh(tensor_power(rho, 3).matrix))
        expect = np.sort([a * b * c for a in w1 for b in w1 for c in w1])
        np.testing.assert_allclose(w3, expect, atol=1e-12)

    def test_additive_splitting(self):
        rho = random_density(2, seed=14)
        lhs = tensor_power(rho, 5).matrix
        rhs = np.kron(tensor_power(rho, 2).matrix, tensor_power(rho, 3).matrix)
        assert np.abs(lhs - rhs).max() <= 1e-12

    def test_cap_enforced(self, monkeypatch):
        monkeypatch.setenv("QDIV_DIM_CAP", "16")
        rho = random_density(2, seed=15)
        with pytest.raises(DimensionCapError, match="dimension 32"):
            tensor_power(rho, 5)


class TestRandomGenerators:
    def test_rank_one_is_pure(self):
        rho = random_density(4, rank=1, seed=77)
        w = np.linalg.eigvalsh(rho.matrix)
        np.testing.assert_allclose(w, [0, 0, 0, 1], atol=1e-12)

    def test_cptp_completeness_tight(self):
        for k in range(50):
            ch = random_cptp(3, 2, kraus_count=4, seed=derive_seed(20, k))
            total = sum(op.conj().T @ op for op in ch.kraus)
            assert np.abs(total - np.eye(3)).max() <= 1e-10

    def test_same_seed_bitwise_identical(self):
        a = random_density(3, seed=123)
        b = random_density(3, seed=123)
        np.testing.assert_array_equal(a.matrix, b.matrix)
        ca = random_cptp(2, 2, seed=5)
        cb = random_cptp(2, 2, seed=5)
        for ka, kb in zip(ca.kraus, cb.kraus):
            np.testing.assert_array_equal(ka, kb)

    def test_commuting_pair_commutes(self):
        rho, sigma, p, q = random_commuting_pair(3, seed=6)
        comm = rho.matrix @ sigma.matrix - sigma.matrix @ rho.matrix
        assert np.abs(comm).max() <= 1e-12
        np.testing.assert_allclose(np.sort(np.linalg.eigvalsh(rho.matrix)), np.sort(p), atol=1e-12)
