"""Core dense linear algebra: eigendecomposition, matrix functions on the
support, the off-support residual, and trace norm."""

import math

import numpy as np
import pytest

from qdiv import fixtures, hypotest, linalg, reverse
from qdiv.divergences import rld_entropy, umegaki
from qdiv.errors import MatrixDomainError
from qdiv.hypotest import CopyPair
from qdiv.linalg import (EigenSystem, canonical_phases, check_hermitian, eigh,
                         logm_support, matrix_function, off_support_residual,
                         pinv_psd, sqrtm_psd, support_projector, trace_norm)
from qdiv.reverse import support_frame
from qdiv.states import DensityMatrix, TangentDirection, ginibre, random_density

from oracles import eig2_closed_form


class TestEigh:
    def test_identity(self):
        w, v = eigh(np.eye(2, dtype=complex))
        np.testing.assert_allclose(w, [1.0, 1.0])
        np.testing.assert_allclose(v.conj().T @ v, np.eye(2), atol=1e-12)

    def test_diagonal(self):
        w, v = eigh(np.diag([0.25, 0.75]).astype(complex))
        np.testing.assert_allclose(w, [0.25, 0.75])
        np.testing.assert_allclose(np.abs(v), np.eye(2), atol=1e-12)

    def test_hadamard_projector_closed_form(self):
        h = np.array([[0.5, 0.5], [0.5, 0.5]], dtype=complex)
        lo, hi = eig2_closed_form(h)
        w, _ = eigh(h)
        np.testing.assert_allclose(w, [lo, hi], atol=1e-14)
        np.testing.assert_allclose(w, [0.0, 1.0], atol=1e-14)

    def test_roundtrip_500_random(self):
        rng = np.random.default_rng(11)
        for k in range(500):
            d = int(rng.integers(2, 9))
            g = ginibre(d, d, rng)
            h = (g + g.conj().T) / 2
            w, v = eigh(h)
            err = np.linalg.norm((v * w) @ v.conj().T - h)
            assert err <= 1e-10 * (1 + np.linalg.norm(h))
            assert np.all(np.diff(w) >= -1e-14)
            assert np.linalg.norm(v.conj().T @ v - np.eye(d)) <= 1e-10

    def test_deterministic_and_phase_canonical(self):
        rng = np.random.default_rng(3)
        g = ginibre(4, 4, rng)
        h = (g + g.conj().T) / 2
        w1, v1 = eigh(h)
        w2, v2 = eigh(h.copy())
        np.testing.assert_array_equal(w1, w2)
        np.testing.assert_array_equal(v1, v2)
        lead = v1[np.abs(v1).argmax(axis=0), np.arange(4)]
        assert np.all(np.abs(lead.imag) <= 1e-12)
        assert np.all(lead.real > 0)
        # a state keeps the phases of the decomposition its validation made
        rho = DensityMatrix(h @ h.conj().T / np.trace(h @ h.conj().T).real)
        v3 = rho.eigen.eigenvectors
        np.testing.assert_array_equal(v3, eigh(rho.matrix).eigenvectors)
        lead = v3[np.abs(v3).argmax(axis=0), np.arange(4)]
        assert np.all(np.abs(lead.imag) <= 1e-12) and np.all(lead.real > 0)

    def test_rejects_non_hermitian(self):
        with pytest.raises(ValueError, match="Hermitian"):
            eigh(np.array([[0.0, 1.0], [0.0, 0.0]]))

    def test_stack_equals_each_matrix_alone(self):
        rng = np.random.default_rng(5)
        for d in (2, 3, 16):
            g = np.stack([ginibre(d, d, rng) for _ in range(7)])
            stack = g + g.conj().swapaxes(-1, -2)
            w, v = eigh(stack)
            herm = check_hermitian(stack)
            for k, m in enumerate(stack):
                wk, vk = eigh(m)
                assert np.array_equal(w[k], wk) and np.array_equal(v[k], vk)
                assert np.array_equal(herm[k], check_hermitian(m))

    @pytest.mark.parametrize("shape", [(0, 0), (3, 0, 0), (2, 3), (4, 2, 3), (3,)])
    def test_rejects_empty_or_non_square(self, shape):
        with pytest.raises(ValueError, match="must be square and nonempty"):
            check_hermitian(np.zeros(shape))

    def test_stacked_check_scales_each_matrix(self):
        # the defect 1e-9 is far below 1e-12 of the stack's largest entry,
        # but not of its own matrix's
        rng = np.random.default_rng(6)
        g = ginibre(3, 3, rng)
        big = 1e6 * (g + g.conj().T)
        bad = np.eye(3, dtype=complex)
        bad[0, 1] = 1e-9
        check_hermitian(big)
        with pytest.raises(ValueError, match=r"not Hermitian \(matrix 2 of the stack\): defect 1\.000e-09"):
            check_hermitian(np.stack([big, 2 * big, bad]))
        with pytest.raises(ValueError, match="not Hermitian"):
            eigh(np.stack([big, bad, big]))

    @pytest.mark.parametrize("entry", [(0, 0), (0, 1)], ids=["diagonal", "off-diagonal"])
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf], ids=["nan", "+inf", "-inf"])
    @pytest.mark.parametrize("stack", [False, True], ids=["matrix", "stack"])
    @pytest.mark.parametrize("check", [eigh, check_hermitian, DensityMatrix, TangentDirection],
                             ids=["eigh", "check_hermitian", "DensityMatrix", "TangentDirection"])
    def test_rejects_non_finite_entries(self, check, stack, bad, entry):
        m = np.diag([0.5, 0.5]).astype(complex)
        m[entry] = bad
        with pytest.raises(ValueError, match="contains non-finite entries"):
            check(np.stack([np.eye(2) / 2, np.eye(2) / 2, m]) if stack else m)

    @pytest.mark.parametrize("bad", [math.inf, -math.inf], ids=["+inf", "-inf"])
    def test_rejects_mirrored_infinite_entries(self, bad):
        # a Hermitian pattern of infinities: the defect inf - inf is NaN, so
        # the check fails and the scan names the entries
        m = np.diag([0.5, 0.5]).astype(complex)
        m[0, 1] = m[1, 0] = bad
        with pytest.raises(ValueError, match="contains non-finite entries"):
            check_hermitian(m)

    def test_non_finite_entries_are_named_before_another_matrix_of_the_stack(self):
        ok, skew, bad = np.eye(2, dtype=complex), np.array([[0.0, 1.0], [0.0, 0.0]]), np.eye(2, dtype=complex)
        bad[1, 0] = math.nan
        with pytest.raises(ValueError, match=r"not Hermitian \(matrix 1 of the stack\): defect 1\.000e\+00"):
            check_hermitian(np.stack([ok, skew, ok]))
        with pytest.raises(ValueError, match="contains non-finite entries"):
            check_hermitian(np.stack([skew, ok, bad]))


def _rephased(rule):
    """eigh_unphased with its eigenvectors rotated by rule: canonical phases,
    or unit phases drawn from a fixed seed."""
    unphased, rng = linalg.eigh_unphased, np.random.default_rng(17)

    def rephased(h):
        w, v = unphased(h)
        if rule == "canonical":
            return EigenSystem(w, canonical_phases(v))
        return EigenSystem(w, v * np.exp(1j * rng.uniform(0, 2 * np.pi, v.shape[:-2] + (1, v.shape[-1]))))
    return rephased


def _rank2_inside_pair():
    sigma = random_density(3, rank=2, seed=71)
    iso = sigma.eigen.eigenvectors[:, 1:]
    return DensityMatrix(iso @ random_density(2, seed=72).matrix @ iso.conj().T), sigma


class TestUnphasedReads:
    """Each read that takes LAPACK's eigenvector phases gives, to 1e-14, what
    it gives from canonical or from arbitrary phases."""

    @staticmethod
    def _reads(name, n):
        rho, sigma = getattr(fixtures, name)
        pair = CopyPair(rho, sigma, n)
        a = umegaki(rho, sigma).value
        proj, pt = pair.projector(a)
        sm = pair.smooth(a + 0.1)
        curve = [(p.type1_accept, p.type2) for p in pair.curve_points([a - 0.2, a, a + 0.2])]
        return [pair.threshold(0.5), pair.threshold(0.1), curve, proj, pt.type1_accept, pt.type2,
                sm.epsilon, sm.rate_certificate]

    @staticmethod
    def _frame_reads():
        rho, sigma = _rank2_inside_pair()
        return [*support_frame(rho, sigma), rld_entropy(rho, sigma).value]

    @pytest.mark.parametrize("rule", ["canonical", "random"])
    @pytest.mark.parametrize("name,n", [("QUBIT_A", 4), ("QUTRIT", 2)])
    def test_copy_pair_reads(self, monkeypatch, rule, name, n):
        ref = self._reads(name, n)
        for module in (linalg, hypotest, reverse):
            monkeypatch.setattr(module, "eigh_unphased", _rephased(rule))
        for got, want in zip(self._reads(name, n), ref, strict=True):
            np.testing.assert_allclose(got, want, rtol=0, atol=1e-14)

    @pytest.mark.parametrize("rule", ["canonical", "random"])
    def test_support_frame_and_rld_on_a_rank_deficient_sigma(self, monkeypatch, rule):
        ref = self._frame_reads()
        assert ref[0].shape == (3, 2) and math.isfinite(ref[-1])
        for module in (linalg, reverse):
            monkeypatch.setattr(module, "eigh_unphased", _rephased(rule))
        for got, want in zip(self._frame_reads(), ref, strict=True):
            np.testing.assert_allclose(got, want, rtol=0, atol=1e-14)


class TestMatrixFunction:
    def test_sqrt_diagonal(self):
        out = matrix_function(np.diag([4.0, 9.0]).astype(complex), np.sqrt)
        np.testing.assert_allclose(out, np.diag([2.0, 3.0]), atol=1e-12)

    def test_pseudo_inverse_on_support(self):
        out = pinv_psd(np.diag([0.5, 0.0]).astype(complex))
        np.testing.assert_allclose(out, np.diag([2.0, 0.0]), atol=1e-12)

    def test_log_of_projector_like_matrix(self):
        h = np.array([[0.5, 0.5], [0.5, 0.5]], dtype=complex) + 1e-3 * np.eye(2)
        out = matrix_function(h, np.log)
        lo, hi = eig2_closed_form(h)
        w, v = np.linalg.eigh(h)
        expected = (v * np.log([lo, hi])) @ v.conj().T
        np.testing.assert_allclose(out, expected, atol=1e-12)

    def test_domain_error_names_eigenvalue(self):
        with pytest.raises(MatrixDomainError, match="eigenvalue"):
            matrix_function(np.diag([0.5, 0.0]).astype(complex), np.log)

    def test_sqrt_squares_back(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            d = int(rng.integers(2, 6))
            g = ginibre(d, d, rng)
            h = g @ g.conj().T
            s = sqrtm_psd(h)
            assert np.linalg.norm(s @ s - h) <= 1e-9 * (1 + np.linalg.norm(h))

    def test_full_support_takes_every_eigenvalue_unmasked(self):
        # on a full-rank matrix the support path is the plain one, bit for bit
        es = random_density(4, seed=5).eigen
        for fn in (np.sqrt, np.log, lambda x: x ** -0.5):
            assert np.array_equal(matrix_function(es, fn, support_only=True), matrix_function(es, fn))

    def test_logm_support_ignores_kernel(self):
        h = np.diag([0.5, 0.0]).astype(complex)
        out = logm_support(h)
        np.testing.assert_allclose(out, np.diag([np.log(0.5), 0.0]), atol=1e-12)

    def test_off_support_residual_is_kernel_block(self):
        proj = support_projector(np.diag([0.5, 0.5, 0.0]).astype(complex))
        m = np.arange(9, dtype=complex).reshape(3, 3)
        m = m + m.T
        # only the kernel-kernel entry m[2, 2] = 16 survives
        assert off_support_residual(proj, m) == pytest.approx(16.0, abs=1e-12)
        assert off_support_residual(proj, np.diag([0.3, 0.7, 0.0]).astype(complex)) == 0.0


class TestTraceNorm:
    def test_diagonal(self):
        assert trace_norm(np.diag([0.3, -0.7])) == pytest.approx(1.0)

    def test_zero(self):
        rng = np.random.default_rng(2)
        g = ginibre(3, 3, rng)
        rho = g @ g.conj().T
        assert trace_norm(rho - rho) == pytest.approx(0.0, abs=1e-14)

    def test_product_of_maximally_mixed_roots(self):
        # sqrt(I/2) sqrt(I/2) = I/2 whose singular values sum to 1
        half = np.eye(2, dtype=complex) / 2
        prod = sqrtm_psd(half) @ sqrtm_psd(half)
        assert trace_norm(prod) == pytest.approx(1.0)

