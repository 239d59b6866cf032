"""Core dense linear algebra: eigendecomposition, matrix functions on the
support, the off-support residual, and trace norm."""

import numpy as np
import pytest

from qdiv.errors import MatrixDomainError
from qdiv.linalg import (check_hermitian, eigh, logm_support,
                         matrix_function, off_support_residual, pinv_psd,
                         sqrtm_psd, support_projector, trace_norm)
from qdiv.states import ginibre

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

