"""Parallel decompositions of state pairs, the optimal reverse test, and
optimal one-parameter reverse estimation.

A reverse test of (rho, sigma) is a preparation Phi and a classical pair
(p, q) with Phi(p) = rho, Phi(q) = sigma; the minimal achievable KL input
equals the RLD divergence, attained by decomposing both states over one
linearly independent frame of pure states.
"""

from dataclasses import dataclass

import numpy as np

from .config import DEFAULT_TOLERANCES
from .errors import SupportViolationError
from .divergences import kl
from .linalg import (eigh, frobenius, matrix_function, polar_unitary,
                     sqrtm_psd, support_cutoff)
from .metrics import classical_fisher_scalar
from .states import (ClassicalDistribution, DensityMatrix, Preparation,
                     QuantumChannel, TangentDirection, apply_channel)

_RECON_TOL = DEFAULT_TOLERANCES["reconstruction"]


@dataclass(frozen=True, eq=False)
class ParallelDecomposition:
    """Joint decomposition rho = sum p(x) |phi_x><phi_x|, sigma likewise with
    q, over one frame; the whole mixture segment decomposes over it too."""

    frame: np.ndarray                  # columns are unit vectors |phi_x>
    p: ClassicalDistribution
    q: ClassicalDistribution
    scale: np.ndarray                  # d_x >= 0 with p(x) = q(x) d_x^2

    def state_at(self, t: float) -> DensityMatrix:
        w = t * self.p.probs + (1 - t) * self.q.probs
        return DensityMatrix((self.frame * w) @ self.frame.conj().T)


@dataclass(frozen=True, eq=False)
class ReverseTest:
    preparation: Preparation
    p: ClassicalDistribution
    q: ClassicalDistribution
    input_kl: float
    frame: np.ndarray


@dataclass(frozen=True, eq=False)
class ReverseEstimation:
    preparation: Preparation
    p: ClassicalDistribution
    dp: np.ndarray
    input_fisher: float
    frame: np.ndarray


def _common_support_isometry(rho: DensityMatrix, sigma: DensityMatrix) -> np.ndarray:
    wr, vr = rho.eigen
    ws, vs = sigma.eigen
    keep_r = wr > support_cutoff(wr)
    keep_s = ws > support_cutoff(ws)
    if keep_r.sum() != keep_s.sum():
        raise SupportViolationError(
            f"supports differ: rank(rho) = {int(keep_r.sum())}, rank(sigma) = {int(keep_s.sum())}")
    pr = vr[:, keep_r] @ vr[:, keep_r].conj().T
    ps = vs[:, keep_s] @ vs[:, keep_s].conj().T
    if frobenius(pr - ps) > DEFAULT_TOLERANCES["support"] * 10:
        raise SupportViolationError(
            f"support projectors differ by {frobenius(pr - ps):.3e}; equal supports required")
    return vs[:, keep_s]


def parallel_decomposition(rho: DensityMatrix, sigma: DensityMatrix) -> ParallelDecomposition:
    """Frame and weights decomposing rho and sigma jointly.

    On the common support: T = sqrt(sigma)^-1 sqrt(rho), U the polar unitary
    making X = T U Hermitian PSD, X = V diag(d) V^dag; the frame columns are
    the normalized columns of sqrt(sigma) V, q their squared norms, and
    p = q d^2.
    """
    if rho.dim != sigma.dim:
        raise ValueError(f"dimension mismatch: {rho.dim} vs {sigma.dim}")
    iso = _common_support_isometry(rho, sigma)
    r = iso.conj().T @ rho.matrix @ iso
    s = iso.conj().T @ sigma.matrix @ iso

    es = eigh(s)
    sr_s = sqrtm_psd(es)
    t = matrix_function(es, lambda v: v ** -0.5, support_only=True) @ sqrtm_psd(r)
    u = polar_unitary(t)
    x = t @ u
    d, v = eigh((x + x.conj().T) / 2)
    d = np.maximum(d, 0.0)

    w = sr_s @ v
    qv = np.sum(np.abs(w) ** 2, axis=0)
    frame = iso @ (w / np.sqrt(qv))
    pv = qv * d ** 2
    pv, qv = pv / pv.sum(), qv / qv.sum()

    dec = ParallelDecomposition(frame, ClassicalDistribution(pv), ClassicalDistribution(qv), d)
    for target, got in ((rho, dec.state_at(1.0)), (sigma, dec.state_at(0.0))):
        err = frobenius(got.matrix - target.matrix)
        if err > _RECON_TOL:
            raise SupportViolationError(f"parallel decomposition reconstruction residual {err:.3e}")
    gram_min = float(np.linalg.eigvalsh(frame.conj().T @ frame).min())
    if gram_min <= 1e-10:
        raise SupportViolationError(f"frame not linearly independent: Gram minimum {gram_min:.3e}")
    return dec


def _pure_preparation(frame: np.ndarray) -> Preparation:
    return Preparation(tuple(DensityMatrix(np.outer(frame[:, x], frame[:, x].conj()))
                             for x in range(frame.shape[1])))


def optimal_reverse_test(rho: DensityMatrix, sigma: DensityMatrix) -> ReverseTest:
    """Reverse test whose input KL equals the RLD divergence of (rho, sigma)."""
    dec = parallel_decomposition(rho, sigma)
    return ReverseTest(_pure_preparation(dec.frame), dec.p, dec.q,
                       kl(dec.p, dec.q), dec.frame)


def pushforward_reverse_test(rt: ReverseTest, channel: QuantumChannel) -> ReverseTest:
    """Post-compose the preparation with a channel: a reverse test of the
    image pair, witnessing monotonicity of the RLD divergence."""
    states = tuple(apply_channel(channel, s) for s in rt.preparation.states)
    prep = Preparation(states)
    return ReverseTest(prep, rt.p, rt.q, rt.input_kl, rt.frame)


def refine_reverse_test(rt: ReverseTest, splits: int = 2, seed: int = 0) -> ReverseTest:
    """Competitor reverse test: split every symbol into `splits` copies with
    different random conditionals for p and q. Reconstructions stay exact and
    the input KL can only grow."""
    rng = np.random.default_rng(seed)
    states, pv, qv = [], [], []
    for x in range(len(rt.p)):
        u = rng.dirichlet(np.ones(splits) * 5.0)
        v = rng.dirichlet(np.ones(splits) * 5.0)
        u, v = np.maximum(u, 1e-4), np.maximum(v, 1e-4)
        u, v = u / u.sum(), v / v.sum()
        for i in range(splits):
            states.append(rt.preparation.states[x])
            pv.append(rt.p.probs[x] * u[i])
            qv.append(rt.q.probs[x] * v[i])
    p = ClassicalDistribution(np.array(pv))
    q = ClassicalDistribution(np.array(qv))
    return ReverseTest(Preparation(tuple(states)), p, q, kl(p, q), rt.frame)


def reverse_estimation_1param(rho: DensityMatrix, x: TangentDirection) -> ReverseEstimation:
    """Tangent reverse estimation achieving the RLD Fisher information.

    Factor rho = W W^dag over its support, express the tangent through the
    reverse derivative A with W A W^dag = X, rotate W so A is diagonal; the
    column norms give p, and dp = p * diag(A).
    """
    lam, e = rho.eigen
    keep = lam > support_cutoff(lam)
    lam, e = lam[keep], e[:, keep]
    comp = np.eye(rho.dim) - e @ e.conj().T
    leak = frobenius(comp @ x.matrix @ comp)
    if leak > DEFAULT_TOLERANCES["operator_residual"]:
        raise SupportViolationError(
            f"tangent leaks off the support (residual {leak:.3e}): no reverse derivative exists")

    scale = 1.0 / np.sqrt(lam)
    a = (e.conj().T @ x.matrix @ e) * np.outer(scale, scale)
    avals, rot = eigh((a + a.conj().T) / 2)
    w = (e * np.sqrt(lam)) @ rot

    pv = np.sum(np.abs(w) ** 2, axis=0)
    dpv = pv * avals
    frame = w / np.sqrt(pv)
    prep = _pure_preparation(frame)

    recon_x = (frame * dpv) @ frame.conj().T
    if frobenius(recon_x - x.matrix) > 1e-9 * (1 + frobenius(x.matrix)):
        raise SupportViolationError("reverse estimation failed to reconstruct the tangent")

    p = ClassicalDistribution(pv / pv.sum())
    fisher = classical_fisher_scalar(p, dpv - dpv.sum() / dpv.size)
    return ReverseEstimation(prep, p, dpv, fisher, frame)


def refine_reverse_estimation(est: ReverseEstimation, seed: int = 0) -> tuple[ClassicalDistribution, np.ndarray]:
    """Competitor (p', dp') for the same preparation refined two ways per
    symbol; per-symbol sums are preserved so it remains a tangent reverse
    estimation, with classical Fisher information >= the optimum."""
    rng = np.random.default_rng(seed)
    pv, dpv = [], []
    for x in range(len(est.p)):
        u = float(rng.uniform(0.2, 0.8))
        eps = float(rng.normal(scale=0.2)) * est.p.probs[x]
        pv += [est.p.probs[x] * u, est.p.probs[x] * (1 - u)]
        dpv += [est.dp[x] * u + eps, est.dp[x] * (1 - u) - eps]
    return ClassicalDistribution(np.array(pv)), np.array(dpv)
