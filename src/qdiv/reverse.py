"""The optimal reverse test of a state pair, kept as its parallel
decomposition over one frame, and optimal one-parameter reverse estimation.

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
class ReverseTest:
    """Reverse test over a frame of pure states: symbol x prepares
    |phi_x><phi_x|, column x of `frame`, so rho = sum p(x) |phi_x><phi_x|,
    sigma likewise with q, and input_kl = KL(p||q). The whole mixture
    segment decomposes over the frame too."""

    frame: np.ndarray                  # columns are unit vectors |phi_x>
    p: ClassicalDistribution
    q: ClassicalDistribution
    input_kl: float

    @property
    def preparation(self) -> Preparation:
        """The frame's pure states, validated, built on each read."""
        f = self.frame
        return Preparation(tuple(DensityMatrix(np.outer(f[:, x], f[:, x].conj())) for x in range(f.shape[1])))

    def state_at(self, t: float) -> DensityMatrix:
        w = t * self.p.probs + (1 - t) * self.q.probs
        return DensityMatrix((self.frame * w) @ self.frame.conj().T)


@dataclass(frozen=True, eq=False)
class ReverseEstimation:
    """The preparation x -> |phi_x><phi_x| over the columns of `frame`, with
    p and its derivative dp."""

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


def optimal_reverse_test(rho: DensityMatrix, sigma: DensityMatrix) -> ReverseTest:
    """Reverse test whose input KL equals the RLD divergence of (rho, sigma):
    one frame and two weight vectors decomposing rho and sigma jointly.

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

    for target, weights in ((rho, pv), (sigma, qv)):
        err = frobenius((frame * weights) @ frame.conj().T - target.matrix)
        if err > _RECON_TOL:
            raise SupportViolationError(f"parallel decomposition reconstruction residual {err:.3e}")
    gram_min = float(np.linalg.eigvalsh(frame.conj().T @ frame).min())
    if gram_min <= 1e-10:
        raise SupportViolationError(f"frame not linearly independent: Gram minimum {gram_min:.3e}")
    p, q = ClassicalDistribution(pv), ClassicalDistribution(qv)
    return ReverseTest(frame, p, q, kl(p, q))


def pushforward_reverse_test(rt: ReverseTest, channel: QuantumChannel) -> Preparation:
    """The preparation post-composed with a channel. With rt.p and rt.q it
    is a reverse test of the image pair at input KL rt.input_kl, witnessing
    monotonicity of the RLD divergence."""
    return Preparation(tuple(apply_channel(channel, s) for s in rt.preparation.states))


def refine_reverse_test(rt: ReverseTest, splits: int = 2, seed: int = 0) -> ReverseTest:
    """Competitor reverse test: split every symbol into `splits` copies with
    different random conditionals for p and q. Reconstructions stay exact and
    the input KL can only grow."""
    # per symbol, the conditionals of p then of q, in one draw
    uv = np.maximum(np.random.default_rng(seed).dirichlet(np.full(splits, 5.0), size=(len(rt.p), 2)), 1e-4)
    uv /= uv.sum(axis=2, keepdims=True)
    p = ClassicalDistribution((rt.p.probs[:, None] * uv[:, 0]).ravel())
    q = ClassicalDistribution((rt.q.probs[:, None] * uv[:, 1]).ravel())
    return ReverseTest(np.repeat(rt.frame, splits, axis=1), p, q, kl(p, q))


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

    recon_x = (frame * dpv) @ frame.conj().T
    if frobenius(recon_x - x.matrix) > 1e-9 * (1 + frobenius(x.matrix)):
        raise SupportViolationError("reverse estimation failed to reconstruct the tangent")

    p = ClassicalDistribution(pv / pv.sum())
    fisher = classical_fisher_scalar(p, dpv - dpv.sum() / dpv.size)
    return ReverseEstimation(p, dpv, fisher, frame)


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
