"""The optimal reverse test of a state pair, kept as its parallel
decomposition over one frame, and optimal one-parameter reverse estimation.

A reverse test of (rho, sigma) is a preparation Phi and a classical pair
(p, q) with Phi(p) = rho, Phi(q) = sigma; the minimal achievable KL input
equals the RLD divergence, attained by decomposing both states over one
linearly independent frame of pure states.
"""

from dataclasses import dataclass

import numpy as np

from .config import DEFAULT_TOLERANCES, OPERATOR_RESIDUAL_TOL, SUPPORT_TOL
from .errors import SupportViolationError
from .divergences import kl
from .linalg import (_canonical_phases, eigh, eigh_hermitian, frobenius,
                     matrix_function, off_support_residual, sqrtm_psd,
                     support_cutoff, support_projector)
from .metrics import classical_fisher_scalar
from .states import (ClassicalDistribution, DensityMatrix, Preparation,
                     QuantumChannel, TangentDirection)

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
    pr, ps = support_projector(rho.eigen), support_projector(sigma.eigen)
    gap = frobenius(pr - ps)
    if gap > SUPPORT_TOL * 10:
        raise SupportViolationError(
            f"supports differ: rank(rho) = {round(np.trace(pr).real)}, rank(sigma) = "
            f"{round(np.trace(ps).real)}, projector distance {gap:.3e}; equal supports required")
    ws, vs = sigma.eigen
    return vs[:, ws > support_cutoff(ws)]


def optimal_reverse_test(rho: DensityMatrix, sigma: DensityMatrix) -> ReverseTest:
    """Reverse test whose input KL equals the RLD divergence of (rho, sigma):
    one frame and two weight vectors decomposing rho and sigma jointly.

    On the common support, with the SVD sigma^-1/2 rho^1/2 = W diag(d) V^dag:
    the frame columns are the normalized columns of sigma^1/2 W, q their
    squared norms, and p = q d^2, since d^2 = p/q are the eigenvalues of
    sigma^-1/2 rho sigma^-1/2 (W its eigenvectors). Symbols are in ascending
    order of p/q.
    """
    if rho.dim != sigma.dim:
        raise ValueError(f"dimension mismatch: {rho.dim} vs {sigma.dim}")
    iso = _common_support_isometry(rho, sigma)
    s = iso.conj().T @ sigma.matrix @ iso
    # decomposed again, not read off sigma.eigen: keeps small q(x) accurate on ill-conditioned sigma
    es = eigh(s)
    sqrt_r = iso.conj().T @ sqrtm_psd(rho.eigen) @ iso
    t = matrix_function(es, lambda v: v ** -0.5, support_only=True) @ sqrt_r
    left, d, _ = np.linalg.svd(t)
    d = d[::-1]                 # ascending, like eigh
    w = sqrtm_psd(es) @ _canonical_phases(left[:, ::-1])
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
    """The preparation post-composed with a channel, symbol x preparing
    sum_k K_k |phi_x><phi_x| K_k^dag. With rt.p and rt.q it is a reverse test
    of the image pair at input KL rt.input_kl, witnessing monotonicity of the
    RLD divergence."""
    if channel.dim_in != rt.frame.shape[0]:
        raise ValueError(f"channel input dim {channel.dim_in} != frame dim {rt.frame.shape[0]}")
    images = np.stack(channel.kraus) @ rt.frame     # images[k][:, x] = K_k |phi_x>
    return Preparation(tuple(DensityMatrix(images[:, :, x].T @ images[:, :, x].conj())
                             for x in range(rt.frame.shape[1])))


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
    leak = off_support_residual(e @ e.conj().T, x.matrix)
    if leak > OPERATOR_RESIDUAL_TOL:
        raise SupportViolationError(
            f"tangent leaks off the support (residual {leak:.3e}): no reverse derivative exists")

    scale = 1.0 / np.sqrt(lam)
    a = (e.conj().T @ x.matrix @ e) * np.outer(scale, scale)
    avals, rot = eigh_hermitian((a + a.conj().T) / 2)
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
