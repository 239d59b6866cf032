"""Scalar divergences on classical and quantum pairs.

Conventions: natural logarithm throughout. Support-violating pairs are
reported through an explicit flag on the report rather than fed onward as
float infinities.
"""

import math
from dataclasses import dataclass

import numpy as np

from .config import SUPPORT_TOL
from .errors import ConvergenceError
from .linalg import (eigh, eigh_hermitian, frobenius, logm_support,
                     matrix_function, off_support_residual, pinv_psd,
                     sqrtm_psd, support_projector, trace_norm)
from .states import (ClassicalDistribution, DensityMatrix, basis_weights,
                     random_unitary)

SUPPORT_CONTAINED = "contained"
SUPPORT_EQUAL = "equal"
SUPPORT_VIOLATED = "violated"


@dataclass(frozen=True)
class DivergenceReport:
    """Value in nats plus the support relation that qualifies it."""

    value: float
    support_condition: str

    def __post_init__(self):
        if self.support_condition != SUPPORT_VIOLATED and self.value < -1e-10:
            raise ValueError(f"divergence {self.value!r} negative beyond tolerance")

    @property
    def finite(self) -> bool:
        return self.support_condition != SUPPORT_VIOLATED and math.isfinite(self.value)


def support_relation(rho: DensityMatrix, sigma: DensityMatrix) -> str:
    """Classify supp(rho) vs supp(sigma) by projector residuals."""
    _check_dims(rho, sigma)
    proj_s = support_projector(sigma.eigen)
    if off_support_residual(proj_s, rho.matrix) > SUPPORT_TOL:
        return SUPPORT_VIOLATED
    proj_r = support_projector(rho.eigen)
    if frobenius(proj_r - proj_s) <= SUPPORT_TOL:
        return SUPPORT_EQUAL
    return SUPPORT_CONTAINED


def kl(p: ClassicalDistribution, q: ClassicalDistribution) -> float:
    """Relative entropy sum p (ln p - ln q), with 0 ln 0 = 0.

    Returns +inf when the support of p escapes the support of q.
    """
    if len(p) != len(q):
        raise ValueError(f"length mismatch: {len(p)} vs {len(q)}")
    return _kl_sum(p.probs, q.probs)


def _kl_sum(pv: np.ndarray, qv: np.ndarray) -> float:
    mask = pv > 0
    if np.any(qv[mask] <= 0):
        return math.inf
    return float(np.sum(pv[mask] * (np.log(pv[mask]) - np.log(qv[mask]))))


def _check_dims(rho: DensityMatrix, sigma: DensityMatrix) -> None:
    if rho.dim != sigma.dim:
        raise ValueError(f"dimension mismatch: {rho.dim} vs {sigma.dim}")


def umegaki(rho: DensityMatrix, sigma: DensityMatrix) -> DivergenceReport:
    """tr rho (ln rho - ln sigma), logarithms restricted to supports."""
    rel = support_relation(rho, sigma)
    if rel == SUPPORT_VIOLATED:
        return DivergenceReport(math.inf, rel)
    val = np.trace(rho.matrix @ (logm_support(rho.eigen) - logm_support(sigma.eigen)))
    return DivergenceReport(float(val.real), rel)


def rld_entropy(rho: DensityMatrix, sigma: DensityMatrix) -> DivergenceReport:
    """tr rho ln(sqrt(rho) sigma^-1 sqrt(rho)), the upper admissible divergence."""
    rel = support_relation(rho, sigma)
    if rel == SUPPORT_VIOLATED:
        return DivergenceReport(math.inf, rel)
    sr = sqrtm_psd(rho.eigen)
    inner = sr @ pinv_psd(sigma.eigen) @ sr
    val = np.trace(rho.matrix @ logm_support((inner + inner.conj().T) / 2))
    return DivergenceReport(float(val.real), rel)


def fidelity_logdiv(rho: DensityMatrix, sigma: DensityMatrix) -> float:
    """ln of the trace norm of sqrt(rho) sqrt(sigma); always <= 0.

    Monotone in the opposite orientation from the relative entropies; kept as
    the counterexample functional for the continuity axiom, -inf on pairs
    with orthogonal supports.
    """
    _check_dims(rho, sigma)
    tn = trace_norm(sqrtm_psd(rho.eigen) @ sqrtm_psd(sigma.eigen))
    if tn <= 0.0:
        return -math.inf
    return float(np.log(tn))


def dmax(rho: DensityMatrix, sigma: DensityMatrix) -> float:
    """Max-relative entropy ln lambda_max(sigma^-1/2 rho sigma^-1/2).

    The smallest a with rho <= e^a sigma; +inf when sigma's support does not
    carry rho.
    """
    _check_dims(rho, sigma)
    if off_support_residual(support_projector(sigma.eigen), rho.matrix) > SUPPORT_TOL:
        return math.inf
    isq = matrix_function(sigma.eigen, lambda x: x ** -0.5, support_only=True)
    inner = isq @ rho.matrix @ isq
    w, _ = eigh_hermitian((inner + inner.conj().T) / 2)
    top = float(w[-1])
    if top <= 0.0:
        return -math.inf
    return float(np.log(top))


# ---------------------------------------------------------------------------
# measured divergence lower bound


def _projective_kl(v: np.ndarray, rho: np.ndarray, sigma: np.ndarray) -> float:
    p = basis_weights(v, rho)
    q = basis_weights(v, sigma)
    return _kl_sum(np.where(p > 1e-300, p, 0.0), np.maximum(q, 0.0))


def measured_div_lower(rho: DensityMatrix, sigma: DensityMatrix,
                       budget: int = 500, seed: int = 0) -> tuple[float, np.ndarray]:
    """Best KL found over rank-1 projective measurements, and the unitary
    whose columns are the best basis found.

    Seeded random restarts plus a local unitary perturbation search, spending
    at most `budget` KL evaluations. A heuristic lower bound for the measured
    divergence, not a certified optimum. Bases scoring +inf are skipped,
    since roundoff on sigma's kernel can produce them; raises ConvergenceError
    if no evaluated basis scores finite.
    """
    _check_dims(rho, sigma)
    if budget < 1:
        raise ValueError(f"budget must be >= 1, got {budget}")
    rng = np.random.default_rng(seed)
    d = rho.dim
    r, s = rho.matrix, sigma.matrix

    # Deterministic starts: eigenbases of rho, sigma, their difference, and a
    # generic combination (recovers a common eigenbasis on commuting pairs
    # even when one spectrum is degenerate).
    starts = [rho.eigen.eigenvectors, sigma.eigen.eigenvectors,
              eigh(r - s).eigenvectors, eigh(r + np.sqrt(2.0) * s).eigenvectors]
    evals = 0
    best_v, best = None, -math.inf
    for v in starts:
        if evals >= budget:
            break
        val = _projective_kl(v, r, s)
        evals += 1
        if val > best and math.isfinite(val):
            best, best_v = val, v
    while evals < max(budget // 4, 8) and evals < budget:
        v = random_unitary(d, rng)
        val = _projective_kl(v, r, s)
        evals += 1
        if val > best and math.isfinite(val):
            best, best_v = val, v
    if best_v is None:
        raise ConvergenceError(f"no basis of the {evals} evaluated gave a finite KL")

    step, stale = 0.3, 0
    while evals < budget:
        g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
        h = (g + g.conj().T) / 2
        w, u = np.linalg.eigh(h)
        rot = (u * np.exp(1j * step * w)) @ u.conj().T
        cand = rot @ best_v
        val = _projective_kl(cand, r, s)
        evals += 1
        if val > best and math.isfinite(val):
            best, best_v = val, cand
            stale = 0
        else:
            stale += 1
            if stale >= 12:
                step = max(step * 0.5, 1e-4)
                stale = 0
    return best, best_v
