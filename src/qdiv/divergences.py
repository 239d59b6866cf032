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
from .linalg import (STACK_BYTES, eigh, eigh_hermitian, frobenius,
                     logm_support, matrix_function, off_support_residual,
                     pinv_psd, sqrtm_psd, support_projector, trace_norm)
from .states import (ClassicalDistribution, DensityMatrix, basis_weights,
                     check_dims)

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
    """Classify supp(rho) vs supp(sigma) by projector residuals. A full-rank
    sigma supports every state, and its support equals rho's exactly when
    rho is full rank too, so no projector is built."""
    check_dims(rho, sigma)
    if sigma.full_rank:
        return SUPPORT_EQUAL if rho.full_rank else SUPPORT_CONTAINED
    proj_s = support_projector(sigma.eigen)
    if off_support_residual(proj_s, rho.matrix) > SUPPORT_TOL:
        return SUPPORT_VIOLATED
    proj_r = support_projector(rho.eigen)
    if frobenius(proj_r - proj_s) <= SUPPORT_TOL:
        return SUPPORT_EQUAL
    return SUPPORT_CONTAINED


def support_escapes(rho: DensityMatrix, sigma: DensityMatrix) -> bool:
    """Whether supp rho escapes supp sigma: rho's part off sigma's support
    projector exceeds SUPPORT_TOL. A full-rank sigma supports every state,
    so its projector is not built."""
    return not sigma.full_rank and off_support_residual(support_projector(sigma.eigen), rho.matrix) > SUPPORT_TOL


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
    check_dims(rho, sigma)
    tn = trace_norm(sqrtm_psd(rho.eigen) @ sqrtm_psd(sigma.eigen))
    if tn <= 0.0:
        return -math.inf
    return float(np.log(tn))


def dmax(rho: DensityMatrix, sigma: DensityMatrix) -> float:
    """Max-relative entropy ln lambda_max(sigma^-1/2 rho sigma^-1/2).

    The smallest a with rho <= e^a sigma; +inf when sigma's support does not
    carry rho.
    """
    check_dims(rho, sigma)
    if support_escapes(rho, sigma):
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


def _projective_kls(v: np.ndarray, rho: np.ndarray, sigma: np.ndarray) -> np.ndarray:
    """KL of rho's outcome weights from sigma's in each basis of the stack v
    (k, d, d); +inf where rho weighs an outcome that sigma does not. Weights
    below 1e-300 count as zero."""
    p = basis_weights(v, rho)
    p = np.where(p > 1e-300, p, 0.0)
    q = np.maximum(basis_weights(v, sigma), 0.0)
    full = (p > 0).all(axis=1)
    ok = full & (q > 0).all(axis=1)
    if ok.all():
        return (p * (np.log(p) - np.log(q))).sum(axis=1)
    vals = np.full(len(v), math.inf)
    p_ok, q_ok = p[ok], q[ok]
    vals[ok] = (p_ok * (np.log(p_ok) - np.log(q_ok))).sum(axis=1)
    for i in np.flatnonzero(~full):
        vals[i] = _kl_sum(p[i], q[i])
    return vals


def _stacks(bases: list, n_random: int, block: int, rng: np.random.Generator):
    """The given bases, then n_random Haar unitaries drawn from rng as
    n_random calls of random_unitary would draw them, in stacks of at most
    block bases."""
    for i in range(0, len(bases), block):
        yield np.stack(bases[i:i + block])
    d = bases[0].shape[0]
    for i in range(0, n_random, block):
        z = rng.standard_normal((min(block, n_random - i), 2, d, d))
        q, r = np.linalg.qr(z[:, 0] + 1j * z[:, 1])
        diag = np.diagonal(r, axis1=1, axis2=2)
        yield q * (diag / np.abs(diag))[:, None, :]


def measured_div_lower(rho: DensityMatrix, sigma: DensityMatrix,
                       budget: int = 500, seed: int = 0) -> tuple[float, np.ndarray]:
    """Best KL found over rank-1 projective measurements, and the unitary
    whose columns are the best basis found.

    Seeded random restarts plus a local unitary perturbation search, spending
    at most `budget` KL evaluations. A heuristic lower bound for the measured
    divergence, not a certified optimum. Bases scoring +inf are skipped,
    since roundoff on sigma's kernel can produce them; raises ConvergenceError
    if no evaluated basis scores finite.

    Each phase draws, decomposes and scores its bases in stacks of bounded
    size, so memory does not grow with `budget`; the result is the
    one-basis-at-a-time search's, bit for bit.
    """
    check_dims(rho, sigma)
    if budget < 1:
        raise ValueError(f"budget must be >= 1, got {budget}")
    rng = np.random.default_rng(seed)
    d = rho.dim
    r, s = rho.matrix, sigma.matrix
    block = max(1, STACK_BYTES // (16 * d * d))

    # Starts: the eigenbases of rho, sigma, their difference, and a generic
    # combination (recovers a common eigenbasis on commuting pairs even when
    # one spectrum is degenerate), then Haar-random bases. Each start that
    # beats every earlier one becomes the best.
    starts = [rho.eigen.eigenvectors, sigma.eigen.eigenvectors,
              eigh(r - s).eigenvectors, eigh(r + np.sqrt(2.0) * s).eigenvectors][:budget]
    n_random = max(min(max(budget // 4, 8), budget) - len(starts), 0)
    evals = len(starts) + n_random
    best_v, best = None, -math.inf
    for v in _stacks(starts, n_random, block, rng):
        vals = _projective_kls(v, r, s)
        vals = np.where(np.isfinite(vals), vals, -math.inf)
        j = int(np.argmax(vals))
        if vals[j] > best:
            best, best_v = float(vals[j]), v[j]
    if best_v is None:
        raise ConvergenceError(f"no basis of the {evals} evaluated gave a finite KL")

    # Local search: rotate the best basis by exp(i step H), H from a Ginibre
    # draw, one draw per evaluation; the step halves after 12 rejections in
    # a row. A window scores the next 12 - stale rotations of the current
    # best basis together and keeps the first that improves; the rotations
    # after it were drawn for later evaluations and are rebuilt from the new
    # best basis.
    step, stale = 0.3, 0
    while evals < budget:
        k = min(budget - evals, block)
        z = rng.standard_normal((k, 2, d, d))
        g = z[:, 0] + 1j * z[:, 1]
        w, u = np.linalg.eigh((g + g.conj().transpose(0, 2, 1)) / 2)
        i = 0
        while i < k:
            m = min(12 - stale, k - i)
            uw = u[i:i + m]
            cand = ((uw * np.exp(1j * step * w[i:i + m])[:, None, :])
                    @ uw.conj().transpose(0, 2, 1)) @ best_v
            vals = _projective_kls(cand, r, s)
            better = np.flatnonzero((vals > best) & np.isfinite(vals))
            if better.size:
                j = int(better[0])
                best, best_v = float(vals[j]), cand[j]
                stale = 0
                i += j + 1
            else:
                stale += m
                if stale >= 12:
                    step = max(step * 0.5, 1e-4)
                    stale = 0
                i += m
        evals += k
    return best, best_v
