"""Scalar divergences on classical and quantum pairs.

Conventions: natural logarithm throughout. `umegaki` and `rld_entropy`
report a support-violating pair through the flag on their report; `dmax`
and `measured_div_lower` return +inf when supp rho escapes supp sigma.
"""

import math
from dataclasses import dataclass

import numpy as np

from .config import SUPPORT_TOL
from .errors import ConvergenceError
from .linalg import (eigh, eigh_unphased, frobenius, logm_support, matrix_function,
                     off_support_residual, pinv_psd, sqrtm_psd, trace_norm)
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
    if off_support_residual(sigma.support_projector, rho.matrix) > SUPPORT_TOL:
        return SUPPORT_VIOLATED
    if frobenius(rho.support_projector - sigma.support_projector) <= SUPPORT_TOL:
        return SUPPORT_EQUAL
    return SUPPORT_CONTAINED


def support_escapes(rho: DensityMatrix, sigma: DensityMatrix) -> bool:
    """Whether supp rho escapes supp sigma: rho's part off sigma's support
    projector exceeds SUPPORT_TOL. A full-rank sigma supports every state,
    so its projector is not built."""
    return not sigma.full_rank and off_support_residual(sigma.support_projector, rho.matrix) > SUPPORT_TOL


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


def ratio_spectrum(rho: DensityMatrix, sigma: DensityMatrix) -> np.ndarray:
    """The ascending eigenvalues of sigma^-1/2 rho sigma^-1/2, the inverse
    taken on sigma's support, from one eigvalsh."""
    check_dims(rho, sigma)
    isq = matrix_function(sigma.eigen, lambda x: x ** -0.5, support_only=True)
    return np.linalg.eigvalsh(isq @ rho.matrix @ isq)


def dmax(rho: DensityMatrix, sigma: DensityMatrix) -> float:
    """Max-relative entropy ln lambda_max(sigma^-1/2 rho sigma^-1/2), the top
    of `ratio_spectrum`.

    The smallest a with rho <= e^a sigma; +inf when sigma's support does not
    carry rho.
    """
    check_dims(rho, sigma)
    if support_escapes(rho, sigma):
        return math.inf
    top = float(ratio_spectrum(rho, sigma)[-1])
    if top <= 0.0:
        return -math.inf
    return float(np.log(top))


# ---------------------------------------------------------------------------
# measured divergence lower bound


def _projective_kls(v: np.ndarray, rho: np.ndarray, sigma: np.ndarray) -> np.ndarray:
    """KL of rho's outcome weights from sigma's in each basis of the stack v
    (k, d, d); +inf where rho weighs an outcome that sigma does not. Weights
    at or below 1e-300 count as zero."""
    p, q = basis_weights(v, rho), basis_weights(v, sigma)
    p, q = np.where(p > 1e-300, p, 0.0), np.where(q > 1e-300, q, 0.0)
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


def _kl_gradient(v: np.ndarray, rho: np.ndarray, sigma: np.ndarray):
    """The KL in the basis v, and its gradient along v e^{tA}: the
    anti-Hermitian A of steepest ascent, (b_k - b_m) S_km - (a_k - a_m) R_km
    for R = v^dag rho v, S = v^dag sigma v with diagonals p, q, b = p/q and
    a = ln b, both 0 where p is (R's row is 0 there too), built as C - C^dag
    with C_km = b_k S_km - a_k R_km, so exactly anti-Hermitian. Weights at
    or below 1e-300 count as zero; (-inf, None) where rho weighs an outcome
    that sigma does not."""
    rv = v.conj().T @ rho @ v
    sv = v.conj().T @ sigma @ v
    p, q = np.diagonal(rv).real, np.diagonal(sv).real
    pos = p > 1e-300
    if np.any(q[pos] <= 1e-300):
        return -math.inf, None
    b = np.divide(p, q, out=np.zeros_like(p), where=pos)
    a = np.log(b, out=np.zeros_like(p), where=pos)
    c = b[:, None] * sv - a[:, None] * rv
    return float(p @ a), c - c.conj().T


# The line search's sufficient-gain fraction (Armijo), the fraction of the
# starting slope under which a trial's slope ends it, and its trials per
# direction once one is accepted
_ARMIJO = 1e-4
_CURVATURE = 0.1
_LINE_TRIALS = 8


def measured_div_lower(rho: DensityMatrix, sigma: DensityMatrix,
                       budget: int = 500, seed: int = 0) -> tuple[float, np.ndarray]:
    """Best KL found over rank-1 projective measurements, and the unitary
    whose columns are that basis: a lower bound on the measured divergence.

    (+inf, sigma's eigenbasis) at once when supp rho escapes supp sigma, as
    that basis puts rho's weight on sigma's kernel. Otherwise the eigenbases
    of rho, sigma, rho - sigma and rho + sqrt(2) sigma (a common eigenbasis
    of a commuting pair even when one spectrum is degenerate) are scored in
    one stack, and `_ascend` climbs from the best. Starts and trials are one
    KL evaluation each, at most `budget` in all. A basis scoring +inf is
    skipped, since roundoff on sigma's kernel can produce one;
    ConvergenceError when every start does. `seed` is unused: nothing is
    drawn.
    """
    check_dims(rho, sigma)
    if budget < 1:
        raise ValueError(f"budget must be >= 1, got {budget}")
    if support_escapes(rho, sigma):
        return math.inf, sigma.eigen.eigenvectors
    r, s = rho.matrix, sigma.matrix
    starts = np.stack([rho.eigen.eigenvectors, sigma.eigen.eigenvectors,
                       eigh(r - s).eigenvectors, eigh(r + np.sqrt(2.0) * s).eigenvectors][:budget])
    vals = _projective_kls(starts, r, s)
    vals = np.where(np.isfinite(vals), vals, -math.inf)
    j = int(np.argmax(vals))
    if not math.isfinite(vals[j]):
        raise ConvergenceError(f"no basis of the {len(starts)} starts gave a finite KL")
    return _ascend(starts[j], float(vals[j]), r, s, budget - len(starts))


def _ascend(v: np.ndarray, best: float, r: np.ndarray, s: np.ndarray, evals: int):
    """Riemannian conjugate-gradient ascent of the KL from the basis v, of
    KL best, in at most `evals` evaluations; returns the best (KL, basis).
    It stops early when a step gains under 1e-12 (1 + |KL|).

    Directions D are the gradient plus Polak-Ribiere+ times the last one.
    One eigh of -iD = W diag(mu) W^dag per direction gives the unitary
    trials v W e^{it mu} W^dag; the first turns v by one radian at most,
    later ones start from the last step times the ratio of slopes. The line
    search keeps its best trial. It backs off by a parabola from a trial that
    gains under _ARMIJO of the predicted gain, else steps by the secant of
    the slopes, and stops once a slope falls under _CURVATURE of the first.
    """
    _, grad = _kl_gradient(v, r, s)
    grad_old = direction = None
    t = 0.0
    while evals > 0:
        if direction is not None:
            beta = np.vdot(grad - grad_old, grad).real / np.vdot(grad_old, grad_old).real
            direction = grad + max(0.0, beta) * direction
        if direction is None or np.vdot(grad, direction).real <= 0:
            direction = grad
        slope = np.vdot(grad, direction).real
        if slope == 0:
            break
        tol = 1e-12 * (1 + abs(best))
        mu, w = eigh_unphased(-1j * direction)
        t = 1 / np.abs(mu).max() if t == 0 else t * min(slope_old / slope, 4.0)
        vw = v @ w
        lo, f_lo, s_lo, hi, s_hi = 0.0, best, slope, math.inf, None
        found, trials = None, 0
        while evals and t * slope >= tol and (found is None or trials < _LINE_TRIALS):
            cand = (vw * np.exp(1j * t * mu)) @ w.conj().T
            val, g = _kl_gradient(cand, r, s)
            evals, trials = evals - 1, trials + 1
            if val > (best if found is None else found[0]):
                found = (val, cand, g, t)
            if not val >= best + _ARMIJO * t * slope:
                span, curv = t - lo, f_lo + s_lo * (t - lo) - val
                vertex = s_lo * span * span / (2 * curv) if curv > 0 else span
                hi, s_hi, t = t, None, lo + min(max(vertex, 0.1 * span), 0.5 * span)
                continue
            st = np.vdot(g, direction).real
            if abs(st) <= _CURVATURE * slope:
                break
            if st > 0:
                t_prev, s_prev = lo, s_lo
                lo, f_lo, s_lo = t, val, st
            else:
                hi, s_hi = t, st
            if hi == math.inf:
                t = _secant(t_prev, s_prev, lo, s_lo, 1.1 * lo, 4 * lo)
            else:
                t = _secant(lo, s_lo, hi, s_hi, lo + 0.1 * (hi - lo), hi - 0.1 * (hi - lo))
        if found is None:
            break
        val, v, g, t = found
        gain, best = val - best, val
        grad_old, grad, slope_old = grad, g, slope
        if gain < tol:
            break
    return best, v


def _secant(t0: float, s0: float, t1: float, s1, lo: float, hi: float) -> float:
    """Where the line through the slopes (t0, s0) and (t1, s1) crosses zero,
    clipped to [lo, hi]: hi when the slope does not fall, the midpoint when
    s1 is unknown."""
    if s1 is None:
        return (lo + hi) / 2
    if s0 <= s1:
        return hi
    return min(max(t1 - s1 * (t1 - t0) / (s1 - s0), lo), hi)
