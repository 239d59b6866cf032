"""Classical Fisher information, SLD/RLD operators, the monotone metric
family, integral divergences, and the multi-parameter lower bound.

Every metric in the family is determined by an operator monotone function f
with f(1) = 1 and f(x) = x f(1/x); the metric value in the eigenbasis of rho
is sum over (j, k) of conj(X_jk) Y_jk / (lam_k f(lam_j / lam_k)).
"""

import functools
from collections.abc import Callable, Sequence
from dataclasses import dataclass

import numpy as np

from .config import OPERATOR_RESIDUAL_TOL, QUADRATURE_STEP_TOL, SUPPORT_RTOL
from .divergences import ratio_spectrum
from .errors import ConvergenceError, RankError, SupportViolationError
from .linalg import (STACK_BYTES, EigenSystem, eigh, eigh_hermitian, eigh_unphased,
                     frobenius, matrix_function, off_support_residual,
                     pinv_psd, trace_norm)
from .states import (ClassicalDistribution, DensityMatrix, TangentDirection,
                     basis_weights, check_dims)


def _h_ratio(x: np.ndarray, beta: float) -> np.ndarray:
    """beta (x - 1) / (x^beta - 1), continued to 1 at x = 1; beta = 0 gives
    (x - 1)/ln x. Second-order series near x = 1 avoids cancellation."""
    x = np.asarray(x, dtype=float)
    u = x - 1.0
    out = np.empty_like(u)
    if beta == 1.0:
        out[...] = 1.0
        return out
    small = np.abs(u) < 1e-6
    big = ~small
    if beta == 0.0:
        out[big] = u[big] / np.log(x[big])
    else:
        out[big] = beta * u[big] / np.expm1(beta * np.log1p(u[big]))
    b1 = beta - 1.0
    out[small] = 1.0 - b1 * u[small] / 2 + (b1 * b1 / 4 - b1 * (beta - 2.0) / 6) * u[small] ** 2
    return out


def f_alpha(x, alpha: float):
    """Two-parameter operator monotone family, |alpha| <= 3.

    Normalized so f(1) = 1, which makes alpha = +-3 coincide with the RLD
    function 2x/(x+1) and alpha = +-1 with the BKM function (x-1)/ln x.
    """
    if not abs(alpha) <= 3:   # NaN-safe
        raise ValueError(f"alpha must lie in [-3, 3], got {alpha}")
    arr = np.asarray(x, dtype=float)
    if not np.all(arr > 0):   # NaN-safe
        raise ValueError("f_alpha needs positive arguments")
    val = _h_ratio(arr, (1 - alpha) / 2) * _h_ratio(arr, (1 + alpha) / 2)
    return val if isinstance(x, np.ndarray) else float(val)


@dataclass(frozen=True)
class MetricSpec:
    """A monotone metric, named by its operator monotone function."""

    name: str
    f: Callable[[np.ndarray], np.ndarray]


def sld_metric() -> MetricSpec:
    return MetricSpec("sld", lambda x: (np.asarray(x, dtype=float) + 1) / 2)


def rld_metric() -> MetricSpec:
    return MetricSpec("rld", lambda x: 2 * np.asarray(x, dtype=float) / (np.asarray(x, dtype=float) + 1))


def bkm_metric() -> MetricSpec:
    return MetricSpec("bkm", lambda x: _h_ratio(x, 0.0))


def wy_metric() -> MetricSpec:
    return MetricSpec("wy", lambda x: f_alpha(x, 0.0))


def alpha_metric(alpha: float) -> MetricSpec:
    if not abs(alpha) <= 3:   # NaN-safe
        raise ValueError(f"alpha must lie in [-3, 3], got {alpha}")
    return MetricSpec(f"alpha={alpha:g}", lambda x, a=alpha: f_alpha(x, a))


def named_metric(name: str) -> MetricSpec:
    """Resolve 'sld' | 'rld' | 'bkm' | 'wy' | 'alpha=A'."""
    key = name.lower()
    table = {"sld": sld_metric, "rld": rld_metric, "bkm": bkm_metric, "wy": wy_metric}
    if key in table:
        return table[key]()
    if key.startswith("alpha="):
        return alpha_metric(float(key.split("=", 1)[1]))
    raise ValueError(f"unknown metric spec {name!r}")


# ---------------------------------------------------------------------------
# classical Fisher information


def classical_fisher(p: ClassicalDistribution, dps: Sequence[np.ndarray]) -> np.ndarray:
    """J_ij = sum_x dp_i(x) dp_j(x) / p(x); requires dp = 0 off the support."""
    pv = p.probs
    mat = np.zeros((len(dps), len(dps)))
    cols = []
    for dp in dps:
        dp = np.asarray(dp, dtype=float)
        if dp.shape != pv.shape:
            raise ValueError(f"tangent length {dp.shape} != distribution length {pv.shape}")
        if not abs(dp.sum()) <= 1e-9:   # NaN-safe
            raise ValueError(f"tangent must sum to 0, got {dp.sum():.3e}")
        off = np.abs(dp[pv <= 0]).max(initial=0.0)
        if off > 0:
            raise SupportViolationError(f"tangent weight {off:.3e} outside the support: Fisher information infinite")
        cols.append(dp)
    mask = pv > 0
    for i, di in enumerate(cols):
        for j in range(i, len(cols)):
            val = float(np.sum(di[mask] * cols[j][mask] / pv[mask]))
            mat[i, j] = mat[j, i] = val
    return mat


def classical_fisher_scalar(p: ClassicalDistribution, dp: np.ndarray) -> float:
    return float(classical_fisher(p, [dp])[0, 0])


# ---------------------------------------------------------------------------
# logarithmic derivative operators


def sld_operator(rho: DensityMatrix, x: TangentDirection) -> np.ndarray:
    """Symmetric logarithmic derivative: L_jk = 2 X_jk / (lam_j + lam_k) in
    rho's eigenbasis, zero-filled where the denominator vanishes."""
    lam, v = rho.eigen
    xt = v.conj().T @ x.matrix @ v
    den = lam[:, None] + lam[None, :]
    cut = SUPPORT_RTOL * max(float(lam.max()), 0.0)
    l = np.where(den > cut, 2 * xt / np.where(den > cut, den, 1.0), 0.0)
    out = v @ l @ v.conj().T
    return (out + out.conj().T) / 2


def rld_operator(rho: DensityMatrix, x: TangentDirection) -> np.ndarray:
    """Right logarithmic derivative L = X rho^-1; exists iff X lives on the
    support of rho."""
    proj = rho.support_projector
    # every tangent lives on the support of a full-rank rho
    resid = 0.0 if rho.full_rank else off_support_residual(proj, x.matrix)
    if resid > OPERATOR_RESIDUAL_TOL:
        raise SupportViolationError(
            f"tangent leaks off the support of rho (residual {resid:.3e}): RLD does not exist")
    l = proj @ x.matrix @ pinv_psd(rho.eigen)
    err = frobenius(l @ rho.matrix - proj @ x.matrix @ proj)
    if err > 1e-9 * (1 + frobenius(x.matrix)):
        raise SupportViolationError(f"RLD residual {err:.3e} exceeds tolerance")
    return l


# ---------------------------------------------------------------------------
# the metric family


def _petz_forms(specs: Sequence[MetricSpec], eigen: EigenSystem, x: np.ndarray,
                y: np.ndarray) -> list:
    """For each spec, sum conj(X_jk) Y_jk / (lam_k f(lam_j / lam_k)), with X
    and Y written once in the eigenbasis of `eigen`; one value per matrix if
    `eigen` is a stack."""
    lam, v = eigen
    vh = v.swapaxes(-1, -2).conj()
    xt = vh @ x @ v
    yt = xt if y is x else vh @ y @ v
    ratio = lam[..., :, None] / lam[..., None, :]
    pairs = np.conj(xt) * yt
    return [np.sum(pairs * (1.0 / (lam[..., None, :] * np.asarray(spec.f(ratio), dtype=float))), axis=(-2, -1))
            for spec in specs]


def petz_metric(spec: MetricSpec, rho: DensityMatrix, x: TangentDirection) -> complex:
    """Metric value g^f_rho(X, X), real up to roundoff."""
    if not rho.full_rank:
        raise RankError("petz_metric needs full-rank rho; restrict to the support first")
    return complex(_petz_forms((spec,), rho.eigen, x.matrix, x.matrix)[0])


def metric_scalar(spec: MetricSpec, rho: DensityMatrix, x: TangentDirection) -> float:
    return float(petz_metric(spec, rho, x).real)


def sld_optimal_measurement(rho: DensityMatrix, x: TangentDirection) -> tuple[np.ndarray, float]:
    """The SLD eigenbasis, as the unitary whose columns it is, and the
    classical Fisher information of measuring in it, which equals the SLD
    metric value."""
    if not rho.full_rank:
        raise RankError("sld_optimal_measurement needs full-rank rho")
    v = eigh(sld_operator(rho, x)).eigenvectors
    p = ClassicalDistribution(basis_weights(v, rho.matrix))
    dp = basis_weights(v, x.matrix)
    achieved = classical_fisher_scalar(p, dp - dp.sum() / dp.size)
    return v, achieved


# ---------------------------------------------------------------------------
# multi-parameter RLD matrix and the weighted trace bound


def rld_matrix(rho: DensityMatrix, tangents: Sequence[TangentDirection]) -> np.ndarray:
    """Complex Fisher matrix J_ij = tr(rho L_j^dag L_i) for RLD operators."""
    ls = [rld_operator(rho, x) for x in tangents]
    m = len(ls)
    j = np.empty((m, m), dtype=complex)
    for i in range(m):
        for k in range(i, m):
            j[i, k] = np.trace(rho.matrix @ ls[k].conj().T @ ls[i])
            j[k, i] = np.conj(j[i, k])
    return j


def _weighted_imag(g: np.ndarray, j: np.ndarray) -> tuple[EigenSystem, np.ndarray]:
    """The eigensystem of the weight G, checked real symmetric PSD, and
    K = sqrt(G) Im J sqrt(G)."""
    g = np.asarray(g, dtype=float)
    if (g.ndim != 2 or g.shape[0] != g.shape[1] or not np.all(np.isfinite(g))
            or np.abs(g - g.T).max() > 1e-10):
        raise ValueError("weight matrix must be finite real symmetric")
    eg = eigh_hermitian(((g + g.T) / 2).astype(complex))
    w = eg.eigenvalues
    if w.min() < -1e-12 * max(abs(w).max(), 1.0):
        raise ValueError(f"weight matrix must be PSD, min eigenvalue {w.min():.3e}")
    sg = matrix_function(eg, np.sqrt, support_only=True).real
    return eg, sg @ np.imag(j) @ sg


def holevo_rld_bound(g: np.ndarray, j: np.ndarray) -> float:
    """tr(G Re J) + trace norm of sqrt(G) Im J sqrt(G), the scalarized lower
    bound on any real Fisher matrix dominating J."""
    _, k = _weighted_imag(g, j)
    return float(np.trace(np.asarray(g, dtype=float) @ np.real(j)) + trace_norm(k))


def holevo_rld_minimizer(g: np.ndarray, j: np.ndarray) -> np.ndarray:
    """Real symmetric J* >= J attaining the bound: Re J + G^-1/2 |K| G^-1/2
    with K = sqrt(G) Im J sqrt(G)."""
    eg, k = _weighted_imag(g, j)
    isg = matrix_function(eg, lambda v: 1 / np.sqrt(v), support_only=True).real
    k = (k - k.T) / 2   # antisymmetric by construction; drop roundoff dust
    absk = matrix_function((1j * k).astype(complex), np.abs)
    return np.real(np.real(j) + isg @ absk @ isg)


# ---------------------------------------------------------------------------
# divergences induced by integrating a metric along the mixture path


# Clenshaw-Curtis rules of N = 6 * 2^k intervals: the first batch holds the
# points of N = 24, and N doubles at most 8 times past 6
_CC_FIRST = 6
_CC_DOUBLINGS = 8


@functools.cache
def _cc_weights(n: int) -> np.ndarray:
    """Clenshaw-Curtis weights on [-1, 1] of the n + 1 points cos(j pi / n),
    j = 0..n, for even n, in closed form; they sum to 2."""
    k = np.arange(1, n // 2 + 1)
    b = np.where(k == n // 2, 1.0, 2.0) / (4 * k * k - 1)
    w = 2 / n * (1 - b @ np.cos(np.outer(2 * k, np.pi * np.arange(n + 1) / n)))
    w[[0, n]] /= 2
    w.flags.writeable = False   # shared by every call through the cache
    return w


def integral_divergences(specs: Sequence[MetricSpec], rho: DensityMatrix,
                         sigma: DensityMatrix) -> list[float]:
    """Divergence of each spec from the double integral of its metric along
    the segment s rho + (1 - s) sigma, reduced to int_0^1 (1 - s) g(s) ds.

    The segment is singular at s = 1/(1 - t) for t in ratio_spectrum(rho,
    sigma); a < 0 and b > 1 are the nearest such points, capped at -1 and 2,
    and u = ln((s - a)/(b - s)) sends them to infinity. The integral in u is
    taken by nested Clenshaw-Curtis rules, each doubling adding only new
    points; s = 0 reads sigma's eigensystem and s = 1 weighs zero. Every
    point is decomposed once, for all specs that have not yet converged, and
    each spec's estimate stops at its own convergence, bit for bit as
    integral_divergence on that spec alone. Raises ConvergenceError, naming
    the first spec whose successive estimates never meet the tolerance."""
    check_dims(rho, sigma)
    for nm, state in (("rho", rho), ("sigma", sigma)):
        if not state.full_rank:
            raise RankError(f"integral_divergence needs full-rank states; {nm} is singular")
    diff = rho.matrix - sigma.matrix
    chunk = max(1, STACK_BYTES // (16 * rho.dim ** 2))
    t = ratio_spectrum(rho, sigma)
    # -a and b - 1; t_min is at least lambda_min(rho) / lambda_max(sigma) > 0
    t_min = max(float(t[0]), rho.eigen.eigenvalues[0] / sigma.eigen.eigenvalues[-1])
    am, bm = 1 / max(1.0, float(t[-1]) - 1), t_min / max(t_min, 1 - t_min)
    u0, u1 = np.log(am / (1 + bm)), np.log((1 + am) / bm)

    def values(x: np.ndarray, todo: list) -> np.ndarray:
        """(1 - s) g(s) ds/du at the points x of [-1, 1], one row per spec."""
        u = (u1 + u0) / 2 + (u1 - u0) / 2 * x
        # s and 1 - s from expm1, neither by cancellation
        s, sc = am * np.expm1(u - u0) / (1 + np.exp(u)), -(1 + am) * np.expm1(u - u1) / (1 + np.exp(u))
        out = np.empty((len(todo), x.size))
        for c in range(0, x.size, chunk):
            nodes = s[c:c + chunk, None, None] * rho.matrix + sc[c:c + chunk, None, None] * sigma.matrix
            for row, form in zip(out, _petz_forms(todo, eigh_unphased(nodes), diff, diff)):
                row[c:c + chunk] = form.real
        return out * sc * (s + am) * (sc + bm) / (1 + am + bm)

    def estimate(k: int, m: int) -> float:
        return (u1 - u0) / 2 * float(np.sum(_cc_weights(m) * f[k, ::n // m]))

    n = 4 * _CC_FIRST
    f = np.zeros((len(specs), n + 1))   # at x = cos(j pi / n); s = 1 at j = 0, s = 0 at j = n
    f[:, 1:n] = values(np.cos(np.pi * np.arange(1, n) / n), list(specs))
    f[:, n] = [form.real * am * (1 + bm) / (1 + am + bm) for form in _petz_forms(specs, sigma.eigen, diff, diff)]
    est = [estimate(k, _CC_FIRST) for k in range(len(specs))]
    active, steps, m = list(range(len(specs))), [0.0] * len(specs), _CC_FIRST
    while m < _CC_FIRST << _CC_DOUBLINGS:
        m *= 2
        if m > n:   # the new points are the odd j of the doubled rule
            g = np.zeros((len(specs), m + 1))
            g[:, ::2] = f
            g[active, 1::2] = values(np.cos(np.pi * np.arange(1, m, 2) / m), [specs[k] for k in active])
            n, f = m, g
        for k in active:
            prev, est[k] = est[k], estimate(k, m)
            steps[k] = abs(est[k] - prev)
        active = [k for k in active if not steps[k] < QUADRATURE_STEP_TOL]
        if not active:
            return est
    k = active[0]
    raise ConvergenceError(f"integral_divergence did not converge for {specs[k].name}: step {steps[k]:.3e} "
                           f"at {m + 1} points exceeds {QUADRATURE_STEP_TOL:.0e}")


def integral_divergence(spec: MetricSpec, rho: DensityMatrix, sigma: DensityMatrix) -> float:
    """integral_divergences of the one spec."""
    return integral_divergences((spec,), rho, sigma)[0]
