"""Classical Fisher information, SLD/RLD operators, the monotone metric
family, integral divergences, and the multi-parameter lower bound.

Every metric in the family is determined by an operator monotone function f
with f(1) = 1 and f(x) = x f(1/x); the metric value in the eigenbasis of rho
is sum over (j, k) of conj(X_jk) Y_jk / (lam_k f(lam_j / lam_k)).
"""

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .config import OPERATOR_RESIDUAL_TOL, QUADRATURE_STEP_TOL, SUPPORT_RTOL
from .errors import ConvergenceError, RankError, SupportViolationError
from .linalg import (EigenSystem, eigh, eigh_hermitian, frobenius,
                     matrix_function, off_support_residual, pinv_psd,
                     support_projector, trace_norm)
from .states import (ClassicalDistribution, DensityMatrix, TangentDirection,
                     basis_weights)


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
    if abs(alpha) > 3:
        raise ValueError(f"alpha must lie in [-3, 3], got {alpha}")
    arr = np.asarray(x, dtype=float)
    if np.any(arr <= 0):
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
    if abs(alpha) > 3:
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
        if abs(dp.sum()) > 1e-9:
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
    proj = support_projector(rho.eigen)
    resid = off_support_residual(proj, x.matrix)
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


def _petz_form(spec: MetricSpec, eigen: EigenSystem, x: np.ndarray, y: np.ndarray) -> complex | np.ndarray:
    """sum conj(X_jk) Y_jk / (lam_k f(lam_j / lam_k)), with X and Y written
    in the eigenbasis of `eigen`; one value per matrix if `eigen` is a stack."""
    lam, v = eigen
    vh = v.swapaxes(-1, -2).conj()
    xt = vh @ x @ v
    yt = xt if y is x else vh @ y @ v
    ratio = lam[..., :, None] / lam[..., None, :]
    kernel = 1.0 / (lam[..., None, :] * np.asarray(spec.f(ratio), dtype=float))
    return np.sum(np.conj(xt) * yt * kernel, axis=(-2, -1))


def petz_metric(spec: MetricSpec, rho: DensityMatrix, x: TangentDirection,
                y: TangentDirection | None = None) -> complex:
    """Metric value g^f_rho(X, Y); real for X = Y."""
    y = x if y is None else y
    lam = rho.eigen.eigenvalues
    if lam[0] <= SUPPORT_RTOL * lam[-1]:
        raise RankError("petz_metric needs full-rank rho; restrict to the support first")
    return complex(_petz_form(spec, rho.eigen, x.matrix, y.matrix))


def metric_scalar(spec: MetricSpec, rho: DensityMatrix, x: TangentDirection) -> float:
    return float(petz_metric(spec, rho, x).real)


def sld_optimal_measurement(rho: DensityMatrix, x: TangentDirection) -> tuple[np.ndarray, float]:
    """The SLD eigenbasis, as the unitary whose columns it is, and the
    classical Fisher information of measuring in it, which equals the SLD
    metric value."""
    lam, _ = rho.eigen
    if lam[0] <= SUPPORT_RTOL * lam[-1]:
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


_TS_SPAN = 4                # tanh-sinh nodes t in [-4, 4], step 1 halved at
_TS_HALVINGS = 10           # most 10 times; node matrices decomposed in stacks
_STACK_ENTRIES = 1 << 18    # of at most 2^18 entries


def integral_divergence(spec: MetricSpec, rho: DensityMatrix, sigma: DensityMatrix) -> float:
    """Divergence from the double integral of the metric along the segment
    s rho + (1 - s) sigma, reduced to int_0^1 (1 - s) g(s) ds, by tanh-sinh
    quadrature (Takahasi-Mori); each halving of the step adds only new nodes.
    Raises ConvergenceError if successive estimates never meet the tolerance."""
    if rho.dim != sigma.dim:
        raise ValueError(f"dimension mismatch: {rho.dim} vs {sigma.dim}")
    for nm, state in (("rho", rho), ("sigma", sigma)):
        lam, _ = state.eigen
        if lam[0] <= SUPPORT_RTOL * lam[-1]:
            raise RankError(f"integral_divergence needs full-rank states; {nm} is singular")
    diff = rho.matrix - sigma.matrix
    chunk = max(1, _STACK_ENTRIES // rho.dim ** 2)

    def node_sum(t: np.ndarray) -> float:
        total = 0.0
        for tc in np.split(t, range(chunk, t.size, chunk)):
            e = np.exp(np.pi * np.sinh(tc))
            s, sc = 1 / (1 + 1 / e), 1 / (1 + e)   # s and 1 - s, neither by cancellation
            nodes = np.linalg.eigh(s[:, None, None] * rho.matrix + sc[:, None, None] * sigma.matrix)
            # (1 - s) g(s) ds, with ds = pi cosh(t) s (1 - s) dt
            total += np.sum(np.pi * np.cosh(tc) * s * sc * sc * _petz_form(spec, nodes, diff, diff).real)
        return total

    est = node_sum(np.arange(-_TS_SPAN, _TS_SPAN + 1.0))
    for h in 0.5 ** np.arange(1, _TS_HALVINGS + 1):
        prev, est = est, est / 2 + h * node_sum(h * np.arange(1 - _TS_SPAN / h, _TS_SPAN / h, 2))
        if abs(est - prev) < QUADRATURE_STEP_TOL:
            return float(est)
    raise ConvergenceError(f"integral_divergence did not converge: step {abs(est - prev):.3e} "
                           f"at {round(2 * _TS_SPAN / h) + 1} nodes exceeds {QUADRATURE_STEP_TOL:.0e}")
