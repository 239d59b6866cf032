"""Finite-n hypothesis-testing machinery: likelihood-ratio projectors, the
acceptance-threshold scan, certified smoothing, binary asymptotic reverse
tests, and the measure-and-prepare state conversion channel.

Every smoothed state carries a recomputed rate certificate; nothing is
trusted from a printed constant.
"""

import csv
import math
from dataclasses import dataclass

import numpy as np

from .config import DEFAULT_TOLERANCES
from .divergences import dmax, umegaki
from .errors import InfeasibleRateError, QdivError
from .linalg import (EigenSystem, eigh, matrix_function, positive_part,
                     trace_norm)
from .states import (ClassicalDistribution, DensityMatrix, Measurement,
                     Preparation, cq_apply, measure, tensor_power)

_GRID_WIDTH = DEFAULT_TOLERANCES["stein_grid_width"]


@dataclass(frozen=True)
class TestCurvePoint:
    a: float
    type1_accept: float   # tr rho_n {rho_n - e^{na} sigma_n <= 0}
    type2: float          # tr sigma_n (1 - P)

    def __post_init__(self):
        for name, val in (("type1_accept", self.type1_accept), ("type2", self.type2)):
            if not -1e-10 <= val <= 1 + 1e-10:
                raise QdivError(f"{name} = {val!r} escapes [0, 1]")


def np_projector(rho_n: DensityMatrix, sigma_n: DensityMatrix, a: float, n: int) -> tuple[np.ndarray, TestCurvePoint]:
    """Projector onto the non-positive eigenspace of rho_n - e^{na} sigma_n,
    with the exact acceptance/error traces at threshold a."""
    return _ratio_test(rho_n, sigma_n, a, n)[1:]


def _ratio_test(rho_n: DensityMatrix, sigma_n: DensityMatrix, a: float,
                n: int) -> tuple[EigenSystem, np.ndarray, TestCurvePoint]:
    """np_projector's projector and traces, plus the eigensystem of
    rho_n - e^{na} sigma_n they come from."""
    if rho_n.dim != sigma_n.dim:
        raise ValueError(f"dimension mismatch: {rho_n.dim} vs {sigma_n.dim}")
    es = eigh(rho_n.matrix - math.exp(n * a) * sigma_n.matrix)
    w, v = es
    tol = 1e-12 * max(float(np.abs(w).max()), 1e-300)
    cols = v[:, w <= tol]
    proj = cols @ cols.conj().T
    t1 = float(np.trace(rho_n.matrix @ proj).real)
    t2 = float(np.trace(sigma_n.matrix @ (np.eye(rho_n.dim) - proj)).real)
    return es, proj, TestCurvePoint(a, t1, t2)


class _AcceptCurve:
    """Cached type-1 acceptance curve a -> tr rho_n P_a for one (pair, n)."""

    def __init__(self, rho: DensityMatrix, sigma: DensityMatrix, n: int):
        self.rho_n = tensor_power(rho, n)
        self.sigma_n = tensor_power(sigma, n)
        self.n = n
        self._cache: dict[float, TestCurvePoint] = {}

    def point(self, a: float) -> TestCurvePoint:
        if a not in self._cache:
            self._cache[a] = np_projector(self.rho_n, self.sigma_n, a, self.n)[1]
        return self._cache[a]


def stein_threshold(rho: DensityMatrix, sigma: DensityMatrix, n: int, eps: float,
                    width: float = _GRID_WIDTH) -> float:
    """Smallest rate a (grid resolution `width`) whose acceptance reaches
    1 - eps. A full grid scan with recursive refinement; no monotonicity of
    the curve in a is assumed."""
    if not 0 < eps < 1:
        raise ValueError(f"eps must lie in (0, 1), got {eps}")
    lo = -dmax(sigma, rho) - 0.5
    hi = dmax(rho, sigma) + 0.5
    curve = _AcceptCurve(rho, sigma, n)
    target = 1 - eps
    while True:
        grid = np.linspace(lo, hi, 17)
        hit = next((i for i, a in enumerate(grid) if curve.point(float(a)).type1_accept >= target), None)
        if hit is None:
            raise QdivError(f"acceptance never reaches {target} on [{lo}, {hi}] at n={n}")
        step = float(grid[1] - grid[0])
        if step <= width:
            return float(grid[hit])
        hi = float(grid[hit])
        lo = float(grid[hit - 1]) if hit > 0 else hi - step


def curve_points(rho: DensityMatrix, sigma: DensityMatrix, n: int, rates) -> list[TestCurvePoint]:
    curve = _AcceptCurve(rho, sigma, n)
    return [curve.point(float(a)) for a in rates]


def write_curve_csv(path: str, rows) -> None:
    """Rows of (n, point, threshold) to the curve CSV schema."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["n", "a", "type1_accept", "type2", "threshold"])
        for n, pt, thr in rows:
            writer.writerow([n, f"{pt.a:.12g}", f"{pt.type1_accept:.12g}",
                             f"{pt.type2:.12g}", f"{thr:.12g}"])


# ---------------------------------------------------------------------------
# smoothing


@dataclass(frozen=True, eq=False)
class SmoothedState:
    state: DensityMatrix
    epsilon: float              # trace distance to the target power state
    rate_certificate: float     # a' with state <= e^{n a'} sigma_n, verified
    accept_shortfall: float     # 1 - type1_accept at the smoothing rate
    datta_bound: float          # 4 sqrt(2 * shortfall) + slack
    datta_ok: bool


def smooth_state(rho_n: DensityMatrix, sigma_n: DensityMatrix, a: float, n: int) -> SmoothedState:
    """Cut the part of rho_n exceeding e^{na} sigma_n, repair, renormalize.

    The certificate a' = dmax(state, sigma_n)/n is recomputed from the output
    and is the only guarantee exported; the distance bound in sqrt(shortfall)
    is checked and reported, not assumed.
    """
    delta_eigen, _, point = _ratio_test(rho_n, sigma_n, a, n)
    cand = rho_n.matrix - positive_part(delta_eigen)
    apos = positive_part((cand + cand.conj().T) / 2)
    tr = float(np.trace(apos).real)
    if tr < 1e-12:
        raise QdivError(f"smoothing degenerate at rate {a}: cut removed the whole state")
    state = DensityMatrix(apos / tr)
    epsilon = trace_norm(state.matrix - rho_n.matrix)
    cert = dmax(state, sigma_n) / n
    shortfall = 1.0 - point.type1_accept
    bound = 4 * math.sqrt(2 * max(shortfall, 0.0)) + DEFAULT_TOLERANCES["datta1_slack"]
    witness = math.exp(n * cert) * sigma_n.matrix - state.matrix
    if float(np.linalg.eigvalsh(witness).min()) < -1e-9:
        raise QdivError("rate certificate failed its own PSD check")
    return SmoothedState(state, epsilon, cert, shortfall, bound, epsilon <= bound)


def _capped_state(rho_n: DensityMatrix, sigma_n: DensityMatrix, a: float, n: int) -> DensityMatrix:
    """Largest-fidelity state obeying state <= e^{na} sigma_n by spectral
    capping in the sigma-weighted frame, trace deficit refilled from the
    remaining room e^{na} sigma_n - capped."""
    scale = math.exp(n * a)
    m = scale * sigma_n.matrix
    m_eigen = EigenSystem(scale * sigma_n.eigen.eigenvalues, sigma_n.eigen.eigenvectors)
    msq = matrix_function(m_eigen, np.sqrt, support_only=True)
    misq = matrix_function(m_eigen, lambda v: 1 / np.sqrt(v), support_only=True)
    c = misq @ rho_n.matrix @ misq
    w, v = eigh((c + c.conj().T) / 2)
    capped = (v * np.minimum(np.maximum(w, 0.0), 1.0)) @ v.conj().T
    rhat = msq @ capped @ msq
    rhat = (rhat + rhat.conj().T) / 2
    tr = float(np.trace(rhat).real)
    room = m - rhat
    tr_room = float(np.trace(room).real)
    if tr < 1.0 and tr_room > 1e-14:
        rhat = rhat + ((1.0 - tr) / tr_room) * room
    rhat = (rhat + rhat.conj().T) / 2
    return DensityMatrix(rhat / float(np.trace(rhat).real))


# ---------------------------------------------------------------------------
# binary asymptotic reverse test


@dataclass(frozen=True, eq=False)
class BinaryReverseTest:
    preparation: Preparation    # two states: smoothed rho-like, complement
    p: ClassicalDistribution    # (1, 0)
    q: ClassicalDistribution    # (e^{-n rate}, 1 - e^{-n rate})
    rate: float
    certificate: float
    rho_error: float            # || prep(p) - rho^{x n} ||_1
    sigma_error: float          # || prep(q) - sigma^{x n} ||_1, ~0 by design
    smoothing: str              # "plain" or "capped"


def asymptotic_reverse_test(rho: DensityMatrix, sigma: DensityMatrix, n: int,
                            rate: float) -> BinaryReverseTest:
    """Binary-input preparation with prep(q) = sigma^{x n} exactly and
    prep(p) near rho^{x n}, at input weight q(0) = e^{-n rate}.

    The plain cut-and-renormalize smoothing is used when its certificate
    meets the rate; otherwise the sigma-frame capped state (whose certificate
    meets the rate by construction) substitutes. If neither certifies, the
    rate is infeasible at this n and the minimal feasible rate is raised.
    """
    return _binary_reverse_test(tensor_power(rho, n), tensor_power(sigma, n), n, rate)


def _binary_reverse_test(rho_n: DensityMatrix, sigma_n: DensityMatrix, n: int, rate: float) -> BinaryReverseTest:
    """asymptotic_reverse_test on the tensor powers rho_n and sigma_n."""
    if rate <= 0:
        raise ValueError(f"rate must be positive, got {rate}")
    sm = smooth_state(rho_n, sigma_n, rate, n)
    if sm.rate_certificate <= rate + 1e-12:
        state, cert, mode = sm.state, sm.rate_certificate, "plain"
    else:
        state = _capped_state(rho_n, sigma_n, rate, n)
        cert, mode = dmax(state, sigma_n) / n, "capped"
        if cert > rate + 1e-9:
            raise InfeasibleRateError(
                f"rate {rate} infeasible at n={n}: minimal certified rate "
                f"{min(cert, sm.rate_certificate)}",
                min_rate=min(cert, sm.rate_certificate))
    q0 = math.exp(-n * rate)
    if q0 >= 1 - 1e-12:
        raise ValueError(f"n * rate = {n * rate} too small: q(0) = {q0} leaves no complement weight")
    complement = DensityMatrix((sigma_n.matrix - q0 * state.matrix) / (1 - q0))
    prep = Preparation((state, complement))
    p = ClassicalDistribution(np.array([1.0, 0.0]))
    q = ClassicalDistribution(np.array([q0, 1 - q0]))
    sigma_err = trace_norm(cq_apply(prep, q).matrix - sigma_n.matrix)
    rho_err = trace_norm(state.matrix - rho_n.matrix)
    return BinaryReverseTest(prep, p, q, rate, cert, rho_err, sigma_err, mode)


# ---------------------------------------------------------------------------
# state-pair conversion


@dataclass(frozen=True, eq=False)
class ConversionChannel:
    """Measure-and-prepare map: binary likelihood-ratio measurement on the
    source power, preparation from the reverse test on the target; never
    materialized as a dense superoperator."""

    measurement: Measurement
    preparation: Preparation

    def apply(self, state_n: DensityMatrix) -> DensityMatrix:
        probs = measure(self.measurement, state_n).probs
        return cq_apply(self.preparation, ClassicalDistribution(probs / probs.sum()))


@dataclass(frozen=True, eq=False)
class ConversionReport:
    n: int
    feasible: bool
    rate: float
    accept_prob: float          # weight the source rho lands on outcome 0
    rho_error: float
    sigma_error: float
    detail: str = ""


def state_conversion(rho0: DensityMatrix, sigma0: DensityMatrix,
                     rho: DensityMatrix, sigma: DensityMatrix,
                     n: int, c: float) -> tuple[ConversionChannel | None, ConversionReport]:
    """Channel taking (rho0, sigma0)^{x n} toward (rho, sigma)^{x n}:
    likelihood-ratio test at rate umegaki(rho, sigma) + c, then the binary
    reverse test at the measured type-2 exponent.

    Requires the strict gap umegaki(rho0, sigma0) > umegaki(rho, sigma) + 2c;
    an infeasible smoothing rate at small n is reported, not raised.
    """
    if c <= 0:
        raise ValueError(f"c must be positive, got {c}")
    d_src = umegaki(rho0, sigma0)
    d_tgt = umegaki(rho, sigma)
    if not (d_src.finite and d_tgt.finite):
        raise ValueError("conversion needs finite divergences on both pairs")
    if d_src.value <= d_tgt.value + 2 * c:
        raise ValueError(
            f"gap hypothesis fails: D(source) = {d_src.value:.6f} must exceed "
            f"D(target) + 2c = {d_tgt.value + 2 * c:.6f}")
    a = d_tgt.value + c
    rho0_n, sigma0_n = tensor_power(rho0, n), tensor_power(sigma0, n)
    proj, pt = np_projector(rho0_n, sigma0_n, a, n)
    accept = 1.0 - pt.type1_accept          # weight of rho0^n on the accept effect 1 - P
    q0 = pt.type2
    if q0 <= 0:
        return None, ConversionReport(n, False, math.inf, accept, math.nan, math.nan,
                                      "type-2 error vanished; rate unbounded")
    rate = -math.log(q0) / n
    rho_n, sigma_n = tensor_power(rho, n), tensor_power(sigma, n)
    try:
        brt = _binary_reverse_test(rho_n, sigma_n, n, rate)
    except InfeasibleRateError as exc:
        return None, ConversionReport(n, False, rate, accept, math.nan, math.nan,
                                      f"not yet feasible at this n: {exc}")
    eye = np.eye(rho0_n.dim)
    channel = ConversionChannel(Measurement((eye - proj, proj)), brt.preparation)
    out_r = channel.apply(rho0_n)
    out_s = channel.apply(sigma0_n)
    report = ConversionReport(n, True, rate, accept,
                              trace_norm(out_r.matrix - rho_n.matrix),
                              trace_norm(out_s.matrix - sigma_n.matrix),
                              f"smoothing={brt.smoothing}")
    return channel, report
