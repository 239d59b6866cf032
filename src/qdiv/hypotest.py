"""Finite-n hypothesis-testing machinery on one n-copy pair: likelihood-ratio
projectors, the acceptance-threshold scan, certified smoothing, the binary
asymptotic reverse test, and the measure-and-prepare state conversion channel.

OneCopyPair(rho, sigma) keeps what does not depend on n, each part computed
on first read: the one-copy frame of reverse.support_frame, with its support
check, the two dmax reads of the threshold scan's interval, and the Umegaki
value. CopyPair(rho, sigma, n) is checked once when made (the dimensions,
then n and the cap), and its pairs of one OneCopyPair, at every n, share it
(OneCopyPair.copies). Its methods are the constructions, the conversion
toward a target OneCopyPair included, and what they share is built on first
read and kept: the powers that states.power_blocks compresses, and the
frame's n-fold ratios and weights and, for a 2x2 frame, the Schur-Weyl
blocks that every error read takes.
One kernel, _ratio_test, runs every likelihood-ratio test, at a sequence of
rates whose matrices r - e^{na} s it decomposes in stacked eigh calls, and
whose traces it reads per stack from two products and masked sums: on the
compressed powers (threshold a grid level at a time, only the rates whose
acceptance no bound decides; curve_points all its rates at once), on dense
krons where the projector is returned. It yields per stack the eigen arrays,
acceptance mask and trace rows, which it range-checks. The smoothing pinches
rho^{x n} in sigma's eigenbasis, where sigma^{x n} is diagonal, and builds
the smoothed state only when it is read. The reverse test is the n-fold
power of the frame, kept in support coordinates. Its errors, and the conversion's, are trace
norms of w^{x n} diag(x) w^{x n dag} with x a function of the type: one
eigvalsh call on the zero-padded qubit Schur-Weyl blocks of states.sym_powers
when the frame is 2x2, and dense otherwise. Its preparation is B^{x n} with
the two weight rows, and its states are built only when read. Every
certificate is computed from the state it certifies; nothing is trusted from
a printed constant.
"""

import csv
import functools
import math
from collections.abc import Callable, Iterable, Iterator, Sequence
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .config import DEFAULT_TOLERANCES, SMOOTHING_SLACK
from .divergences import DivergenceReport, dmax, support_escapes, umegaki
from .errors import InfeasibleRateError, QdivError, SupportViolationError
from .linalg import STACK_BYTES, EigenSystem, eigh_unphased, hermitian_trace_norm, support_cutoff
from .reverse import support_frame
from .states import (ClassicalDistribution, DensityMatrix, Measurement,
                     Preparation, basis_weights, check_dims, check_power,
                     cq_apply, kron_power, measure, power_blocks,
                     power_trace_norms, sym_powers)


@dataclass(frozen=True)
class TestCurvePoint:
    a: float
    type1_accept: float   # tr rho_n {rho_n - e^{na} sigma_n <= 0}
    type2: float          # tr sigma_n (1 - P)


def _exp(x: float) -> float:
    try:
        return math.exp(x)
    except OverflowError:
        return math.inf


def _ratio_test(r: np.ndarray, s: np.ndarray, weights: np.ndarray, rates: Sequence[float],
                n: int) -> Iterator[tuple[EigenSystem, np.ndarray, np.ndarray, np.ndarray]]:
    """The likelihood-ratio test at each rate a of rates, where e^{na} is a
    finite double, in order and lazily, one stack of rates at a time: the
    eigensystems of r - e^{na} s as (b, d) and (b, d, d) arrays, the (b, d)
    mask of the eigenvectors each accepts on (eigenvalues at most 1e-12 of
    the largest magnitude), and the (b,) rows of the traces t1 = tr(W r P),
    t2 = tr(W s) - tr(W s P) for the projector P onto them and the row
    weights W of power_blocks, which commute with r, s and P. Raises
    QdivError if a trace escapes [0, 1] by more than 1e-10.

    The matrices r - e^{na} s are checked and decomposed in stacks of at
    most STACK_BYTES, one numpy.linalg.eigh call per stack, each matrix bit
    for bit as on its own. Each stack's traces come from one product of its
    eigenvectors with W r, one with W s, and masked sums over the accepted
    eigenvectors; a lone rate runs the same code as a stack of one, so its
    results are the stacked ones bit for bit."""
    wrs = weights[:, None] * np.array((r, s))
    trace_ws = float(wrs[1].trace().real)
    d = len(r)
    chunk = max(1, STACK_BYTES // (16 * d * d))
    scales = [_exp(n * a) for a in rates]
    # the rates before the first one past double range are still tested
    good = next((j for j, x in enumerate(scales) if not math.isfinite(x)), len(rates))
    for start in range(0, good, chunk):
        stack = scales[start:min(start + chunk, good)]
        # a lone matrix is checked and decomposed as a matrix, which takes
        # fewer numpy calls than a stack of one
        m = r - stack[0] * s if len(stack) == 1 else r - np.array(stack)[:, None, None] * s
        w, v = eigh_unphased(m)
        w, v = w.reshape(-1, d), v.reshape(-1, d, d)
        # eigenvalues ascend, so the largest magnitude sits at an end
        accepted = w <= 1e-12 * np.maximum(np.maximum(-w[:, :1], w[:, -1:]), 1e-300)
        # each eigenvector's weight under W r, then under W s, summed over
        # the accepted ones; each product is one stack's size
        t1, t2_in = (np.where(accepted, basis_weights(v, wm), 0.0).sum(axis=-1) for wm in wrs)
        t2 = trace_ws - t2_in
        for name, val in (("type1_accept", t1), ("type2", t2)):
            escapes = ~((val >= -1e-10) & (val <= 1 + 1e-10))   # NaN-safe
            if escapes.any():
                raise QdivError(f"{name} = {float(val[escapes][0])!r} escapes [0, 1]")
        yield EigenSystem(w, v), accepted, t1, t2
    if good < len(rates):
        raise ValueError(f"rate {rates[good]} at n={n}: e^(n rate) is not a finite double")


def threshold_scan(accept: Callable[[Sequence[float]], Iterable[float]], lo: float, hi: float,
                   n: int, eps: float) -> float:
    """Smallest rate a, to the grid resolution stein_grid_width of the fixed
    DEFAULT_TOLERANCES table, whose acceptance reaches 1 - eps: a 17-point
    grid over [lo, hi], refined around its first hit. No monotonicity in a is
    assumed.

    accept maps a sequence of rates to their acceptances, in order; it may
    yield them lazily, and for a rate it may yield a bound that decides the
    rate against 1 - eps in place of the acceptance (a value below 1 - eps
    for one that cannot reach it, at least 1 - eps for one that must).
    Each level asks for its rates not evaluated before and
    reads them in grid order until the first hit, so each rate is evaluated
    at most once and a lazy accept stops at the stack that holds the hit.

    An infinite lo becomes ln(1 - eps)/n - 0.5, below every hit, since an
    acceptance tr rho_n P_a never exceeds e^{na}. An infinite hi means the
    support of rho escapes that of sigma, and raises."""
    if not 0 < eps < 1:
        raise ValueError(f"eps must lie in (0, 1), got {eps}")
    if math.isinf(hi):
        raise SupportViolationError("supp rho escapes supp sigma: the acceptance threshold is infinite")
    if math.isinf(lo):
        lo = math.log(1 - eps) / n - 0.5
    seen: dict[float, float] = {}
    target, width = 1 - eps, DEFAULT_TOLERANCES["stein_grid_width"]
    while True:
        grid = [float(a) for a in np.linspace(lo, hi, 17)]
        fresh = iter(accept([a for a in dict.fromkeys(grid) if a not in seen]))
        hit = None
        for i, a in enumerate(grid):
            if a not in seen:
                seen[a] = next(fresh)
            if seen[a] >= target:
                hit = i
                break
        if hit is None:
            raise QdivError(f"acceptance never reaches {target} on [{lo}, {hi}] at n={n}")
        step = grid[1] - grid[0]
        if step <= width:
            return grid[hit]
        hi = grid[hit]
        lo = grid[hit - 1] if hit > 0 else hi - step


def write_curve_csv(path: str, rows) -> None:
    """Rows of (n, point, threshold) to the curve CSV schema."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["n", "a", "type1_accept", "type2", "threshold"])
        for n, pt, thr in rows:
            writer.writerow([n, f"{pt.a:.12g}", f"{pt.type1_accept:.12g}",
                             f"{pt.type2:.12g}", f"{thr:.12g}"])


# ---------------------------------------------------------------------------
# the n-copy pair and its constructions


@dataclass(frozen=True, eq=False)
class SmoothedState:
    """The smoothed state s in sigma's eigenbasis, with what is read off s;
    the state v^{x n} s v^{x n dag} is built and validated on first read."""

    pair: "CopyPair"
    smoothed: np.ndarray        # s, in the eigenbasis v of the pair's sigma
    epsilon: float              # trace distance to the target power state
    rate_certificate: float     # least a' with state <= e^{n a'} sigma_n; at most a + (ln #classes - ln T)/n
    accept_shortfall: float     # 1 - T, with T = tr rho_n P the weight the projection keeps
    distance_bound: float       # 2 sqrt(1 - T) + (1 - T) + slack, by gentle measurement

    @functools.cached_property
    def state(self) -> DensityMatrix:
        vn = kron_power(self.pair.sigma.eigen.eigenvectors, self.pair.n)
        return DensityMatrix(vn @ self.smoothed @ vn.conj().T)


class PowerFrame(NamedTuple):   # reverse.support_frame's one-copy frame and its n-fold diagonals
    iso: np.ndarray             # V, the isometry onto supp sigma
    w: np.ndarray               # sigma = V w w^dag V^dag
    ratios: np.ndarray          # t^{x n}, with rho = V w diag(t) w^dag V^dag
    q: np.ndarray               # q^{x n}, q the squared column norms of w
    sym: np.ndarray | None      # states.sym_powers(w, n) for a 2x2 w, read by every error


@dataclass(frozen=True, eq=False)
class BinaryReverseTest:
    """Binary reverse test whose input p is always (1, 0), kept on its
    pair's PowerFrame in support coordinates: with B = V w, symbol x prepares
    B^{x n} diag(weights[x]) B^{x n dag}, and rho^{x n}, sigma^{x n} are
    B^{x n} diag(ratios or ones) B^{x n dag}. Each error is a trace norm in
    support coordinates, of w^{x n} times a difference of weight rows
    (states.power_trace_norms), computed on first read; B^{x n} is built on
    the first read of the preparation, whose frame it is with the two
    weight rows."""

    pair: "CopyPair"
    weights: np.ndarray         # rows: capped g, complement h / (h . q_n)
    q: ClassicalDistribution    # (e^{-n rate}, 1 - e^{-n rate})
    rate: float
    certificate: float

    def errors(self, p0s: Sequence[float], targets: Sequence) -> list[float]:
        """|| output(p0) - B^{x n} diag(target) B^{x n dag} ||_1 for each p0
        and target, with target = ratios for rho^{x n} and 1 for sigma^{x n}:
        all from one eigvalsh call, each error bit for bit as on its own."""
        xs = [p0 * self.weights[0] + (1 - p0) * self.weights[1] - target for p0, target in zip(p0s, targets)]
        frame = self.pair.frame
        return [float(v) for v in power_trace_norms(frame.w, np.array(xs), self.pair.n, frame.sym)]

    @functools.cached_property
    def rho_error(self) -> float:   # || output(1) - rho^{x n} ||_1
        return self.errors([1.0], [self.pair.frame.ratios])[0]

    @functools.cached_property
    def sigma_error(self) -> float:   # || output(q(0)) - sigma^{x n} ||_1, ~0 by design
        return self.errors([float(self.q.probs[0])], [1.0])[0]

    @functools.cached_property
    def frame(self) -> np.ndarray:
        """B^{x n}, with sigma^{x n} = B^{x n} B^{x n dag}."""
        return kron_power(self.pair.frame.iso @ self.pair.frame.w, self.pair.n)

    @property
    def preparation(self) -> Preparation:
        """B^{x n} with the rows of the capped state and the complement."""
        return Preparation(self.frame, self.weights)


@dataclass(frozen=True, eq=False)
class OneCopyPair:
    """The one-copy pair (rho, sigma), its dimensions checked once, and what
    its n-copy pairs share at every n, each computed on first read and kept:
    reverse.support_frame's frame, the two dmax reads of the threshold scan's
    interval, and the Umegaki value. copies(n) makes the n-copy pair that
    reads them."""

    rho: DensityMatrix
    sigma: DensityMatrix

    def __post_init__(self):
        check_dims(self.rho, self.sigma)

    def copies(self, n: int) -> "CopyPair":
        return CopyPair(self.rho, self.sigma, n, self)

    @functools.cached_property
    def frame(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """reverse.support_frame's (V, w, t), sigma = V w w^dag V^dag and rho = V w diag(t) w^dag V^dag.
        Raises SupportViolationError if supp rho escapes supp sigma."""
        if support_escapes(self.rho, self.sigma):
            raise SupportViolationError("supp rho escapes supp sigma: no state below e^{n rate} sigma is near rho")
        return support_frame(self.rho, self.sigma)

    @functools.cached_property
    def dmax(self) -> float:
        """dmax(rho, sigma), at and above which rho^{x n} <= e^{na} sigma^{x n}."""
        return dmax(self.rho, self.sigma)

    @functools.cached_property
    def scan_interval(self) -> tuple[float, float]:
        """(-dmax(sigma, rho) - 0.5, dmax(rho, sigma) + 0.5), where every threshold is scanned."""
        return -dmax(self.sigma, self.rho) - 0.5, self.dmax + 0.5

    @functools.cached_property
    def umegaki(self) -> DivergenceReport:
        return umegaki(self.rho, self.sigma)


@dataclass(frozen=True, eq=False)
class CopyPair:
    """The n-copy pair (rho^{x n}, sigma^{x n}), checked once: the dimensions
    agree, then n is an integer, at least 1, with d^n within the dimension cap.
    What its constructions share, `powers` and `frame`, is built on first
    read; what does not depend on n is read from `one`, the OneCopyPair of
    (rho, sigma), made here unless it is given (OneCopyPair.copies)."""

    rho: DensityMatrix
    sigma: DensityMatrix
    n: int
    one: OneCopyPair | None = field(default=None, repr=False)

    def __post_init__(self):
        if self.one is None:
            object.__setattr__(self, "one", OneCopyPair(self.rho, self.sigma))
        elif (self.one.rho, self.one.sigma) != (self.rho, self.sigma):
            raise ValueError("the one-copy pair holds other states")
        check_power(self.rho.dim, self.n)

    @functools.cached_property
    def powers(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(r, s, weights): rho^{x n} and sigma^{x n} compressed by
        states.power_blocks, and their shared row weights."""
        (r, weights), (s, _) = power_blocks(self.rho, self.n), power_blocks(self.sigma, self.n)
        return r, s, weights

    @functools.cached_property
    def frame(self) -> PowerFrame:
        """reverse.support_frame's one-copy frame, sigma = B B^dag and rho = B diag(t) B^dag
        with B = V w, with t^{x n} and q^{x n}, the squared column norms of B^{x n}.
        Raises SupportViolationError, at one copy, if supp rho escapes supp sigma."""
        iso, w, t = self.one.frame
        return PowerFrame(iso, w, kron_power(t, self.n), kron_power(np.sum(np.abs(w) ** 2, axis=0), self.n),
                          sym_powers(w, self.n) if len(w) == 2 else None)

    def projector(self, a: float) -> tuple[np.ndarray, TestCurvePoint]:
        """Projector onto the non-positive eigenspace of rho^{x n} - e^{na} sigma^{x n}, on
        their dense krons, with the exact acceptance/error traces at threshold a."""
        n = self.n
        ((_, v), accepted, t1, t2), = _ratio_test(kron_power(self.rho.matrix, n), kron_power(self.sigma.matrix, n),
                                                  np.ones(self.rho.dim ** n), [a], n)
        cols = v[0][:, accepted[0]]
        return cols @ cols.conj().T, TestCurvePoint(a, float(t1[0]), float(t2[0]))

    def threshold(self, eps: float) -> float:
        """threshold_scan of the likelihood-ratio acceptance tr rho_n P_a over
        the one-copy pair's scan_interval, at the fixed grid resolution
        stein_grid_width (1e-3).

        Only the rates whose acceptance is open against 1 - eps are tested. One
        below ln(1 - eps)/n, by 1e-9 in n a, accepts at most e^{na} < 1 - eps,
        which is yielded in its place; at or above dmax(rho, sigma), P_a is the
        identity and accepts 1. The open rates of a grid level are tested in
        stacks of at most STACK_BYTES, up to the stack that holds its first
        hit: one eigh call per level on the 16x16 qubit blocks at n = 6, one per
        rate on an 81x81 dense power, each acceptance read off its stack's row.
        The powers are read at the first level, after threshold_scan's checks."""
        n = self.n

        def accept(rates):
            floor, top = (math.log(1 - eps) - 1e-9) / n, self.one.dmax
            tested = (t for _, _, t1, _ in _ratio_test(*self.powers, [a for a in rates if floor <= a < top], n)
                      for t in t1)
            for a in rates:
                yield _exp(n * a) if a < floor else 1.0 if a >= top else next(tested)

        return threshold_scan(accept, *self.one.scan_interval, n, eps)

    def curve_points(self, rates) -> list[TestCurvePoint]:
        """projector's traces at each rate, on the powers compressed by
        power_blocks, from stacked eighs of at most STACK_BYTES: one call for
        all 13 rates on the 16x16 qubit blocks at n = 6."""
        rates = [float(a) for a in rates]
        rows = [row for _, _, t1, t2 in _ratio_test(*self.powers, rates, self.n)
                for row in zip(t1.tolist(), t2.tolist())]
        return [TestCurvePoint(a, *row) for a, row in zip(rates, rows)]

    def smooth(self, a: float) -> SmoothedState:
        """Hayashi's pinched smoothing of rho^{x n} at rate a: P rho_n P / T, T = tr rho_n P.

        In sigma's eigenbasis sigma_n is the diagonal q^{x n}, q zero below the
        support cutoff, constant on each type class (the indices with the same
        count of each eigenvector). In each class of nonzero weight P keeps the
        eigenvectors of its block of r = (v^dag rho v)^{x n} with eigenvalue at
        most e^{na} times the weight. The certificate ln lambda_max(q^{-1/2} s
        q^{-1/2}) / n is exact for the smoothed s. Raises SupportViolationError,
        at one copy, when supp rho escapes supp sigma."""
        rho, sigma, n = self.rho, self.sigma, self.n
        if support_escapes(rho, sigma):
            raise SupportViolationError("supp rho escapes supp sigma: no state below e^{n a} sigma is near rho")
        if not math.isfinite(scale := _exp(n * a)):
            raise ValueError(f"rate {a} at n={n}: e^(n rate) is not a finite double")
        q, v = sigma.eigen
        # each index's type class, named by its one member c whose labels ascend: rep[c] == c
        rep = np.ravel_multi_index(np.sort(np.indices((rho.dim,) * n).reshape(n, -1), axis=0), (rho.dim,) * n)
        qn, r = kron_power(np.where(q > support_cutoff(q), q, 0.0), n)[rep], kron_power(v.conj().T @ rho.matrix @ v, n)
        proj = np.zeros_like(r)
        for c in np.flatnonzero((rep == np.arange(len(rep))) & (qn > 0.0)):
            idx = np.flatnonzero(rep == c)
            w, u = eigh_unphased(r[np.ix_(idx, idx)])
            cols = u[:, w <= scale * qn[c]]
            proj[np.ix_(idx, idx)] = cols @ cols.conj().T
        prp = proj @ r @ proj
        if (t := float(prp.trace().real)) < 1e-12:
            raise QdivError(f"smoothing degenerate at rate {a}: the projection removed the whole state")
        # s is zero on the indices of weight 0, which any scale there keeps
        s, root = prp / t, np.where(qn > 0.0, qn, 1.0) ** -0.5
        cert = math.log(float(np.linalg.eigvalsh(s * root[:, None] * root)[-1])) / n
        shortfall = max(1.0 - t, 0.0)
        return SmoothedState(self, s, float(hermitian_trace_norm(s - r)), cert, shortfall,
                             2 * math.sqrt(shortfall) + shortfall + SMOOTHING_SLACK)

    def reverse_test(self, rate: float) -> BinaryReverseTest:
        """Binary-input preparation with prep(q) = sigma^{x n} exactly and prep(p)
        the capped state near rho^{x n}, at input weight q(0) = e^{-n rate}.

        On the frame, the capped state is B^{x n} diag(g) B^{x n dag}, with
        g = min(t^{x n}, e^{n rate}) refilled from the room e^{n rate} - g and
        normalized, so its certificate dmax(state, sigma^{x n})/n is
        ln(max g)/n; a cap past double range caps nothing. The complement
        (sigma^{x n} - q(0) state)/(1 - q(0)) is B^{x n} diag(1 - q(0) g)
        B^{x n dag} over its own trace: dividing by 1 - q(0), about n rate,
        would magnify roundoff at small rates. Raises SupportViolationError if
        supp rho escapes supp sigma. The refill keeps g at most e^{n rate}, so
        the certificate meets the rate up to roundoff; one above rate + 1e-9
        still raises InfeasibleRateError.
        """
        n = self.n
        q0 = math.exp(-n * rate) if rate > 0 else 1.0
        if q0 >= 1 - 1e-12:
            raise ValueError(f"rate must be positive with q(0) = e^(-n rate) below 1 - 1e-12, got {rate} at n={n}")
        t_n, q_n = self.frame.ratios, self.frame.q
        cap = _exp(n * rate)
        g = np.minimum(t_n, cap)
        if cap < math.inf:
            tr, tr_room = float(g @ q_n), float((cap - g) @ q_n)
            if tr < 1.0 and tr_room > 1e-14:
                g = g + ((1.0 - tr) / tr_room) * (cap - g)
        g = g / float(g @ q_n)
        cert = math.log(float(g.max())) / n
        if not cert <= rate + 1e-9:
            raise InfeasibleRateError(f"rate {rate} infeasible at n={n}: minimal certified rate {cert}",
                                      min_rate=cert)
        h = np.maximum(1.0 - q0 * g, 0.0)
        return BinaryReverseTest(self, np.stack((g, h / float(h @ q_n))),
                                 ClassicalDistribution(np.array([q0, 1 - q0])), rate, cert)

    def conversion(self, target: OneCopyPair, c: float) -> tuple["ConversionChannel | None", "ConversionReport"]:
        """Channel taking this pair toward the target (rho, sigma)^{x n}:
        likelihood-ratio test at rate umegaki(rho, sigma) + c, on this pair's
        powers, then the binary reverse test of target.copies(n) at the
        measured type-2 exponent. Both Umegaki values and the target's frame
        are read from the one-copy pairs.

        Requires the strict gap umegaki(self.rho, self.sigma) > umegaki(rho, sigma) + 2c;
        a reverse-test rate that is infeasible at small n is reported, not raised.
        """
        if not 0 < c < math.inf:
            raise ValueError(f"c must be positive and finite, got {c}")
        d_src, d_tgt = self.one.umegaki, target.umegaki
        if not (d_src.finite and d_tgt.finite):
            raise ValueError("conversion needs finite divergences on both pairs")
        if d_src.value <= d_tgt.value + 2 * c:
            raise ValueError(
                f"gap hypothesis fails: D(source) = {d_src.value:.6f} must exceed "
                f"D(target) + 2c = {d_tgt.value + 2 * c:.6f}")
        n, a = self.n, d_tgt.value + c
        pt, = self.curve_points([a])
        accept = 1.0 - pt.type1_accept          # weight of this pair's rho^{x n} on the accept effect 1 - P
        q0 = pt.type2
        if q0 <= 0:
            return None, ConversionReport(n, False, math.inf, accept, math.nan, math.nan,
                                          "type-2 error vanished; rate unbounded")
        rate = -math.log(q0) / n
        try:
            brt = target.copies(n).reverse_test(rate)
        except InfeasibleRateError as exc:
            return None, ConversionReport(n, False, rate, accept, math.nan, math.nan,
                                          f"not yet feasible at this n: {exc}")
        rho_error, sigma_error = brt.errors([accept, float(brt.q.probs[0])], [brt.pair.frame.ratios, 1.0])
        return ConversionChannel(self, a, brt), ConversionReport(n, True, rate, accept, rho_error, sigma_error)


# four CopyPair methods as functions of (rho, sigma, n), each on a pair of its own (bench/workloads.py calls them)


def stein_threshold(rho: DensityMatrix, sigma: DensityMatrix, n: int, eps: float) -> float:
    return CopyPair(rho, sigma, n).threshold(eps)


def curve_points(rho: DensityMatrix, sigma: DensityMatrix, n: int, rates) -> list[TestCurvePoint]:
    return CopyPair(rho, sigma, n).curve_points(rates)


def asymptotic_reverse_test(rho: DensityMatrix, sigma: DensityMatrix, n: int, rate: float) -> BinaryReverseTest:
    return CopyPair(rho, sigma, n).reverse_test(rate)


def state_conversion(rho0: DensityMatrix, sigma0: DensityMatrix, rho: DensityMatrix, sigma: DensityMatrix,
                     n: int, c: float) -> tuple["ConversionChannel | None", "ConversionReport"]:
    return CopyPair(rho0, sigma0, n).conversion(OneCopyPair(rho, sigma), c)


# ---------------------------------------------------------------------------
# state-pair conversion


@dataclass(frozen=True, eq=False)
class ConversionChannel:
    """Measure-and-prepare map: binary likelihood-ratio measurement at rate a
    on the n-th power of the source pair, then the output of the target's
    reverse test `test`; never materialized as a dense superoperator."""

    source: CopyPair
    a: float
    test: BinaryReverseTest

    @functools.cached_property
    def measurement(self) -> Measurement:
        """The effects (1 - P, P) of the source pair's projector, built on first read."""
        proj, _ = self.source.projector(self.a)
        return Measurement((np.eye(len(proj)) - proj, proj))

    def apply(self, state_n: DensityMatrix) -> DensityMatrix:
        probs = measure(self.measurement, state_n).probs
        return cq_apply(self.test.preparation, ClassicalDistribution(probs / probs.sum()))


@dataclass(frozen=True, eq=False)
class ConversionReport:
    n: int
    feasible: bool
    rate: float
    accept_prob: float          # weight the source rho lands on outcome 0
    rho_error: float
    sigma_error: float
    detail: str = ""
