"""Density matrices, tangent directions, channels, measurements, classical
distributions, preparations, and seeded random generators, each validated
once, at construction. A Preparation is one frame F with nonnegative weight
rows W, symbol x preparing F diag(W[x]) F^dag: a reverse test's frame is its
preparation, cq_apply is one product, and a symbol's state is built only
when `states` is read."""

import functools
import math
import numbers
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .config import COMPLETENESS_TOL, TRACE_TOL, dimension_cap
from .errors import DimensionCapError, PSDViolationError, ValidationError
from .linalg import (EigenSystem, check_hermitian, clip_psd_eigenvalues,
                     eigh_hermitian, hermitian_trace_norm, support_cutoff,
                     support_projector)


@dataclass(frozen=True, eq=False)
class DensityMatrix:
    """Positive semidefinite, unit-trace Hermitian matrix.

    Roundoff-negative eigenvalues are clipped at construction; genuinely
    negative spectra are rejected. `eigen` is the eigendecomposition that
    validation computed, with the clipped eigenvalues, so that
    (v * w) @ v^dag is `matrix`; `full_rank` says whether every eigenvalue
    is above the support cutoff, so that the support is the whole space.
    `support_projector` is built from `eigen` when first read, then kept.
    """

    matrix: np.ndarray
    eigen: EigenSystem = field(init=False, repr=False)
    full_rank: bool = field(init=False, repr=False)

    def __post_init__(self):
        m = check_hermitian(self.matrix, what="density matrix")
        tr = float(np.trace(m).real)
        if abs(tr - 1.0) > TRACE_TOL:
            raise ValidationError(f"density matrix trace {tr!r} differs from 1 by {abs(tr - 1.0):.3e}")
        w, v = eigh_hermitian(m)
        if w.min() < 0.0:
            try:
                w = clip_psd_eigenvalues(w, what="density matrix")
            except PSDViolationError as exc:
                raise ValidationError(str(exc)) from exc
            m = (v * w) @ v.conj().T
        object.__setattr__(self, "matrix", m)
        object.__setattr__(self, "eigen", EigenSystem(w, v))
        object.__setattr__(self, "full_rank", bool(w[0] > support_cutoff(w)))

    @functools.cached_property
    def support_projector(self) -> np.ndarray:
        return support_projector(self.eigen)

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]


@dataclass(frozen=True, eq=False)
class TangentDirection:
    """Traceless Hermitian matrix (a derivative of a state family)."""

    matrix: np.ndarray

    def __post_init__(self):
        m = check_hermitian(self.matrix, what="tangent direction")
        tr = abs(complex(np.trace(m)))
        if tr > TRACE_TOL:
            raise ValidationError(f"tangent direction trace magnitude {tr:.3e} exceeds {TRACE_TOL:.0e}")
        object.__setattr__(self, "matrix", m)

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]


@dataclass(frozen=True, eq=False)
class QuantumChannel:
    """CPTP map in Kraus form: sum_k K^dag K = identity on the input space."""

    kraus: tuple
    dim_in: int = field(init=False)
    dim_out: int = field(init=False)

    def __post_init__(self):
        ops = tuple(np.ascontiguousarray(k, dtype=complex) for k in self.kraus)
        if not ops:
            raise ValidationError("channel needs at least one Kraus operator")
        dout, din = ops[0].shape
        if any(k.shape != (dout, din) for k in ops):
            raise ValidationError("all Kraus operators must share one shape")
        comp = sum(k.conj().T @ k for k in ops)
        resid = float(np.abs(comp - np.eye(din)).max())
        if not resid <= COMPLETENESS_TOL:   # NaN-safe
            raise ValidationError(f"channel completeness residual {resid:.3e} exceeds {COMPLETENESS_TOL:.0e}")
        object.__setattr__(self, "kraus", ops)
        object.__setattr__(self, "dim_in", din)
        object.__setattr__(self, "dim_out", dout)


@dataclass(frozen=True, eq=False)
class Measurement:
    """POVM: PSD effects summing to the identity."""

    effects: tuple

    def __post_init__(self):
        effs = tuple(check_hermitian(e, what="effect") for e in self.effects)
        if not effs:
            raise ValidationError("measurement needs at least one effect")
        d = effs[0].shape[0]
        for e in effs:
            clip_psd_eigenvalues(np.linalg.eigvalsh(e), what="effect")
        resid = float(np.abs(sum(effs) - np.eye(d)).max())
        if resid > COMPLETENESS_TOL:
            raise ValidationError(f"measurement completeness residual {resid:.3e} exceeds {COMPLETENESS_TOL:.0e}")
        object.__setattr__(self, "effects", effs)

    @property
    def dim(self) -> int:
        return self.effects[0].shape[0]


@dataclass(frozen=True, eq=False)
class ClassicalDistribution:
    """Nonnegative probability vector summing to one."""

    probs: np.ndarray

    def __post_init__(self):
        p = np.ascontiguousarray(self.probs, dtype=float)
        if p.ndim != 1 or p.size == 0:
            raise ValidationError("distribution must be a nonempty vector")
        if p.min() < -1e-12:
            raise ValidationError(f"negative probability {p.min():.3e}")
        p = np.maximum(p, 0.0)
        s = float(p.sum())
        if not abs(s - 1.0) <= TRACE_TOL:   # NaN-safe
            raise ValidationError(f"probabilities sum to {s!r}, off by {abs(s - 1.0):.3e}")
        object.__setattr__(self, "probs", p)

    def __len__(self) -> int:
        return self.probs.size


@dataclass(frozen=True, eq=False)
class Preparation:
    """Classical-to-quantum map over one frame: symbol x prepares
    F diag(W[x]) F^dag, F the d x m `frame` and W the k x m `weights`.
    Checked in O(d m) work: the shapes agree, W >= 0 and each row's trace
    sum_j W[x, j] |F_j|^2 is within TRACE_TOL of 1."""

    frame: np.ndarray
    weights: np.ndarray

    def __post_init__(self):
        f = np.ascontiguousarray(self.frame, dtype=complex)
        w = np.ascontiguousarray(self.weights, dtype=float)
        if f.ndim != 2 or w.ndim != 2 or w.shape[1] != f.shape[1] or not w.size:
            raise ValidationError(f"preparation frame {f.shape} and weights {w.shape} do not agree: "
                                  f"need a d x m frame and k x m weights, k, m >= 1")
        if not (w >= 0.0).all():   # NaN-safe
            raise ValidationError(f"negative preparation weight {w.min():.3e}")
        traces = w @ np.sum(f.real ** 2 + f.imag ** 2, axis=0)
        off = np.abs(traces - 1.0)
        if not (off <= TRACE_TOL).all():   # NaN-safe
            x = int(np.argmax(~(off <= TRACE_TOL)))
            raise ValidationError(f"preparation row {x} has trace {float(traces[x])!r}, off by {off[x]:.3e}")
        object.__setattr__(self, "frame", f)
        object.__setattr__(self, "weights", w)

    @classmethod
    def of_states(cls, states) -> "Preparation":
        """The preparation of the given states, one symbol each, over the
        frame of their eigenvectors, read off each state's `eigen`."""
        sts = tuple(states)
        if not sts:
            raise ValidationError("preparation needs at least one state")
        d = sts[0].dim
        if any(s.dim != d for s in sts):
            raise ValidationError("preparation states must share one dimension")
        values, vectors = zip(*(s.eigen for s in sts))
        # row x holds state x's eigenvalues on its own d columns
        return cls(np.hstack(vectors), np.eye(len(sts)).repeat(d, axis=1) * np.concatenate(values))

    @property
    def states(self) -> tuple:
        """Each symbol's state, validated, built on each read."""
        return tuple(DensityMatrix((self.frame * w) @ self.frame.conj().T) for w in self.weights)

    @property
    def dim(self) -> int:
        return self.frame.shape[0]

    def __len__(self) -> int:
        return len(self.weights)


# ---------------------------------------------------------------------------
# operations


def apply_channel(ch: QuantumChannel, rho: DensityMatrix) -> DensityMatrix:
    if ch.dim_in != rho.dim:
        raise ValueError(f"channel input dim {ch.dim_in} != state dim {rho.dim}")
    out = sum(k @ rho.matrix @ k.conj().T for k in ch.kraus)
    return DensityMatrix(out)


def apply_channel_tangent(ch: QuantumChannel, x: TangentDirection) -> TangentDirection:
    if ch.dim_in != x.dim:
        raise ValueError(f"channel input dim {ch.dim_in} != tangent dim {x.dim}")
    out = sum(k @ x.matrix @ k.conj().T for k in ch.kraus)
    return TangentDirection(out)


def cq_apply(prep: Preparation, p: ClassicalDistribution) -> DensityMatrix:
    """sum_x p(x) F diag(W[x]) F^dag as the one product F diag(p W) F^dag."""
    if len(prep) != len(p):
        raise ValueError(f"preparation has {len(prep)} symbols, distribution {len(p)}")
    return DensityMatrix((prep.frame * (p.probs @ prep.weights)) @ prep.frame.conj().T)


def measure(m: Measurement, rho: DensityMatrix) -> ClassicalDistribution:
    if m.dim != rho.dim:
        raise ValueError(f"measurement dim {m.dim} != state dim {rho.dim}")
    return ClassicalDistribution(np.array([float(np.trace(e @ rho.matrix).real) for e in m.effects]))


def check_dims(rho: DensityMatrix, sigma: DensityMatrix) -> None:
    if rho.dim != sigma.dim:
        raise ValueError(f"dimension mismatch: {rho.dim} vs {sigma.dim}")


def basis_weights(v: np.ndarray, m: np.ndarray) -> np.ndarray:
    """diag(v^dag m v): the outcome weights tr(|v_k><v_k| m) of the basis
    that the columns of v form, for a state or a tangent matrix m. A stack
    of bases v (k, d, d), or of matrices m (k, d, d), gives one row of
    weights per basis or matrix, each equal bit for bit to the call on that
    basis or matrix alone."""
    return np.sum(v.conj() * (m @ v), axis=-2).real


def check_power(dim: int, n: int) -> None:
    """Raise unless n is an integer (a numpy one too, not a bool), 1 <= n and
    dim^n is within the tensor-power dimension cap."""
    if isinstance(n, bool) or not isinstance(n, numbers.Integral):
        raise ValueError(f"tensor power needs an integer n, got n={n!r}")
    if n < 1:
        raise ValueError(f"tensor power needs n >= 1, got n={n}")
    cap = dimension_cap()
    # for dim >= 2, n > cap.bit_length() gives dim^n >= 2^n > cap without
    # building dim^n, which may have more digits than an int can print
    if dim >= 2 and n > cap.bit_length():
        raise DimensionCapError(f"tensor power {dim}^{n} exceeds the dimension cap {cap}")
    if dim ** n > cap:
        raise DimensionCapError(f"tensor power {dim}^{n} needs dimension {dim ** n}, cap is {cap}")


def kron_power(x: np.ndarray, n: int) -> np.ndarray:
    """The n-fold Kronecker power of a matrix or vector, not validated: the
    entries of np.kron folded from the left, without its per-call overhead."""
    out = x
    for _ in range(n - 1):
        if x.ndim == 1:
            out = np.multiply.outer(out, x).ravel()
        else:
            out = (out[:, None, :, None] * x[None, :, None, :]).reshape(out.shape[0] * x.shape[0], -1)
    return out


def tensor_power(rho: DensityMatrix, n: int) -> DensityMatrix:
    check_power(rho.dim, n)
    return DensityMatrix(kron_power(rho.matrix, n))


class _SymTables(NamedTuple):   # the index tables of sym_powers at n, which depend on n only
    mult: np.ndarray     # (K,) C(n,k) - C(n,k-1), the multiplicity of block k
    level: np.ndarray    # (K, n+1) k + i, the weight of vector i of block k; n in the padding
    coef: np.ndarray     # (T,) the coefficient of each term of the stack's entries
    powers: np.ndarray   # (4, T) flat indices of its powers of v00, v10, v01, v11 in a (4, n+1) table
    entry: np.ndarray    # (T,) the flat index of its entry in the (K, n+1, n+1) stack


@functools.cache
def _sym_tables(n: int) -> _SymTables:
    blocks = n // 2 + 1
    # entry (k, i, j) of Sym^m(v), m = n - 2k, is the sum over p of the terms
    # sqrt(C(m,j)/C(m,i)) C(m-j,p) C(j,i-p) a^(m-j-p) b^p c^(j-i+p) d^(i-p), v = [[a, c], [b, d]]
    k, i, j, p = np.ogrid[:blocks, :n + 1, :n + 1, :n + 1]
    k, i, j, p = np.nonzero((p <= n - 2 * k - j) & (p <= i) & (i - p <= j))   # so i, j <= n - 2k
    m = n - 2 * k
    binom = np.array([[math.comb(a, b) for b in range(n + 1)] for a in range(n + 1)], dtype=float)
    tables = _SymTables(np.diff(binom[n, :blocks], prepend=0.0),
                        np.minimum(np.arange(blocks)[:, None] + np.arange(n + 1), n),
                        binom[m - j, p] * binom[j, i - p] * np.sqrt(binom[m, j]) / np.sqrt(binom[m, i]),
                        np.stack((m - j - p, p, j - i + p, i - p)) + (n + 1) * np.arange(4)[:, None],
                        (k * (n + 1) + i) * (n + 1) + j)
    for a in tables:
        a.flags.writeable = False
    return tables


def sym_powers(v: np.ndarray, n: int) -> np.ndarray:
    """The qubit Schur-Weyl blocks of v^{(x)n} for a 2x2 matrix v, without
    their det(v)^k factors, as one zero-padded (n//2 + 1, n + 1, n + 1)
    stack: block k is Sym^{n-2k}(v) in its top-left corner, in the
    orthonormal basis sqrt(C(m,i)) x^{m-i} y^i of the binary forms of degree
    m, whose vector i has weight k + i (that many second basis vectors among
    the n factors), and exact zeros elsewhere. Its column j holds the
    y-coefficients of (v00 x + v10 y)^{m-j} (v01 x + v11 y)^j, sums of
    binomial multiples of powers of v's entries read off closed-form index
    tables that depend on n only and are built once per n."""
    tables = _sym_tables(n)
    terms = tables.coef * (v.T.reshape(4, 1) ** np.arange(n + 1)).ravel()[tables.powers].prod(axis=0)
    out = np.zeros((len(tables.mult), n + 1, n + 1), dtype=complex)
    np.add.at(out.reshape(-1), tables.entry, terms)
    return out


def power_blocks(rho: DensityMatrix, n: int) -> tuple[np.ndarray, np.ndarray]:
    """rho^{(x)n} compressed by its permutation symmetry, as a (K, D, D)
    stack of blocks and their multiplicities mult: the trace of an operator
    built from such powers by sums, products and spectral projections is
    sum_k mult[k] tr X_k, with X_k built the same way from block k.

    For a qubit the stack is det(rho)^k Sym^{n-2k}(rho), k = 0..n//2, in the
    zero-padded layout of sym_powers, (4, 7, 7) at n = 6, from rho.eigen and
    one batched product, and mult[k] = C(n,k) - C(n,k-1). For d >= 3 it is
    the dense power, not validated again, as one block of multiplicity 1.
    Both obey the tensor-power dimension cap."""
    check_power(rho.dim, n)
    if rho.dim != 2:
        return kron_power(rho.matrix, n)[None], np.ones(1)
    (l0, l1), v = rho.eigen
    tables, sym = _sym_tables(n), sym_powers(v, n)
    # det^k times Sym's eigenvalues; the padding's columns of sym are zero
    blocks = (sym * (l0 ** (n - tables.level) * l1 ** tables.level)[:, None, :]) @ sym.conj().swapaxes(-1, -2)
    return blocks, tables.mult


def power_trace_norms(w: np.ndarray, xs: np.ndarray, n: int, sym: np.ndarray | None = None) -> np.ndarray:
    """|| w^{(x)n} diag(x) w^{(x)n dag} ||_1 for a square w and each row x of
    xs, a weight row over the product basis of kron_power that is a function
    of the type: x at an index depends only on how often each column of w
    occurs among its n factors.

    For a 2x2 w the operator commutes with the permutations of the factors,
    so its trace norm is sum_k mult_k || |det w|^{2k} Sym^{n-2k}(w)
    diag(x_k..x_{n-k}) Sym^{n-2k}(w)^dag ||_1 over the blocks of sym_powers,
    with x_j read at index 2^j - 1 (the last j factors the second): one
    batched product and one eigvalsh call on the zero-padded stack of all
    rows and blocks, whose padding adds only zero eigenvalues; sym, when
    passed, is that stack sym_powers(w, n), so that reads on one w share it.
    Any other w takes the eigvalsh trace norms of the dense Hermitian
    operators."""
    if len(w) != 2:
        b = kron_power(w, n)
        return hermitian_trace_norm((b * xs[:, None, :]) @ b.conj().T)
    tables, sym = _sym_tables(n), sym_powers(w, n) if sym is None else sym
    det2 = abs(w[0, 0] * w[1, 1] - w[0, 1] * w[1, 0]) ** 2
    x = det2 ** np.arange(len(sym))[:, None] * xs[:, (1 << tables.level) - 1]
    return (hermitian_trace_norm((sym * x[..., None, :]) @ sym.conj().swapaxes(-1, -2)) * tables.mult).sum(axis=-1)


# ---------------------------------------------------------------------------
# seeded random generators (all bitwise-deterministic given the seed)


def _rng(seed: int) -> np.random.Generator:
    return np.random.default_rng(seed)


def ginibre(rows: int, cols: int, rng: np.random.Generator) -> np.ndarray:
    return rng.standard_normal((rows, cols)) + 1j * rng.standard_normal((rows, cols))


def random_density(dim: int, rank: int | None = None, seed: int = 0) -> DensityMatrix:
    """GG^dag / tr GG^dag with G a dim x rank complex Ginibre matrix."""
    rank = dim if rank is None else rank
    if not 1 <= rank <= dim:
        raise ValueError(f"rank must be in [1, {dim}], got {rank}")
    g = ginibre(dim, rank, _rng(seed))
    m = g @ g.conj().T
    return DensityMatrix(m / np.trace(m).real)


def random_cptp(dim_in: int, dim_out: int, kraus_count: int = 0, seed: int = 0) -> QuantumChannel:
    """Haar-style CPTP map: orthonormalize a stacked Ginibre block column."""
    if kraus_count < 1:
        kraus_count = dim_in
    if dim_out * kraus_count < dim_in:
        raise ValueError(f"need dim_out * kraus_count >= dim_in for trace preservation, "
                         f"got {dim_out}*{kraus_count} < {dim_in}")
    g = ginibre(dim_out * kraus_count, dim_in, _rng(seed))
    q, _ = np.linalg.qr(g)
    return QuantumChannel(tuple(q[i * dim_out:(i + 1) * dim_out, :] for i in range(kraus_count)))


def random_tangent(dim: int, seed: int = 0) -> TangentDirection:
    g = ginibre(dim, dim, _rng(seed))
    h = (g + g.conj().T) / 2
    h -= np.eye(dim) * (np.trace(h).real / dim)
    return TangentDirection(h)


def random_unitary(dim: int, rng: np.random.Generator) -> np.ndarray:
    """Haar unitary via QR of a Ginibre matrix with phase fixing."""
    q, r = np.linalg.qr(ginibre(dim, dim, rng))
    d = np.diagonal(r)
    return q * (d / np.abs(d))


def random_commuting_pair(dim: int, seed: int = 0) -> tuple[DensityMatrix, DensityMatrix, np.ndarray, np.ndarray]:
    """A commuting full-rank pair plus its shared-basis spectra (p, q)."""
    rng = _rng(seed)
    p = rng.dirichlet(np.ones(dim) * 2.0)
    q = rng.dirichlet(np.ones(dim) * 2.0)
    p = np.maximum(p, 1e-3)
    q = np.maximum(q, 1e-3)
    p, q = p / p.sum(), q / q.sum()
    u = random_unitary(dim, rng)
    rho = DensityMatrix(u @ np.diag(p).astype(complex) @ u.conj().T)
    sigma = DensityMatrix(u @ np.diag(q).astype(complex) @ u.conj().T)
    return rho, sigma, p, q
