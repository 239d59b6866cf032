"""Density matrices, tangent directions, channels, measurements, classical
distributions, preparations, and seeded random generators."""

from dataclasses import dataclass, field

import numpy as np

from .config import DEFAULT_TOLERANCES, dimension_cap
from .errors import DimensionCapError, PSDViolationError, ValidationError
from .linalg import (EigenSystem, check_hermitian, clip_psd_eigenvalues,
                     eigh_hermitian)

_TRACE_TOL = DEFAULT_TOLERANCES["trace"]
_COMPLETE_TOL = DEFAULT_TOLERANCES["completeness"]


@dataclass(frozen=True, eq=False)
class DensityMatrix:
    """Positive semidefinite, unit-trace Hermitian matrix.

    Roundoff-negative eigenvalues are clipped at construction; genuinely
    negative spectra are rejected. `eigen` is the eigendecomposition that
    validation computed, with the clipped eigenvalues, so that
    (v * w) @ v^dag is `matrix`.
    """

    matrix: np.ndarray
    eigen: EigenSystem = field(init=False, repr=False)

    def __post_init__(self):
        m = check_hermitian(self.matrix, what="density matrix")
        tr = float(np.trace(m).real)
        if abs(tr - 1.0) > _TRACE_TOL:
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
        if tr > _TRACE_TOL:
            raise ValidationError(f"tangent direction trace magnitude {tr:.3e} exceeds {_TRACE_TOL:.0e}")
        object.__setattr__(self, "matrix", m)

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]


@dataclass(frozen=True, eq=False)
class QuantumChannel:
    """CPTP map in Kraus form: sum_k K^dag K = identity on the input space."""

    kraus: tuple
    dim_in: int = field(default=0)
    dim_out: int = field(default=0)

    def __post_init__(self):
        ops = tuple(np.ascontiguousarray(k, dtype=complex) for k in self.kraus)
        if not ops:
            raise ValidationError("channel needs at least one Kraus operator")
        dout, din = ops[0].shape
        if any(k.shape != (dout, din) for k in ops):
            raise ValidationError("all Kraus operators must share one shape")
        comp = sum(k.conj().T @ k for k in ops)
        resid = float(np.abs(comp - np.eye(din)).max())
        if resid > _COMPLETE_TOL:
            raise ValidationError(f"channel completeness residual {resid:.3e} exceeds {_COMPLETE_TOL:.0e}")
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
        if resid > _COMPLETE_TOL:
            raise ValidationError(f"measurement completeness residual {resid:.3e} exceeds {_COMPLETE_TOL:.0e}")
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
        if abs(s - 1.0) > _TRACE_TOL:
            raise ValidationError(f"probabilities sum to {s!r}, off by {abs(s - 1.0):.3e}")
        object.__setattr__(self, "probs", p)

    def __len__(self) -> int:
        return self.probs.size


@dataclass(frozen=True, eq=False)
class Preparation:
    """Classical-to-quantum map: one state per classical symbol."""

    states: tuple

    def __post_init__(self):
        sts = tuple(self.states)
        if not sts:
            raise ValidationError("preparation needs at least one state")
        d = sts[0].dim
        if any(s.dim != d for s in sts):
            raise ValidationError("preparation states must share one dimension")
        object.__setattr__(self, "states", sts)

    @property
    def dim(self) -> int:
        return self.states[0].dim

    def __len__(self) -> int:
        return len(self.states)


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
    if len(prep) != len(p):
        raise ValueError(f"preparation has {len(prep)} symbols, distribution {len(p)}")
    out = sum(pi * s.matrix for pi, s in zip(p.probs, prep.states))
    return DensityMatrix(out)


def measure(m: Measurement, rho: DensityMatrix) -> ClassicalDistribution:
    if m.dim != rho.dim:
        raise ValueError(f"measurement dim {m.dim} != state dim {rho.dim}")
    return ClassicalDistribution(np.array([float(np.trace(e @ rho.matrix).real) for e in m.effects]))


def basis_weights(v: np.ndarray, m: np.ndarray) -> np.ndarray:
    """diag(v^dag m v): the outcome weights tr(|v_k><v_k| m) of the basis
    that the columns of v form, for a state or a tangent matrix m."""
    return np.sum(v.conj() * (m @ v), axis=0).real


def tensor_power(rho: DensityMatrix, n: int) -> DensityMatrix:
    if n < 1:
        raise ValueError("tensor power needs n >= 1")
    cap = dimension_cap()
    if rho.dim ** n > cap:
        raise DimensionCapError(f"tensor power needs dimension {rho.dim ** n}, cap is {cap}")
    out = rho.matrix
    for _ in range(n - 1):
        out = np.kron(out, rho.matrix)
    return DensityMatrix(out)


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
