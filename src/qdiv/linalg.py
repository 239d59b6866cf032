"""Dense complex Hermitian linear algebra used by every other module.

All functions accept and return plain complex ndarrays; the matrix functions
and the support projector also accept an EigenSystem, so a matrix that is
already decomposed is not decomposed again. Eigendecompositions are
deterministic, with ascending eigenvalues. `eigh` and `eigh_hermitian` (so
`DensityMatrix.eigen`) fix each eigenvector's phase, its largest-magnitude
component real positive. `eigh_unphased` keeps LAPACK's phases, for reads that
no phase changes (|v|^2, projectors, V f(w) V^dag) such as the matrix
functions of a raw matrix. `eigh` and `eigh_unphased` check their input.
"""

from typing import Callable, NamedTuple

import numpy as np

from .config import HERMITICITY_RTOL, PSD_CLIP_RTOL, SUPPORT_RTOL
from .errors import EigenSolverError, MatrixDomainError, PSDViolationError


# Bytes of the largest stacked temporary, STACK_BYTES // (16 d^2) complex
# d x d matrices, so memory does not grow with the stack. Kept under glibc's
# 128 KiB mmap threshold: larger ones are faulted in afresh on every call.
STACK_BYTES = 120 * 1024


class EigenSystem(NamedTuple):
    eigenvalues: np.ndarray   # real, ascending
    eigenvectors: np.ndarray  # unitary; column j pairs with eigenvalue j


def check_hermitian(m: np.ndarray, what: str = "matrix") -> np.ndarray:
    """m, or each matrix of a stack m (..., d, d), checked finite and Hermitian
    up to HERMITICITY_RTOL times its own largest entry (at least 1), and
    returned hermitized."""
    m = np.ascontiguousarray(m, dtype=complex)
    if m.ndim < 2 or m.shape[-1] != m.shape[-2] or m.shape[-1] == 0:
        raise ValueError(f"{what} must be square and nonempty, got shape {m.shape}")
    mh = m.conj().swapaxes(-1, -2)
    # max |m[j,k] - conj(m[k,j])| against max(max |m[j,k]|, 1), per matrix;
    # a NaN or infinite entry fails the test, and only then is m scanned
    scale = np.abs(m).max(axis=(-2, -1), initial=1.0)
    with np.errstate(invalid="ignore"):
        defect = np.abs(m - mh).max(axis=(-2, -1), initial=0.0)
    ok = (defect <= HERMITICITY_RTOL * scale) & (scale < np.inf)
    if not ok.all():
        if not np.all(np.isfinite(m.view(float))):
            raise ValueError(f"{what} contains non-finite entries")
        i = int(np.argmin(ok))
        where = f" (matrix {i} of the stack)" if m.ndim > 2 else ""
        raise ValueError(f"{what} is not Hermitian{where}: defect {np.ravel(defect)[i]:.3e} "
                         f"exceeds {HERMITICITY_RTOL:.0e} * {np.ravel(scale)[i]:.3e}")
    return (m + mh) / 2


def canonical_phases(v: np.ndarray) -> np.ndarray:
    """Rotate each column of v, or of each matrix of a stack v (k, d, m), so
    its largest-magnitude component is real positive. The columns have unit
    norm (an isometry's), so that component is not zero."""
    idx = np.abs(v).argmax(axis=-2)
    cols = np.arange(v.shape[-1])
    lead = v[idx, cols] if v.ndim == 2 else v[np.arange(len(v))[:, None], idx, cols]
    return v / (lead / np.abs(lead))[..., None, :]


def eigh(h: np.ndarray) -> EigenSystem:
    """Deterministic Hermitian eigendecomposition, eigenvalues ascending and
    phases canonical; a stack (..., d, d) is decomposed in one
    numpy.linalg.eigh call, each matrix bit for bit as on its own."""
    w, v = eigh_unphased(h)
    return EigenSystem(w, canonical_phases(v))


def eigh_hermitian(h: np.ndarray) -> EigenSystem:
    """eigh of a matrix that check_hermitian has already returned, without
    checking it again."""
    w, v = _lapack_eigh(h)
    return EigenSystem(w, canonical_phases(v))


def eigh_unphased(h: np.ndarray) -> EigenSystem:
    """eigh, checked the same, with LAPACK's eigenvector phases: for reads
    that no phase changes, such as |v|^2, projectors and V f(w) V^dag."""
    return _lapack_eigh(check_hermitian(h, what="eigh input"))


def _lapack_eigh(h: np.ndarray) -> EigenSystem:
    try:
        return EigenSystem(*np.linalg.eigh(h))
    except np.linalg.LinAlgError as exc:
        raise EigenSolverError(f"eigh failed to converge on a {h.shape[-1]}x{h.shape[-1]} matrix") from exc


def support_cutoff(eigenvalues: np.ndarray) -> float:
    top = float(eigenvalues.max(initial=0.0))
    return SUPPORT_RTOL * top if top > 0 else 0.0


def clip_psd_eigenvalues(w: np.ndarray, what: str = "matrix") -> np.ndarray:
    """Zero out roundoff-negative eigenvalues; reject genuine violations."""
    top = float(w.max(initial=0.0))
    floor = -PSD_CLIP_RTOL * max(top, 1e-300)
    wmin = float(w.min(initial=0.0))
    if wmin < floor:
        raise PSDViolationError(f"{what} has eigenvalue {wmin:.3e} below the clip floor {floor:.3e}")
    return np.maximum(w, 0.0)


def _eigen(h: np.ndarray | EigenSystem) -> EigenSystem:
    return h if isinstance(h, EigenSystem) else eigh_unphased(h)


def matrix_function(h: np.ndarray | EigenSystem, fn: Callable[[np.ndarray], np.ndarray],
                    support_only: bool = False) -> np.ndarray:
    """V diag(fn(w)) V^dag; with support_only, fn acts on eigenvalues above
    the support cutoff and the rest map to zero."""
    w, v = _eigen(h)
    if support_only:
        cut = support_cutoff(w)
        # eigenvalues ascend: when the lowest is kept, fn takes w unmasked
        keep = w > cut if w[0] <= cut else slice(None)
        fw = np.zeros_like(w)
        if w[-1] > cut:
            vals = fn(w[keep])
            if not np.all(np.isfinite(vals)):
                bad = w[keep][~np.isfinite(np.atleast_1d(vals))][0]
                raise MatrixDomainError(f"function not finite at supported eigenvalue {bad!r}")
            fw[keep] = vals
    else:
        with np.errstate(all="ignore"):
            fw = np.asarray(fn(w), dtype=float)
        if not np.all(np.isfinite(fw)):
            bad = w[~np.isfinite(fw)][0]
            raise MatrixDomainError(f"function not finite at eigenvalue {bad!r}")
    return (v * fw) @ v.conj().T


def sqrtm_psd(h: np.ndarray | EigenSystem) -> np.ndarray:
    return matrix_function(h, np.sqrt, support_only=True)


def pinv_psd(h: np.ndarray | EigenSystem) -> np.ndarray:
    """Moore-Penrose inverse of a PSD matrix via its support."""
    return matrix_function(h, lambda x: 1.0 / x, support_only=True)


def logm_support(h: np.ndarray | EigenSystem) -> np.ndarray:
    """Logarithm on the support of a PSD matrix, zero on the kernel."""
    return matrix_function(h, np.log, support_only=True)


def support_projector(h: np.ndarray | EigenSystem) -> np.ndarray:
    w, v = _eigen(h)
    keep = w > support_cutoff(w)
    cols = v[:, keep]
    return cols @ cols.conj().T


def off_support_residual(proj: np.ndarray, m: np.ndarray) -> float:
    """Frobenius norm of (I - P) M (I - P): the part of m outside the range
    of the projector P."""
    comp = np.eye(proj.shape[0]) - proj
    return frobenius(comp @ m @ comp)


def trace_norm(m: np.ndarray) -> float:
    """Sum of singular values."""
    m = np.asarray(m, dtype=complex)
    return float(np.linalg.svd(m, compute_uv=False).sum())


def hermitian_trace_norm(h: np.ndarray) -> np.ndarray:
    """The trace norm of a Hermitian matrix, or of each matrix of a stack
    (..., d, d), as its sum of |eigenvalues|: one eigvalsh, which reads the
    lower triangle, instead of an SVD."""
    return np.abs(np.linalg.eigvalsh(h)).sum(axis=-1)


def frobenius(m: np.ndarray) -> float:
    return float(np.linalg.norm(m))

