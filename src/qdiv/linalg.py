"""Dense complex Hermitian linear algebra used by every other module.

All functions accept and return plain complex ndarrays; the matrix functions
and the support projector also accept an EigenSystem, so a matrix that is
already decomposed is not decomposed again. Eigendecompositions are
deterministic: ascending eigenvalues with each eigenvector's phase fixed so
its largest-magnitude component is real positive.
"""

from typing import Callable, NamedTuple

import numpy as np

from .config import HERMITICITY_RTOL, PSD_CLIP_RTOL, SUPPORT_RTOL
from .errors import EigenSolverError, MatrixDomainError, PSDViolationError


class EigenSystem(NamedTuple):
    eigenvalues: np.ndarray   # real, ascending
    eigenvectors: np.ndarray  # unitary; column j pairs with eigenvalue j


def hermitian_defect(m: np.ndarray) -> float:
    """max |m[j,k] - conj(m[k,j])|."""
    return float(np.abs(m - m.conj().T).max()) if m.size else 0.0


def check_hermitian(m: np.ndarray, what: str = "matrix") -> np.ndarray:
    m = np.ascontiguousarray(m, dtype=complex)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError(f"{what} must be square, got shape {m.shape}")
    if not np.all(np.isfinite(m.view(float))):
        raise ValueError(f"{what} contains non-finite entries")
    scale = max(float(np.abs(m).max()), 1.0)
    defect = hermitian_defect(m)
    if defect > HERMITICITY_RTOL * scale:
        raise ValueError(f"{what} is not Hermitian: defect {defect:.3e} exceeds {HERMITICITY_RTOL:.0e} * {scale:.3e}")
    return (m + m.conj().T) / 2


def _canonical_phases(v: np.ndarray) -> np.ndarray:
    # Rotate each column so its largest-magnitude component is real positive.
    idx = np.abs(v).argmax(axis=0)
    lead = v[idx, np.arange(v.shape[1])]
    phase = np.where(np.abs(lead) > 0, lead / np.abs(np.where(np.abs(lead) > 0, lead, 1.0)), 1.0)
    return v / phase


def eigh(h: np.ndarray) -> EigenSystem:
    """Deterministic Hermitian eigendecomposition, eigenvalues ascending."""
    return eigh_hermitian(check_hermitian(h, what="eigh input"))


def eigh_hermitian(h: np.ndarray) -> EigenSystem:
    """eigh of a matrix that check_hermitian has already returned, without
    checking it again."""
    try:
        w, v = np.linalg.eigh(h)
    except np.linalg.LinAlgError as exc:
        raise EigenSolverError(f"eigh failed to converge on a {h.shape[0]}x{h.shape[0]} matrix") from exc
    return EigenSystem(w, _canonical_phases(v))


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
    return h if isinstance(h, EigenSystem) else eigh(h)


def matrix_function(h: np.ndarray | EigenSystem, fn: Callable[[np.ndarray], np.ndarray],
                    support_only: bool = False) -> np.ndarray:
    """V diag(fn(w)) V^dag; with support_only, fn acts on eigenvalues above
    the support cutoff and the rest map to zero."""
    w, v = _eigen(h)
    if support_only:
        cut = support_cutoff(w)
        keep = w > cut
        fw = np.zeros_like(w)
        if keep.any():
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


def positive_part(h: np.ndarray | EigenSystem) -> np.ndarray:
    return matrix_function(h, lambda x: np.maximum(x, 0.0))


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


def frobenius(m: np.ndarray) -> float:
    return float(np.linalg.norm(m))

