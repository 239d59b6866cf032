"""Tolerance table, dimension cap, and deterministic seed derivation.

The library's own validation tolerances are the named constants below; they
are fixed. DEFAULT_TOLERANCES holds the slacks the verification suites read
through `SuiteConfig.tol`, and only those can be overridden from a
verification config.
"""

import os

# Relative eigenvalue cutoff: lambda counts as zero iff lambda <= RTOL * lambda_max.
SUPPORT_RTOL = 1e-12

# Eigenvalues in (-PSD_CLIP_RTOL * lambda_max, 0) are clipped to 0; more
# negative values are an error.
PSD_CLIP_RTOL = 1e-10

HERMITICITY_RTOL = 1e-12

# Fixed validation tolerances: unit trace or sum, Kraus and POVM completeness,
# support and off-support residuals, the tanh-sinh stopping step, and the
# slack added to the smoothing distance bound.
TRACE_TOL = 1e-10
COMPLETENESS_TOL = 1e-9
SUPPORT_TOL = 1e-10
OPERATOR_RESIDUAL_TOL = 1e-10
QUADRATURE_STEP_TOL = 1e-8
DATTA1_SLACK = 1e-6

_DEFAULT_DIM_CAP = 4096

DEFAULT_TOLERANCES = {
    "reconstruction": 1e-9,
    "monotonicity_slack": 1e-8,
    "sandwich_slack": 1e-8,
    "joint_convexity_slack": 1e-8,
    "reverse_test_match": 1e-8,
    "reverse_estimation_match": 1e-8,
    "sld_achievability": 1e-8,
    "metric_order_slack": 1e-10,
    "normalization_match": 1e-10,
    "integral_identity": 1e-6,
    "holevo_bound_slack": 1e-8,
    "imj_identity": 1e-9,
    "additivity": 1e-9,
    "sigma_exact": 1e-9,
    "type2_slack": 1e-9,
    "stein_grid_width": 1e-3,
    "converse_witness_slack": 1e-9,
}


def dimension_cap() -> int:
    """Configured Hilbert-space dimension cap (QDIV_DIM_CAP overrides)."""
    raw = os.environ.get("QDIV_DIM_CAP")
    if raw is None:
        return _DEFAULT_DIM_CAP
    cap = int(raw)
    if cap < 2:
        raise ValueError(f"QDIV_DIM_CAP must be >= 2, got {cap}")
    return cap


_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15


def derive_seed(master: int, index: int) -> int:
    """64-bit splitmix-style hash of (master seed, trial index).

    Gives independent, reproducible per-trial streams without relying on
    stateful generator order.
    """
    z = (int(master) + (int(index) + 1) * _GOLDEN) & _MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return (z ^ (z >> 31)) & _MASK64
