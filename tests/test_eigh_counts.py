"""Exact numpy.linalg.eigh, eigvalsh and svd call counts of the functionals,
once their inputs are built, and their support-projector counts. A validated
DensityMatrix carries its eigendecomposition, so a functional decomposes only
the matrices it makes itself; a count that rises means some matrix is
decomposed again. A stacked call counts each matrix of the stack."""

import numpy as np
import pytest

from qdiv import divergences, hypotest, metrics, reverse
from qdiv.divergences import (dmax, fidelity_logdiv, measured_div_lower,
                              rld_entropy, umegaki)
from qdiv.errors import SupportViolationError
from qdiv.fixtures import CONVERSION_SOURCE, QUBIT_A, QUTRIT
from qdiv.hypotest import (asymptotic_reverse_test, state_conversion,
                           stein_threshold)
from qdiv.linalg import support_projector
from qdiv.metrics import (bkm_metric, integral_divergence, petz_metric,
                          rld_operator, sld_optimal_measurement)
from qdiv.reverse import (optimal_reverse_test, pushforward_reverse_test,
                          refine_reverse_test, reverse_estimation_1param)
from qdiv.states import DensityMatrix, random_cptp, random_tangent

RHO, SIGMA = QUTRIT
X = random_tangent(3, seed=5)
RT = optimal_reverse_test(RHO, SIGMA)
CHANNEL = random_cptp(3, 3, seed=1)
BKM = bkm_metric()
# the gap c that the conversion suite uses for QUBIT_A
C = 0.45 * (umegaki(*CONVERSION_SOURCE).value - umegaki(*QUBIT_A).value)

CASES = {
    "umegaki": (0, lambda: umegaki(RHO, SIGMA)),
    "rld_entropy": (1, lambda: rld_entropy(RHO, SIGMA)),
    "dmax": (1, lambda: dmax(RHO, SIGMA)),
    "fidelity_logdiv": (0, lambda: fidelity_logdiv(RHO, SIGMA)),
    "petz_metric": (0, lambda: petz_metric(BKM, RHO, X)),
    "rld_operator": (0, lambda: rld_operator(RHO, X)),
    "sld_optimal_measurement": (1, lambda: sld_optimal_measurement(RHO, X)),
    # the compressed sigma only; rho's square root comes from rho.eigen and
    # the frame from one SVD. The frame's pure states are built only when the
    # preparation is read
    "optimal_reverse_test": (1, lambda: optimal_reverse_test(RHO, SIGMA)),
    "refine_reverse_test": (0, lambda: refine_reverse_test(RT, splits=3)),
    # the 3 image states only; the frame's pure states are not built
    "pushforward_reverse_test": (3, lambda: pushforward_reverse_test(RT, CHANNEL)),
    # the reverse derivative's eigenbasis; the frame is not re-validated
    "reverse_estimation_1param": (1, lambda: reverse_estimation_1param(RHO, X)),
    # 2 tensor powers, 2 dmax bounds, 32 grid points
    "stein_threshold": (36, lambda: stein_threshold(*QUBIT_A, n=6, eps=0.5)),
    # 2 tensor powers, the capped state's sigma-frame eigenbasis, 1 dmax
    # and 3 states built (capped, complement, reverse-test check)
    "asymptotic_reverse_test": (7, lambda: asymptotic_reverse_test(*QUBIT_A, n=6, rate=0.7)),
    # each tanh-sinh node once: 8 * 2^3 + 1 nodes at the converged level
    "integral_divergence": (65, lambda: integral_divergence(BKM, *QUTRIT)),
    # 4 tensor powers, 1 likelihood-ratio test, the capped state's
    # sigma-frame eigenbasis, 1 dmax and 5 states built (capped, complement,
    # reverse-test check, 2 outputs)
    "state_conversion": (12, lambda: state_conversion(*CONVERSION_SOURCE, *QUBIT_A, 4, C)),
}


# a basis is kept as its unitary, so no rank-1 effect is validated
EIGVALSH_CASES = {
    "sld_optimal_measurement": (0, lambda: sld_optimal_measurement(RHO, X)),
    "measured_div_lower": (0, lambda: measured_div_lower(RHO, SIGMA, 20, 0)),
}

# sigma^-1/2 rho^1/2 on the common support, whose left singular vectors
# give the frame
SVD_CASES = {
    "optimal_reverse_test": (1, lambda: optimal_reverse_test(RHO, SIGMA)),
}


@pytest.fixture
def counts(monkeypatch):
    """Matrices decomposed so far, by numpy.linalg function name."""
    tally = {"eigh": 0, "eigvalsh": 0, "svd": 0}

    def counting(name):
        original = getattr(np.linalg, name)

        def wrapper(a, *args, **kwargs):
            tally[name] += len(a) if np.ndim(a) == 3 else 1
            return original(a, *args, **kwargs)
        return wrapper

    for name in tally:
        monkeypatch.setattr(np.linalg, name, counting(name))
    return tally


@pytest.mark.parametrize("name", list(CASES))
def test_eigh_count(name, counts):
    expected, call = CASES[name]
    call()
    assert counts["eigh"] == expected


@pytest.mark.parametrize("name", list(EIGVALSH_CASES))
def test_eigvalsh_count(name, counts):
    expected, call = EIGVALSH_CASES[name]
    call()
    assert counts["eigvalsh"] == expected


@pytest.mark.parametrize("name", list(SVD_CASES))
def test_svd_count(name, counts):
    expected, call = SVD_CASES[name]
    call()
    assert counts["svd"] == expected


# support projectors built from eigensystems the states already carry: only
# sigma's, since the support checks need containment, not equality
PROJECTOR_CASES = {
    # sigma_n's for the binary test's own check and again inside dmax
    "asymptotic_reverse_test": (2, lambda: asymptotic_reverse_test(*QUBIT_A, n=6, rate=0.7)),
    "dmax": (1, lambda: dmax(RHO, SIGMA)),
}


@pytest.mark.parametrize("name", list(PROJECTOR_CASES))
def test_support_projector_count(name, monkeypatch):
    calls = []

    def counting(h):
        calls.append(h)
        return support_projector(h)

    for module in (divergences, hypotest, metrics, reverse):
        monkeypatch.setattr(module, "support_projector", counting)
    expected, call = PROJECTOR_CASES[name]
    call()
    assert len(calls) == expected


ESCAPING = (DensityMatrix(np.array([[0.6, 0.1], [0.1, 0.4]], dtype=complex)),
            DensityMatrix(np.diag([1.0, 0.0]).astype(complex)))

# argument errors at n = 8, each raised before a 256x256 tensor power is built
ERROR_CASES = {
    "stein_threshold-eps": (ValueError, lambda: stein_threshold(*QUBIT_A, n=8, eps=1.5)),
    "stein_threshold-support": (SupportViolationError, lambda: stein_threshold(*ESCAPING, n=8, eps=0.5)),
    "asymptotic_reverse_test-rate": (ValueError, lambda: asymptotic_reverse_test(*QUBIT_A, n=8, rate=0.0)),
    "asymptotic_reverse_test-q0": (ValueError, lambda: asymptotic_reverse_test(*QUBIT_A, n=8, rate=1e-14)),
}


@pytest.mark.parametrize("name", list(ERROR_CASES))
def test_error_path_decomposes_no_power(name, monkeypatch):
    dims = []
    original = np.linalg.eigh

    def recording(a, *args, **kwargs):
        dims.append(np.shape(a)[-1])
        return original(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigh", recording)
    error, call = ERROR_CASES[name]
    with pytest.raises(error):
        call()
    assert max(dims, default=0) <= 2
