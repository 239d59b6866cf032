"""Exact numpy.linalg.eigh and eigvalsh call counts of the functionals, once
their inputs are built. A validated DensityMatrix carries its
eigendecomposition, so a functional decomposes only the matrices it makes
itself; a count that rises means some matrix is decomposed again. A stacked
call counts each matrix of the stack."""

import numpy as np
import pytest

from qdiv.divergences import (dmax, fidelity_logdiv, measured_div_lower,
                              rld_entropy, umegaki)
from qdiv.fixtures import CONVERSION_SOURCE, QUBIT_A, QUTRIT
from qdiv.hypotest import (asymptotic_reverse_test, state_conversion,
                           stein_threshold)
from qdiv.metrics import (bkm_metric, integral_divergence, petz_metric,
                          rld_operator, sld_optimal_measurement)
from qdiv.reverse import (optimal_reverse_test, refine_reverse_test,
                          reverse_estimation_1param)
from qdiv.states import random_tangent

RHO, SIGMA = QUTRIT
X = random_tangent(3, seed=5)
RT = optimal_reverse_test(RHO, SIGMA)
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
    # 2 square roots and 1 polar eigenbasis; the frame's pure states are
    # built only when the preparation is read
    "optimal_reverse_test": (3, lambda: optimal_reverse_test(RHO, SIGMA)),
    "refine_reverse_test": (0, lambda: refine_reverse_test(RT, splits=3)),
    # the reverse derivative's eigenbasis; the frame is not re-validated
    "reverse_estimation_1param": (1, lambda: reverse_estimation_1param(RHO, X)),
    # 2 tensor powers, 2 dmax bounds, 32 grid points
    "stein_threshold": (36, lambda: stein_threshold(*QUBIT_A, n=6, eps=0.5)),
    "asymptotic_reverse_test": (11, lambda: asymptotic_reverse_test(*QUBIT_A, n=6, rate=0.7)),
    # each tanh-sinh node once: 8 * 2^3 + 1 nodes at the converged level
    "integral_divergence": (65, lambda: integral_divergence(BKM, *QUTRIT)),
    # 4 tensor powers, 2 likelihood-ratio tests, 1 positive part, 1 dmax
    # and 5 states built (smoothed, complement, reverse-test check, 2 outputs)
    "state_conversion": (13, lambda: state_conversion(*CONVERSION_SOURCE, *QUBIT_A, 4, C)),
}


# a basis is kept as its unitary, so no rank-1 effect is validated
EIGVALSH_CASES = {
    "sld_optimal_measurement": (0, lambda: sld_optimal_measurement(RHO, X)),
    "measured_div_lower": (0, lambda: measured_div_lower(RHO, SIGMA, 20, 0)),
}


@pytest.fixture
def counts(monkeypatch):
    """Matrices decomposed so far, by numpy.linalg function name."""
    tally = {"eigh": 0, "eigvalsh": 0}

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
