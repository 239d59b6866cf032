"""Exact numpy.linalg.eigh call counts of the functionals, once their inputs
are built. A validated DensityMatrix carries its eigendecomposition, so a
functional decomposes only the matrices it makes itself; a count that rises
means some matrix is decomposed again."""

import numpy as np
import pytest

from qdiv.divergences import dmax, fidelity_logdiv, rld_entropy, umegaki
from qdiv.fixtures import QUBIT_A, QUTRIT
from qdiv.hypotest import asymptotic_reverse_test, stein_threshold
from qdiv.metrics import (bkm_metric, petz_metric, rld_operator,
                          sld_optimal_measurement)
from qdiv.reverse import optimal_reverse_test, reverse_estimation_1param
from qdiv.states import random_tangent

RHO, SIGMA = QUTRIT
X = random_tangent(3, seed=5)
BKM = bkm_metric()

CASES = {
    "umegaki": (0, lambda: umegaki(RHO, SIGMA)),
    "rld_entropy": (1, lambda: rld_entropy(RHO, SIGMA)),
    "dmax": (1, lambda: dmax(RHO, SIGMA)),
    "fidelity_logdiv": (0, lambda: fidelity_logdiv(RHO, SIGMA)),
    "petz_metric": (0, lambda: petz_metric(BKM, RHO, X)),
    "rld_operator": (0, lambda: rld_operator(RHO, X)),
    "sld_optimal_measurement": (1, lambda: sld_optimal_measurement(RHO, X)),
    # 2 square roots and 1 polar eigenbasis, then 2 reconstructions and 3
    # preparation states validated
    "optimal_reverse_test": (8, lambda: optimal_reverse_test(RHO, SIGMA)),
    "reverse_estimation_1param": (4, lambda: reverse_estimation_1param(RHO, X)),
    # 2 tensor powers, 2 dmax bounds, 32 grid points
    "stein_threshold": (36, lambda: stein_threshold(*QUBIT_A, n=6, eps=0.5)),
    "asymptotic_reverse_test": (11, lambda: asymptotic_reverse_test(*QUBIT_A, n=6, rate=0.7)),
}


@pytest.mark.parametrize("name", list(CASES))
def test_eigh_count(name, monkeypatch):
    expected, call = CASES[name]
    calls = []
    original = np.linalg.eigh

    def counting(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigh", counting)
    call()
    assert len(calls) == expected
