"""Exact numpy.linalg.eigh, eigvalsh and svd counts of the functionals, once
their inputs are built, and their support-projector counts. A validated
DensityMatrix carries its eigendecomposition, so a functional decomposes only
the matrices it makes itself; a matrix count that rises means some matrix is
decomposed again. A stacked call counts each matrix of the stack, of any
number of stack dimensions, and the eigh and eigvalsh pins also count the
calls: a call count that rises means a stack was split."""

import collections

import numpy as np
import pytest

from qdiv import divergences, states
from qdiv.divergences import (dmax, fidelity_logdiv, measured_div_lower,
                              rld_entropy, umegaki)
from qdiv.errors import SupportViolationError
from qdiv.fixtures import CONVERSION_SOURCE, QUBIT_A, QUTRIT
from qdiv.hypotest import (CopyPair, asymptotic_reverse_test, curve_points,
                           state_conversion, stein_threshold)
from qdiv.linalg import STACK_BYTES, support_projector
from qdiv.metrics import (alpha_metric, bkm_metric, integral_divergence,
                          integral_divergences, petz_metric, rld_metric,
                          rld_operator, sld_metric, sld_optimal_measurement,
                          wy_metric)
from qdiv.reverse import (optimal_reverse_test, pushforward_reverse_test,
                          refine_reverse_test, reverse_estimation_1param)
from qdiv.states import (DensityMatrix, cq_apply, random_cptp,
                         random_density, random_tangent)

RHO, SIGMA = QUTRIT
X = random_tangent(3, seed=5)
RT = optimal_reverse_test(RHO, SIGMA)
CHANNEL = random_cptp(3, 3, seed=1)
BKM = bkm_metric()
# the gap c that the conversion suite uses for QUBIT_A
C = 0.45 * (umegaki(*CONVERSION_SOURCE).value - umegaki(*QUBIT_A).value)
# the smoothing suite's mid rate (D + dmax) / 2 for QUBIT_A
MID = (umegaki(*QUBIT_A).value + dmax(*QUBIT_A)) / 2

FIVE_SPECS = (sld_metric(), wy_metric(), BKM, rld_metric(), alpha_metric(2.0))

# (matrices, calls) of numpy.linalg.eigh
CASES = {
    "umegaki": (0, 0, lambda: umegaki(RHO, SIGMA)),
    "rld_entropy": (1, 1, lambda: rld_entropy(RHO, SIGMA)),
    # the ratio spectrum is one eigvalsh: the eigh whose vectors were
    # thrown away is gone (1, 1 before)
    "dmax": (0, 0, lambda: dmax(RHO, SIGMA)),
    "fidelity_logdiv": (0, 0, lambda: fidelity_logdiv(RHO, SIGMA)),
    "petz_metric": (0, 0, lambda: petz_metric(BKM, RHO, X)),
    "rld_operator": (0, 0, lambda: rld_operator(RHO, X)),
    "sld_optimal_measurement": (1, 1, lambda: sld_optimal_measurement(RHO, X)),
    # the compressed sigma only; rho's square root comes from rho.eigen and
    # the frame from one SVD. The frame is the preparation, so no pure state
    # is built
    "optimal_reverse_test": (1, 1, lambda: optimal_reverse_test(RHO, SIGMA)),
    "refine_reverse_test": (0, 0, lambda: refine_reverse_test(RT, splits=3)),
    # the Kraus images of the frame are the image preparation's frame: no
    # image state is built (3 before, one per symbol)
    "pushforward_reverse_test": (0, 0, lambda: pushforward_reverse_test(RT, CHANNEL)),
    # the validated output only: the preparation is the frame with unit
    # weights, checked without a decomposition, and cq_apply is one product
    # (1 + 3 before, the 3 pure states validated on each read)
    "cq_apply": (1, 1, lambda: cq_apply(RT.preparation, RT.q)),
    # the reverse derivative's eigenbasis; the frame is not re-validated
    "reverse_estimation_1param": (1, 1, lambda: reverse_estimation_1param(RHO, X)),
    # one stacked eigh of 16x16 qubit Schur-Weyl blocks per grid level, of
    # the rates whose acceptance is open: the first level's 17 rates over
    # [-1.755, 1.418] step by 0.198, so 9 lie below ln(1/2)/6 = -0.116 and 3
    # at or above dmax = 0.918, leaving 5; then 15 + 15, the 2 ends of a
    # refined level being known and every refined rate open. A level is
    # decomposed whole, though a rate-at-a-time scan would stop at its first
    # hit; the blocks come from rho.eigen and sigma.eigen, and the 2 dmax
    # bounds are eigvalsh calls (47 = 17 + 15 + 15 before, 49 before that)
    "stein_threshold": (35, 3, lambda: stein_threshold(*QUBIT_A, n=6, eps=0.5)),
    # grid points of 81x81, one per call since two 81x81 matrices pass
    # STACK_BYTES, the scan stopping at each level's first hit: the first
    # level reads 10 rates over [-1.120, 1.283] by 0.150, of which 7 lie below
    # ln(1/2)/4 = -0.173, so 3 are decomposed; the refined levels read 13 and
    # 10, all open. The dense powers are built by kron and not validated
    # again (33 = 10 + 13 + 10 before, 35 before that)
    "stein_threshold-qutrit": (26, 26, lambda: stein_threshold(*QUTRIT, n=4, eps=0.5)),
    # all 13 rates in one stacked eigh on the qubit Schur-Weyl blocks
    "curve_points": (13, 1, lambda: curve_points(*QUBIT_A, 6, np.linspace(0.2, 0.8, 13))),
    # the pinching's 5 type classes in sigma's eigenbasis (blocks of 1, 4, 6,
    # 4, 1), one call each. The smoothed state is validated only when read
    # (6, 6 before), and sigma^(x 4) is neither built nor decomposed
    "smooth_state": (5, 5, lambda: CopyPair(*QUBIT_A, 4).smooth(MID)),
    # the one-copy frame's compressed sigma only; the powers are krons of the
    # frame, the ratios and the states, the certificate is read off the
    # capped ratios, and no 64x64 state is validated until the preparation
    # is read
    "asymptotic_reverse_test": (1, 1, lambda: asymptotic_reverse_test(*QUBIT_A, n=6, rate=0.7)),
    # the eigenbases of rho - sigma and rho + sqrt(2) sigma for the starts,
    # then one eigh of -iD per ascent direction D: 8 directions for the 16
    # trials after the 4 starts. The random search it replaced made (14, 3):
    # one Ginibre draw per local evaluation, in one stack
    "measured_div_lower": (10, 10, lambda: measured_div_lower(RHO, SIGMA, 20, 0)),
    # the 23 interior Clenshaw-Curtis points of N = 24 in one stacked eigh,
    # which the rules of N = 6, 12 and 24 share; s = 0 reads sigma's
    # eigensystem and s = 1 weighs zero. Tanh-sinh took 65 nodes in 4 calls
    "integral_divergence": (23, 1, lambda: integral_divergence(BKM, *QUTRIT)),
    # the same points once for all five specs, which all converge there;
    # one call per spec would decompose them five times (65, 4 before)
    "integral_divergences": (23, 1, lambda: integral_divergences(FIVE_SPECS, *QUTRIT)),
    # the same 23 points; tanh-sinh took 65 nodes, 7 of which rounded to
    # sigma bit for bit and took its eigensystem (58, 4 before)
    "integral_divergences-qubit": (23, 1, lambda: integral_divergences(FIVE_SPECS, *QUBIT_A)),
    # 1 likelihood-ratio test on the 9x9 source blocks and the target's
    # one-copy frame. The output on rho0^(x n) is read off the reverse test's
    # frame, not validated; the source's dense powers and measurement are
    # built only when the channel is first applied
    "state_conversion": (2, 2, lambda: state_conversion(*CONVERSION_SOURCE, *QUBIT_A, 4, C)),
}


# (matrices, calls) of numpy.linalg.eigvalsh
EIGVALSH_CASES = {
    # a basis is kept as its unitary, so no rank-1 effect is validated
    "sld_optimal_measurement": (0, 0, lambda: sld_optimal_measurement(RHO, X)),
    "measured_div_lower": (0, 0, lambda: measured_div_lower(RHO, SIGMA, 20, 0)),
    # the top of the ratio spectrum: one eigvalsh of sigma^-1/2 rho sigma^-1/2
    "dmax": (1, 1, lambda: dmax(RHO, SIGMA)),
    # the ratio spectrum, whose ends place the mixture path's singular points
    "integral_divergences": (1, 1, lambda: integral_divergences(FIVE_SPECS, *QUTRIT)),
    # no error is computed until it is read
    "asymptotic_reverse_test": (0, 0, lambda: asymptotic_reverse_test(*QUBIT_A, n=6, rate=0.7)),
    # the 4 Schur-Weyl blocks of the qubit frame's 6th power (sizes 7, 5, 3,
    # 1), zero-padded to 7x7, in one call per error read, rho's and sigma's:
    # 8 matrices in 2 calls, where there was one call per block (8 calls)
    # and before that one SVD of a 64x64 difference per error
    "asymptotic_reverse_test-errors": (8, 2, lambda: _errors(asymptotic_reverse_test(*QUBIT_A, n=6, rate=0.7))),
    # the reverse test's sigma error and the output error on rho0^(x 4): the
    # 3 blocks (sizes 5, 3, 1) of both rows in one call, where there was one
    # call per block (3 calls) and before that one 16x16 SVD per error
    "state_conversion": (6, 1, lambda: state_conversion(*CONVERSION_SOURCE, *QUBIT_A, 4, C)),
    # the 16x16 trace distance and the certificate's q^(x 4)-scaled state;
    # the witness check on sigma^(x 4) is gone (1 before)
    "smooth_state": (2, 2, lambda: CopyPair(*QUBIT_A, 4).smooth(MID)),
}

# sigma^-1/2 rho^1/2 on the common support, whose left singular vectors
# give the frame
SVD_CASES = {
    "optimal_reverse_test": (1, lambda: optimal_reverse_test(RHO, SIGMA)),
    # the same one-copy SVD for the frame only; the errors are computed when
    # they are read
    "asymptotic_reverse_test": (1, lambda: asymptotic_reverse_test(*QUBIT_A, n=6, rate=0.7)),
    # the frame only: both errors are read off the blocks by eigvalsh,
    # where each was a dense SVD (3 before)
    "asymptotic_reverse_test-errors": (1, lambda: _errors(asymptotic_reverse_test(*QUBIT_A, n=6, rate=0.7))),
    # the target's one-copy frame only: the sigma error and the output error
    # are read off the blocks (3 before)
    "state_conversion": (1, lambda: state_conversion(*CONVERSION_SOURCE, *QUBIT_A, 4, C)),
    # the trace distance is an eigvalsh, where it was a 16x16 SVD (1 before)
    "smooth_state": (0, lambda: CopyPair(*QUBIT_A, 4).smooth(MID)),
}


def _errors(brt):
    return brt.rho_error, brt.sigma_error


@pytest.fixture
def counts(monkeypatch):
    """Matrices decomposed so far, by numpy.linalg function name, and the
    calls that decomposed them under "<name> calls"."""
    tally = {"eigh": 0, "eigvalsh": 0, "svd": 0}

    def counting(name):
        original = getattr(np.linalg, name)

        def wrapper(a, *args, **kwargs):
            tally[name] += int(np.prod(np.shape(a)[:-2]))
            tally[f"{name} calls"] += 1
            return original(a, *args, **kwargs)
        return wrapper

    for name in list(tally):
        tally[f"{name} calls"] = 0
        monkeypatch.setattr(np.linalg, name, counting(name))
    return tally


@pytest.mark.parametrize("name", list(CASES))
def test_eigh_count(name, counts):
    matrices, calls, call = CASES[name]
    call()
    assert (counts["eigh"], counts["eigh calls"]) == (matrices, calls)


@pytest.mark.parametrize("name", list(EIGVALSH_CASES))
def test_eigvalsh_count(name, counts):
    matrices, calls, call = EIGVALSH_CASES[name]
    call()
    assert (counts["eigvalsh"], counts["eigvalsh calls"]) == (matrices, calls)


@pytest.mark.parametrize("name", list(SVD_CASES))
def test_svd_count(name, counts):
    expected, call = SVD_CASES[name]
    call()
    assert counts["svd"] == expected


def test_measured_div_lower_lapack_calls(monkeypatch):
    # the two start eighs, then one eigh per ascent direction, each followed
    # by its line search's trials, and no QR, since nothing is drawn. The
    # random search it replaced made 3 eigh calls and one stacked QR of its
    # 4 Haar-random starts
    events = []

    def logged(name, original):
        def wrapper(*args, **kwargs):
            events.append(name)
            return original(*args, **kwargs)
        return wrapper

    for name in ("eigh", "qr"):
        monkeypatch.setattr(np.linalg, name, logged(name, getattr(np.linalg, name)))
    monkeypatch.setattr(divergences, "_kl_gradient", logged("trial", divergences._kl_gradient))
    measured_div_lower(RHO, SIGMA, 20, 0)
    assert "qr" not in events
    # the gradient at the best start comes after the two start eighs
    assert events[:3] == ["eigh", "eigh", "trial"]
    ascent = "".join(name[0] for name in events[3:])
    assert ascent.startswith("e") and "ee" not in ascent and ascent.count("t") == 20 - 4


# support projectors, counted per state: each state builds its own once,
# when first read, and keeps it. Only sigma's is read for containment; rho's
# too where equal supports are required; and none when sigma is full rank,
# since it then supports every state. Each case makes its states afresh, so
# no projector is kept from an earlier test
def _rank2_pair():
    sigma = random_density(3, rank=2, seed=61)
    proj = support_projector(sigma.eigen)
    return DensityMatrix(proj @ RHO.matrix @ proj / np.trace(proj @ RHO.matrix).real), sigma


def _five_functionals(rho, sigma):
    umegaki(rho, sigma), rld_entropy(rho, sigma), dmax(rho, sigma)
    measured_div_lower(rho, sigma, 20, 0), optimal_reverse_test(rho, sigma)


PROJECTOR_CASES = {
    # QUBIT_A's sigma is full rank: none, where the support check at one
    # copy built sigma's projector (1 before)
    "asymptotic_reverse_test": ([], lambda: asymptotic_reverse_test(*QUBIT_A, n=6, rate=0.7)),
    # QUTRIT's sigma is full rank: none (1 before)
    "dmax": ([], lambda: dmax(RHO, SIGMA)),
    # a rank-2 sigma in d = 3 still builds its one projector
    "dmax-rank-deficient": ([1], lambda: dmax(*_rank2_pair())),
    "asymptotic_reverse_test-rank-deficient": (
        [1], lambda: asymptotic_reverse_test(*_rank2_pair(), n=2, rate=0.7)),
    # umegaki, rld_entropy, dmax, measured_div_lower and optimal_reverse_test
    # on one rank-deficient pair: sigma's projector once, and rho's once for
    # the equal-support check (5 builds of sigma's and 3 of rho's before)
    "five-functionals-rank-deficient": ([1, 1], lambda: _five_functionals(*_rank2_pair())),
}


@pytest.mark.parametrize("name", list(PROJECTOR_CASES))
def test_support_projector_count(name, monkeypatch):
    builds = collections.Counter()

    def counting(h):
        builds[id(h)] += 1
        return support_projector(h)

    monkeypatch.setattr(states, "support_projector", counting)
    expected, call = PROJECTOR_CASES[name]
    call()
    assert sorted(builds.values()) == expected


ESCAPING = (DensityMatrix(np.array([[0.6, 0.1], [0.1, 0.4]], dtype=complex)),
            DensityMatrix(np.diag([1.0, 0.0]).astype(complex)))

# argument errors at n = 8, each raised before a 256x256 tensor power is built
ERROR_CASES = {
    "stein_threshold-eps": (ValueError, "eps", lambda: stein_threshold(*QUBIT_A, n=8, eps=1.5)),
    "stein_threshold-support": (SupportViolationError, "supp rho escapes",
                                lambda: stein_threshold(*ESCAPING, n=8, eps=0.5)),
    "asymptotic_reverse_test-rate": (ValueError, "rate", lambda: asymptotic_reverse_test(*QUBIT_A, n=8, rate=0.0)),
    "asymptotic_reverse_test-q0": (ValueError, "rate", lambda: asymptotic_reverse_test(*QUBIT_A, n=8, rate=1e-14)),
    "asymptotic_reverse_test-dims": (ValueError, "dimension mismatch",
                                     lambda: asymptotic_reverse_test(QUBIT_A[0], QUTRIT[1], n=8, rate=0.5)),
    "np_projector-dims": (ValueError, "dimension mismatch", lambda: CopyPair(QUBIT_A[0], QUTRIT[1], 8).projector(0.5)),
    # the dimensions are checked before the cap: 3^8 is past it
    "smooth_state-dims": (ValueError, "dimension mismatch", lambda: CopyPair(QUTRIT[0], QUBIT_A[1], 8).smooth(0.5)),
    "smooth_state-support": (SupportViolationError, "supp rho escapes",
                             lambda: CopyPair(*ESCAPING, 8).smooth(0.5)),
}


@pytest.fixture
def eigh_dims(monkeypatch):
    """Sizes of the matrices numpy.linalg.eigh decomposes, in call order."""
    dims = []
    original = np.linalg.eigh

    def recording(a, *args, **kwargs):
        dims.append(np.shape(a)[-1])
        return original(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigh", recording)
    return dims


@pytest.mark.parametrize("name", list(ERROR_CASES))
def test_error_path_decomposes_no_power(name, eigh_dims):
    error, match, call = ERROR_CASES[name]
    with pytest.raises(error, match=match):
        call()
    assert max(eigh_dims, default=0) <= 2


def test_stein_threshold_decomposes_blocks_only(eigh_dims):
    # the qubit block direct sum at n = 6 is 16x16; the dense powers are 64x64
    stein_threshold(*QUBIT_A, n=6, eps=0.5)
    assert max(eigh_dims) == 16


@pytest.mark.parametrize("call", [
    lambda: stein_threshold(*QUBIT_A, n=6, eps=0.5),
    lambda: stein_threshold(*QUTRIT, n=4, eps=0.5),
    lambda: curve_points(*QUTRIT, 3, np.linspace(-1.5, 2.0, 41)),
    lambda: integral_divergences(FIVE_SPECS, *QUTRIT),
], ids=["stein_threshold", "stein_threshold-qutrit", "curve_points-qutrit", "integral_divergences"])
def test_stacks_stay_within_stack_bytes(call, monkeypatch):
    stacks = []
    original = np.linalg.eigh

    def recording(a, *args, **kwargs):
        if np.ndim(a) == 3:
            stacks.append(np.asarray(a).nbytes)
        return original(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigh", recording)
    call()
    assert max(stacks, default=0) <= STACK_BYTES


def test_qutrit_powers_are_not_validated(eigh_dims):
    # one 81x81 eigh per open grid rate, 3 + 13 + 10 as in CASES; validating
    # the two dense powers as states would add two more
    stein_threshold(*QUTRIT, n=4, eps=0.5)
    assert eigh_dims.count(81) == 26
