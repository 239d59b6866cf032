"""Finite-n machinery: likelihood-ratio projectors, threshold scans against
the classical enumeration oracle, certified smoothing, binary reverse tests,
and the conversion channel."""

import functools
import math
import re

import numpy as np
import pytest

from qdiv import divergences, fixtures, hypotest, states
from qdiv.cli import main
from qdiv.config import DEFAULT_TOLERANCES
from qdiv.divergences import dmax, umegaki
from qdiv.errors import DimensionCapError, QdivError, SupportViolationError
from qdiv.hypotest import (CopyPair, OneCopyPair, asymptotic_reverse_test,
                           state_conversion, stein_threshold, threshold_scan,
                           curve_points, write_curve_csv)
from qdiv.linalg import support_projector, trace_norm
from qdiv.reverse import support_frame
from qdiv.serialize import dump, state_to_dict
from qdiv.states import (DensityMatrix, cq_apply, kron_power, power_blocks,
                         power_trace_norms, random_density, sym_powers,
                         tensor_power)
from qdiv.suites import classical_threshold_oracle

import oracles


class TestNPProjector:
    def test_large_rate_accepts_everything(self):
        rho, sigma = fixtures.QUBIT_A
        proj, pt = CopyPair(rho, sigma, 1).projector(10.0)
        np.testing.assert_allclose(proj, np.eye(2), atol=1e-12)
        assert pt.type1_accept == pytest.approx(1.0, abs=1e-12)

    def test_very_negative_rate_accepts_nothing(self):
        rho, sigma = fixtures.QUBIT_A
        proj, pt = CopyPair(rho, sigma, 1).projector(-10.0)
        np.testing.assert_allclose(proj, 0.0, atol=1e-12)
        assert pt.type1_accept == pytest.approx(0.0, abs=1e-12)

    def test_commuting_matches_classical_region(self):
        rho, sigma = fixtures.COMMUTING
        p = np.diag(rho.matrix).real
        q = np.diag(sigma.matrix).real
        for a in (-0.3, 0.1, 0.4):
            _, pt = CopyPair(rho, sigma, 1).projector(a)
            region, accept, type2 = oracles.classical_np_region(p, q, 1, a)
            assert pt.type1_accept == pytest.approx(accept, abs=1e-12)
            assert pt.type2 == pytest.approx(type2, abs=1e-12)

    def test_type2_exponential_bound(self):
        # on the positive eigenspace the state dominates e^{na} sigma, so the
        # complement's type-2 mass is at most e^{-na}
        rho, sigma = fixtures.QUBIT_B
        for n in (2, 4):
            for a in (0.2, 0.4):
                _, pt = CopyPair(rho, sigma, n).projector(a)
                assert pt.type2 <= math.exp(-n * a) * (1 + 1e-9)

    @pytest.mark.parametrize("n", [2, 3])
    @pytest.mark.parametrize("name", ["QUBIT_A", "QUTRIT"])
    def test_one_copy_pair_matches_its_powers_at_n_1(self, name, n):
        # the one-copy pair builds its powers as krons; a pair that is not a
        # product, here the validated powers themselves, is tested at n = 1
        rho, sigma = getattr(fixtures, name)
        for a in (-0.2, 0.1, 0.4):
            proj, pt = CopyPair(rho, sigma, n).projector(a)
            ref_proj, ref = CopyPair(tensor_power(rho, n), tensor_power(sigma, n), 1).projector(n * a)
            assert np.array_equal(proj, ref_proj)
            assert (pt.type1_accept, pt.type2) == (ref.type1_accept, ref.type2)

    @pytest.mark.parametrize("rate", [1e6, math.inf, math.nan])
    @pytest.mark.parametrize("call", [
        lambda rho, sigma, rate: curve_points(rho, sigma, 2, [rate]),
        lambda rho, sigma, rate: CopyPair(rho, sigma, 2).projector(rate),
        lambda rho, sigma, rate: CopyPair(rho, sigma, 2).smooth(rate),
    ], ids=["curve_points", "np_projector", "smooth_state"])
    def test_rate_past_double_range_raises(self, call, rate):
        # e^(n rate) is not a finite double, so there is no test to run
        with pytest.raises(ValueError, match="rate"):
            call(*fixtures.QUBIT_A, rate)


class TestSteinThreshold:
    def test_equal_pair_near_zero(self):
        rho = random_density(2, seed=1)
        for eps in (0.3, 0.7):
            assert abs(stein_threshold(rho, rho, 2, eps)) <= 2e-3

    @pytest.mark.parametrize("n", [2, 4, 6])
    def test_commuting_matches_bruteforce(self, n):
        rho, sigma = fixtures.COMMUTING
        p = np.diag(rho.matrix).real
        q = np.diag(sigma.matrix).real
        a_q = stein_threshold(rho, sigma, n, 0.5)
        a_c = classical_threshold_oracle(p, q, n, 0.5)
        assert a_q == pytest.approx(a_c, abs=1e-9)

    def test_eps_validation(self):
        rho, sigma = fixtures.QUBIT_A
        with pytest.raises(ValueError, match="eps"):
            stein_threshold(rho, sigma, 2, 1.5)

    @pytest.mark.parametrize("n", [2, 4])
    def test_rank_deficient_rho_matches_bruteforce(self, n):
        # dmax(sigma, rho) is infinite, so the scan's lower end is not
        p, q = np.array([1.0, 0.0]), np.array([0.3, 0.7])
        rho, sigma = (DensityMatrix(np.diag(v).astype(complex)) for v in (p, q))
        a_q = stein_threshold(rho, sigma, n, 0.5)
        assert a_q == pytest.approx(classical_threshold_oracle(p, q, n, 0.5), abs=1e-9)
        assert a_q == pytest.approx(-math.log(0.3), abs=2e-3)

    def test_shared_kernel_matches_bruteforce(self):
        p, q = np.array([0.5, 0.5, 0.0]), np.array([0.3, 0.7, 0.0])
        rho, sigma = (DensityMatrix(np.diag(v).astype(complex)) for v in (p, q))
        assert stein_threshold(rho, sigma, 2, 0.5) == pytest.approx(
            classical_threshold_oracle(p, q, 2, 0.5), abs=1e-9)

    def test_support_violation_raises(self):
        p, q = np.array([0.3, 0.7]), np.array([1.0, 0.0])
        rho, sigma = (DensityMatrix(np.diag(v).astype(complex)) for v in (p, q))
        with pytest.raises(SupportViolationError):
            stein_threshold(rho, sigma, 2, 0.5)
        with pytest.raises(SupportViolationError):
            classical_threshold_oracle(p, q, 2, 0.5)


QUBIT_PAIRS = {name: getattr(fixtures, name) for name in ("QUBIT_A", "QUBIT_B", "COMMUTING")}


# at 0.01 the rates at or above dmax(rho, sigma) decide the hit, at 0.99 the
# bound below ln(1 - eps)/n decides a wide band of misses
EPSS = (0.01, 0.1, 0.5, 0.9, 0.99)


def _dense_thresholds(rho, sigma, n, epss):
    """stein_threshold's scan at each eps, over CopyPair.projector on the dense
    tensor powers, each rate evaluated once."""
    lo, hi = -dmax(sigma, rho) - 0.5, dmax(rho, sigma) + 0.5
    pair = CopyPair(rho, sigma, n)
    dense = functools.cache(lambda a: pair.projector(a)[1].type1_accept)
    return [threshold_scan(lambda rates: map(dense, rates), lo, hi, n, eps) for eps in epss]


def _bits(pt) -> bytes:
    return np.array([pt.a, pt.type1_accept, pt.type2]).tobytes()


STACK_CASES = [(name, n) for name in QUBIT_PAIRS for n in range(1, 9)] + [("QUTRIT", 2), ("QUTRIT", 3)]


class TestCopyPair:
    @pytest.mark.parametrize("n", [2.0, 2.5, True])
    @pytest.mark.parametrize("call", [
        lambda n: stein_threshold(*fixtures.QUBIT_A, n, 0.5),
        lambda n: asymptotic_reverse_test(*fixtures.QUBIT_A, n, 0.7).rho_error,
        lambda n: tensor_power(fixtures.QUBIT_A[0], n),
    ], ids=["stein_threshold", "asymptotic_reverse_test", "tensor_power"])
    def test_rejects_a_non_integer_n_by_name(self, call, n, monkeypatch):
        built = []
        for module, name in ((hypotest, "kron_power"), (hypotest, "power_blocks"), (states, "kron_power")):
            build = getattr(module, name)
            monkeypatch.setattr(module, name, lambda *args, build=build: built.append(args) or build(*args))
        with pytest.raises(ValueError, match=re.escape(f"integer n, got n={n!r}")):
            call(n)
        assert built == []

    def test_accepts_a_numpy_integer_n(self):
        assert stein_threshold(*fixtures.QUBIT_A, np.int64(4), 0.5) == stein_threshold(*fixtures.QUBIT_A, 4, 0.5)

    def test_checks_dimensions_before_the_cap(self):
        # 3^8 is past the default cap of 4096
        with pytest.raises(ValueError, match="dimension mismatch"):
            CopyPair(fixtures.QUTRIT[0], fixtures.QUBIT_A[1], 8)
        with pytest.raises(DimensionCapError):
            CopyPair(*fixtures.QUTRIT, 8)

    @pytest.mark.parametrize("call,error,match", [
        (lambda pair: pair.threshold(1.5), ValueError, "eps"),
        (lambda pair: pair.reverse_test(0.0), ValueError, "rate"),
        (lambda pair: pair.smooth(math.inf), SupportViolationError, "supp rho escapes"),
    ], ids=["threshold", "reverse_test", "smooth"])
    def test_each_method_checks_its_arguments_in_order(self, call, error, match):
        # on a pair whose support escapes, with an argument that is also bad:
        # the eps and the rate come before the support, the support before
        # the smoothing's rate
        with pytest.raises(error, match=match):
            call(CopyPair(*_escaping_pair(), 2))

    def test_one_copy_pair_must_hold_the_same_states(self):
        one = OneCopyPair(*fixtures.QUBIT_A)
        assert one.copies(3).one is one
        with pytest.raises(ValueError, match="other states"):
            CopyPair(*fixtures.QUBIT_B, 3, one)

    def test_threshold_and_curve_build_the_powers_once(self, monkeypatch):
        calls = []
        build = hypotest.power_blocks
        monkeypatch.setattr(hypotest, "power_blocks", lambda rho, n: calls.append(n) or build(rho, n))
        pair = CopyPair(*fixtures.QUBIT_A, 6)
        thr = pair.threshold(0.5)
        pair.curve_points(np.linspace(thr - 0.3, thr + 0.3, 13))
        assert calls == [6, 6]

    @pytest.mark.parametrize("name", ["QUBIT_A", "QUTRIT"])
    def test_thresholds_share_one_scan_interval(self, monkeypatch, name):
        # the interval's two dmax reads are made at the first threshold and
        # kept; every threshold equals the one on a pair of its own bit for bit
        calls = []
        spectrum = divergences.ratio_spectrum
        monkeypatch.setattr(divergences, "ratio_spectrum", lambda r, s: calls.append(1) or spectrum(r, s))
        pair = CopyPair(*getattr(fixtures, name), 2)
        thresholds = [pair.threshold(eps) for eps in (0.5, 0.1)]
        assert len(calls) == 2
        assert [t.hex() for t in thresholds] == [stein_threshold(*getattr(fixtures, name), 2, eps).hex()
                                                 for eps in (0.5, 0.1)]

    @pytest.mark.parametrize("name,n", [("QUBIT_A", 6), ("QUBIT_B", 3), ("COMMUTING", 8), ("QUTRIT", 3)])
    def test_threshold_tests_only_open_rates(self, monkeypatch, name, n):
        # no rate below ln(1 - eps)/n, where the acceptance is at most
        # e^{na} < 1 - eps, and none at or above dmax(rho, sigma), where it is 1
        rates = []
        ratio_test = hypotest._ratio_test
        monkeypatch.setattr(hypotest, "_ratio_test",
                            lambda r, s, w, a, n: rates.append(list(a)) or ratio_test(r, s, w, a, n))
        rho, sigma = getattr(fixtures, name)
        pair = CopyPair(rho, sigma, n)
        for eps in EPSS:
            rates.clear()
            pair.threshold(eps)
            tested = [a for level in rates for a in level]
            assert tested and min(tested) >= math.log(1 - eps) / n and max(tested) < dmax(rho, sigma)

    def test_reverse_tests_share_one_sym_power(self, monkeypatch):
        # the six error reads of the stein-trend suite's converse witness at
        # n = 6 read one stack sym_powers(w, 6) of the pair's frame, built
        # with the frame (one per error read, 6, before); each error bit for
        # bit as on a pair of its own
        calls = []
        for module in (hypotest, states):
            build = module.sym_powers
            monkeypatch.setattr(module, "sym_powers", lambda v, n, build=build: calls.append(n) or build(v, n))
        rho, sigma = fixtures.QUBIT_A
        pair = CopyPair(rho, sigma, 6)
        d = umegaki(rho, sigma).value
        errors = [pair.reverse_test(float(r)).rho_error for r in np.linspace(d + 0.05, dmax(rho, sigma) + 0.1, 6)]
        assert calls == [6]
        refs = []
        for r in np.linspace(d + 0.05, dmax(rho, sigma) + 0.1, 6):
            brt = asymptotic_reverse_test(rho, sigma, 6, float(r))
            refs.append(power_trace_norms(brt.pair.frame.w, (brt.weights[0] - brt.pair.frame.ratios)[None], 6)[0])
        assert [e.hex() for e in errors] == [float(e).hex() for e in refs]

    def test_reverse_tests_share_one_frame(self, monkeypatch):
        calls = []
        build = hypotest.support_frame
        monkeypatch.setattr(hypotest, "support_frame", lambda rho, sigma: calls.append(1) or build(rho, sigma))
        rho, sigma = fixtures.QUBIT_A
        pair = CopyPair(rho, sigma, 6)
        d = umegaki(rho, sigma).value
        tests = [pair.reverse_test(float(r)) for r in np.linspace(d + 0.05, dmax(rho, sigma) + 0.1, 6)]
        assert len(calls) == 1
        # each equal bit for bit to the reverse test on a pair of its own
        for brt in tests:
            ref = asymptotic_reverse_test(rho, sigma, 6, brt.rate)
            assert (brt.rho_error.hex(), brt.certificate.hex()) == (ref.rho_error.hex(), ref.certificate.hex())


class TestStackedRatioTest:
    @pytest.mark.parametrize("name,n", STACK_CASES)
    def test_stacked_kernel_equals_one_rate_calls(self, name, n):
        # 41 rates: one stack up to n = 5, stacks of 39, 30 and 18 rates on
        # the qubit block stacks of n = 6, 7, 8 ((5, 9, 9) at n = 8), of 10 on
        # the 27x27 qutrit power at n = 3
        rho, sigma = getattr(fixtures, name)
        r, s, mult = CopyPair(rho, sigma, n).powers
        rates = [float(a) for a in np.linspace(-1.5, 2.0, 41)]
        # each stack's rows, one per rate: eigenvalues, eigenvectors, the
        # accepted mask and the two traces
        rows = [row for stack in hypotest._ratio_test(r, s, mult, rates, n)
                for row in zip(stack[0].eigenvalues, stack[0].eigenvectors, *stack[1:])]
        assert len(rows) == len(rates)
        for a, row in zip(rates, rows):
            (es, accepted, t1, t2), = hypotest._ratio_test(r, s, mult, [a], n)
            one = (es.eigenvalues[0], es.eigenvectors[0], accepted[0], t1[0], t2[0])
            assert [np.asarray(x).tobytes() for x in row] == [np.asarray(y).tobytes() for y in one]
        assert [_bits(pt) for pt in curve_points(rho, sigma, n, rates)] == [
            np.array([a, t1, t2]).tobytes() for a, (*_, t1, t2) in zip(rates, rows)]

    def test_rates_before_one_past_double_range_are_tested(self):
        r, s, mult = CopyPair(*fixtures.QUBIT_A, 2).powers
        seen = []
        with pytest.raises(ValueError, match="rate 1000.0"):
            for _, _, t1, _ in hypotest._ratio_test(r, s, mult, [0.1, 0.2, 1000.0, 0.3], 2):
                seen += list(t1)
        assert len(seen) == 2

    def test_threshold_scan_checks_every_acceptance(self, monkeypatch):
        # stein_threshold builds no curve point, so the [0, 1] check on each
        # stack is what catches an acceptance above 1
        weights = hypotest.basis_weights
        monkeypatch.setattr(hypotest, "basis_weights", lambda v, m: 2 * weights(v, m))
        with pytest.raises(QdivError, match=r"escapes \[0, 1\]"):
            stein_threshold(*fixtures.QUBIT_A, n=4, eps=0.5)


def _one_rate_scan(f, lo, hi, eps):
    """threshold_scan's grid refinement, one rate at a time."""
    f = functools.cache(f)
    width = DEFAULT_TOLERANCES["stein_grid_width"]
    while True:
        grid = np.linspace(lo, hi, 17)
        hit = next(i for i, a in enumerate(grid) if f(float(a)) >= 1 - eps)
        step = float(grid[1] - grid[0])
        if step <= width:
            return float(grid[hit])
        hi = float(grid[hit])
        lo = float(grid[hit - 1]) if hit > 0 else hi - step


class TestThresholdScan:
    @staticmethod
    def _accept(f, size, asked, evaluated):
        """f on each stack of `size` rates, evaluated when its first rate is read."""
        def accept(rates):
            asked.append(list(rates))
            evaluated.append([])
            for i in range(0, len(rates), size):
                evaluated[-1] += rates[i:i + size]
                yield from [f(a) for a in rates[i:i + size]]
        return accept

    @pytest.mark.parametrize("size", [1, 4, 17])
    def test_stacked_accept_finds_first_hit_in_grid_order(self, size):
        # acceptance on bands of rates, not monotone in the rate
        def f(a):
            return 0.9 if math.sin(9.0 * a) > 0.3 else 0.1

        asked, evaluated = [], []
        got = threshold_scan(self._accept(f, size, asked, evaluated), -1.0, 2.0, 1, 0.5)
        assert got == _one_rate_scan(f, -1.0, 2.0, 0.5)
        assert f(got) >= 0.5 and not all(f(a) >= 0.5 for a in np.linspace(got, 2.0, 50))
        flat = [a for level in evaluated for a in level]
        assert len(flat) == len(set(flat))
        for fresh, done in zip(asked, evaluated):
            # every stack up to the one that holds the level's first hit
            first = next((i for i, a in enumerate(fresh) if f(a) >= 0.5), len(fresh))
            assert done == fresh[:min(len(fresh), size * (first // size + 1))]

    def test_lazy_accept_stops_after_the_hit(self):
        # every level hits at its first rate and reads none after it
        reads = []

        def accept(rates):
            reads.append(0)
            for a in rates:
                reads[-1] += 1
                yield 1.0

        assert threshold_scan(accept, 0.0, 1.0, 1, 0.5) == _one_rate_scan(lambda a: 1.0, 0.0, 1.0, 0.5)
        assert len(reads) > 1 and set(reads) == {1}


class TestSchurWeylBlocks:
    @pytest.mark.parametrize("n", range(1, 9))
    def test_weights_count_the_power(self, n):
        # block k, of size n - 2k + 1, occurs mult[k] times in the power
        rho = random_density(2, seed=n)
        blocks, mult = power_blocks(rho, n)
        assert blocks.shape == (n // 2 + 1, n + 1, n + 1)
        assert (mult * (n + 1 - 2 * np.arange(len(mult)))).sum() == 2 ** n
        assert abs(float(mult @ np.trace(blocks, axis1=1, axis2=2).real) - 1.0) <= 1e-13

    @pytest.mark.parametrize("n", [3, 4, 5])
    def test_spectrum_with_multiplicities_is_the_power_spectrum(self, n):
        rho = random_density(2, seed=20 + n)
        blocks, mult = power_blocks(rho, n)
        sizes = n + 1 - 2 * np.arange(len(blocks))
        spectrum = np.concatenate([np.repeat(np.linalg.eigvalsh(b[:m, :m]), int(k))
                                   for b, m, k in zip(blocks, sizes, mult)])
        dense = np.linalg.eigvalsh(tensor_power(rho, n).matrix)
        np.testing.assert_allclose(np.sort(spectrum), dense, atol=1e-14)
        # each block is exactly zero past its size
        pad = np.arange(n + 1) >= sizes[:, None]
        assert not blocks[pad[:, :, None] | pad[:, None, :]].any()

    @pytest.mark.parametrize("name", list(QUBIT_PAIRS))
    @pytest.mark.parametrize("n", range(1, 9))
    def test_curve_matches_dense(self, name, n):
        rho, sigma = QUBIT_PAIRS[name]
        rates = np.linspace(-1.5, 2.0, 41)
        for pt in curve_points(rho, sigma, n, rates):
            ref = CopyPair(rho, sigma, n).projector(pt.a)[1]
            assert abs(pt.type1_accept - ref.type1_accept) <= 1e-12
            assert abs(pt.type2 - ref.type2) <= 1e-12

    @pytest.mark.parametrize("name", list(QUBIT_PAIRS))
    @pytest.mark.parametrize("n", range(1, 9))
    def test_threshold_equals_dense_bitwise(self, name, n):
        rho, sigma = QUBIT_PAIRS[name]
        assert [stein_threshold(rho, sigma, n, eps) for eps in EPSS] == _dense_thresholds(rho, sigma, n, EPSS)

    @pytest.mark.parametrize("n", [2, 3])
    def test_qutrit_stays_dense(self, n):
        rho, sigma = fixtures.QUTRIT
        for pt in curve_points(rho, sigma, n, [-0.2, 0.1, 0.3, 0.6]):
            ref = CopyPair(rho, sigma, n).projector(pt.a)[1]
            assert pt.type1_accept == pytest.approx(ref.type1_accept, abs=1e-12)
            assert pt.type2 == pytest.approx(ref.type2, abs=1e-12)
        assert [stein_threshold(rho, sigma, n, eps) for eps in EPSS] == _dense_thresholds(rho, sigma, n, EPSS)

    def test_dimension_mismatch_raises(self):
        with pytest.raises(ValueError, match="dimension mismatch"):
            curve_points(fixtures.QUBIT_A[0], fixtures.QUTRIT[1], 2, [0.1])

    def test_dimension_cap_applies(self, monkeypatch):
        monkeypatch.setenv("QDIV_DIM_CAP", "16")
        rho, sigma = fixtures.QUBIT_A
        with pytest.raises(DimensionCapError, match="dimension 32"):
            stein_threshold(rho, sigma, 5, 0.5)
        with pytest.raises(DimensionCapError, match="dimension 32"):
            curve_points(rho, sigma, 5, [0.3])
        assert len(curve_points(rho, sigma, 4, [0.3])) == 1


class TestSmoothState:
    def test_rate_above_dmax_is_identity(self):
        rho, sigma = fixtures.QUBIT_A
        n = 2
        sm = CopyPair(rho, sigma, n).smooth(dmax(rho, sigma) + 0.05)
        assert sm.epsilon == pytest.approx(0.0, abs=1e-12)
        assert sm.accept_shortfall == pytest.approx(0.0, abs=1e-10)
        np.testing.assert_allclose(sm.state.matrix, tensor_power(rho, n).matrix, atol=1e-12)

    def test_commuting_matches_diagonal_truncation(self):
        rho, sigma = fixtures.COMMUTING
        p = np.diag(rho.matrix).real
        q = np.diag(sigma.matrix).real
        n, a = 3, 0.25
        sm = CopyPair(rho, sigma, n).smooth(a)
        tilde, _, _ = oracles.classical_smooth(p, q, n, a)
        np.testing.assert_allclose(np.sort(np.diag(sm.state.matrix).real),
                                   np.sort(tilde), atol=1e-12)

    def test_distance_bound_verified(self):
        rho, sigma = fixtures.QUBIT_A
        d = umegaki(rho, sigma).value
        for n in (2, 4):
            for a in (d + 0.05, (d + dmax(rho, sigma)) / 2):
                sm = CopyPair(rho, sigma, n).smooth(a)
                assert sm.epsilon <= sm.distance_bound

    def test_certificate_self_consistent(self):
        rho, sigma = fixtures.QUBIT_B
        n = 4
        sm = CopyPair(rho, sigma, n).smooth(0.6)
        gap = np.linalg.eigvalsh(math.exp(n * sm.rate_certificate) * tensor_power(sigma, n).matrix
                                 - sm.state.matrix).min()
        assert gap >= -1e-9

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    @pytest.mark.parametrize("name", ["QUBIT_A", "QUBIT_B", "COMMUTING", "QUTRIT", "ill-conditioned"])
    def test_matches_dense_pinching_oracle(self, name, n):
        rho, sigma = _ill_conditioned_pair() if name == "ill-conditioned" else getattr(fixtures, name)
        d = umegaki(rho, sigma).value
        for a in (d + 0.05, (d + dmax(rho, sigma)) / 2):
            sm = CopyPair(rho, sigma, n).smooth(a)
            state, t, epsilon, cert = oracles.pinched_smoothing(rho.matrix, sigma.matrix, n, a)
            assert np.abs(sm.state.matrix - state).max() <= 1e-12
            assert abs(1 - sm.accept_shortfall - t) <= 1e-12
            assert abs(sm.epsilon - epsilon) <= 1e-12
            assert abs(sm.rate_certificate - cert) <= 1e-12

    @pytest.mark.parametrize("d", [2, 3])
    def test_gentle_measurement_and_pinching_bounds(self, d):
        # epsilon <= 2 sqrt(1 - T) + (1 - T) + slack, and the certificate
        # obeys the pinching inequality rho_n <= #classes * E(rho_n), with
        # C(n + d - 1, d - 1) type classes, on 35 seeded pairs
        for seed in range(35):
            rho, sigma = random_density(d, seed=300 + seed), random_density(d, seed=400 + seed)
            D = umegaki(rho, sigma).value
            for n in (2, 3, 4):
                for a in (D + 0.05, (D + dmax(rho, sigma)) / 2):
                    sm = CopyPair(rho, sigma, n).smooth(a)
                    t = 1 - sm.accept_shortfall
                    assert sm.epsilon <= sm.distance_bound
                    assert sm.rate_certificate <= a + (math.log(math.comb(n + d - 1, d - 1)) - math.log(t)) / n

    def test_support_violation_raises(self):
        rho, sigma = _escaping_pair()
        with pytest.raises(SupportViolationError):
            CopyPair(rho, sigma, 2).smooth(0.5)

    def test_rate_that_keeps_nothing_raises(self):
        # e^(na) is below every eigenvalue of every class block
        with pytest.raises(QdivError, match="degenerate"):
            CopyPair(*fixtures.QUBIT_A, 2).smooth(-5.0)

    # sigma's smallest eigenvalue is 4.3e-4, so sigma^(x 4) spans 13 orders
    # of magnitude; the certificate reads it as the diagonal q^(x n)
    @pytest.mark.parametrize("n,rate", [(3, 0.3), (4, 0.3), (4, 1.0), (3, 1.0)])
    def test_ill_conditioned_sigma_certified(self, n, rate):
        rho, sigma = _ill_conditioned_pair()
        sm = CopyPair(rho, sigma, n).smooth(rate)
        sigma_n = functools.reduce(np.kron, [sigma.matrix] * n)
        witness = math.exp(n * sm.rate_certificate) * sigma_n - sm.state.matrix
        assert float(np.linalg.eigvalsh(witness).min()) >= -1e-9


def _escaping_pair():
    """A full-rank rho against a rank-1 sigma: supp rho escapes supp sigma."""
    return (DensityMatrix(np.array([[0.6, 0.1], [0.1, 0.4]], dtype=complex)),
            DensityMatrix(np.diag([1.0, 0.0]).astype(complex)))


def _ill_conditioned_pair():
    """A rank-2 rho and a full-rank sigma with smallest eigenvalue 4.3e-4."""
    return random_density(3, rank=2, seed=91), random_density(3, seed=92)


class TestAsymptoticReverseTest:
    def test_rate_above_dmax_exact(self):
        rho, sigma = fixtures.QUBIT_A
        brt = asymptotic_reverse_test(rho, sigma, 3, dmax(rho, sigma) + 0.02)
        assert brt.rho_error == pytest.approx(0.0, abs=1e-12)
        assert brt.sigma_error <= 1e-10

    def test_equal_pair_any_rate_exact(self):
        rho = random_density(2, seed=5)
        for n in (1, 3):
            brt = asymptotic_reverse_test(rho, rho, n, 0.1)
            assert brt.rho_error == pytest.approx(0.0, abs=1e-10)
            assert brt.sigma_error <= 1e-10

    def test_sigma_side_exact_and_psd(self):
        rho, sigma = fixtures.QUBIT_B
        d = umegaki(rho, sigma).value
        for n in (2, 4, 6):
            brt = asymptotic_reverse_test(rho, sigma, n, d + 0.25)
            assert brt.sigma_error <= 1e-10
            assert brt.q.probs[0] == pytest.approx(math.exp(-n * (d + 0.25)), rel=1e-12)
            sn = tensor_power(sigma, n)
            np.testing.assert_allclose(cq_apply(brt.preparation, brt.q).matrix,
                                       sn.matrix, atol=1e-10)

    def test_error_shrinks_with_n_above_divergence_rate(self):
        rho, sigma = fixtures.QUBIT_A
        rate = umegaki(rho, sigma).value + 0.25
        e2 = asymptotic_reverse_test(rho, sigma, 2, rate).rho_error
        e8 = asymptotic_reverse_test(rho, sigma, 8, rate).rho_error
        assert e8 < e2

    def test_certificate_meets_rate(self):
        rho, sigma = fixtures.QUBIT_A
        rate = umegaki(rho, sigma).value + 0.15
        brt = asymptotic_reverse_test(rho, sigma, 4, rate)
        assert brt.certificate <= rate + 1e-9

    def test_support_violation_raises(self):
        with pytest.raises(SupportViolationError):
            asymptotic_reverse_test(*_escaping_pair(), 2, 0.5)

    def test_rejects_nonpositive_rate(self):
        rho, sigma = fixtures.QUBIT_A
        with pytest.raises(ValueError, match="rate"):
            asymptotic_reverse_test(rho, sigma, 2, 0.0)

    def test_rejects_zero_copies_by_name(self):
        with pytest.raises(ValueError, match="n >= 1, got n=0"):
            asymptotic_reverse_test(*fixtures.QUBIT_A, 0, 0.5)

    @pytest.mark.parametrize("rate", [1e3, 1e6, math.inf])
    @pytest.mark.parametrize("n", [2, 3])
    @pytest.mark.parametrize("name", ["qubit_a", "seeds_6_7"])
    def test_rate_past_double_range_caps_nothing(self, name, n, rate):
        # e^(n rate) overflows, so nothing is capped or refilled: the test is
        # the one at any rate above dmax
        pair = fixtures.QUBIT_A if name == "qubit_a" else (random_density(2, seed=6), random_density(2, seed=7))
        brt = asymptotic_reverse_test(*pair, n, rate)
        ref = asymptotic_reverse_test(*pair, n, dmax(*pair) + 1)
        assert np.isfinite(brt.weights).all()
        assert abs(brt.certificate - ref.certificate) <= 1e-12
        assert brt.rho_error <= 1e-12 and brt.sigma_error <= 1e-12

    @pytest.mark.parametrize("call", [
        lambda: asymptotic_reverse_test(fixtures.QUBIT_A[0], fixtures.QUTRIT[1], 2, 0.5),
        lambda: CopyPair(fixtures.QUBIT_A[0], fixtures.QUTRIT[1], 1).projector(0.5),
        lambda: CopyPair(fixtures.QUBIT_A[0], fixtures.QUTRIT[1], 1).smooth(0.5),
    ], ids=["asymptotic_reverse_test", "np_projector", "smooth_state"])
    def test_dimension_mismatch_raises(self, call):
        with pytest.raises(ValueError, match="dimension mismatch"):
            call()

    def test_pure_rho_rate_above_dmax(self):
        # nothing is capped, so the capped state is rho_n itself rather than a
        # rebuild whose roundoff fails validation
        rho, sigma = random_density(3, rank=1, seed=51), random_density(3, seed=52)
        assert dmax(rho, sigma) < 6.0
        assert asymptotic_reverse_test(rho, sigma, 4, 6.0).rho_error <= 1e-8

    # on this pair sigma^(x4) has eigenvalues under the 1e-12 relative support
    # cut, and a dense capped construction misses the rate by up to 2e-8

    @pytest.mark.parametrize("rate", [0.3, 1.0])
    def test_ill_conditioned_sigma_n3(self, rate):
        _assert_certified(*_ill_conditioned_pair(), 3, rate)

    @pytest.mark.parametrize("rate", [0.3, 1.0, 2.0])
    def test_ill_conditioned_sigma_n4(self, rate):
        _assert_certified(*_ill_conditioned_pair(), 4, rate)

    @pytest.mark.parametrize("seed", [6, 8, 12])
    def test_small_rates(self, seed):
        # the complement's weight 1 - q(0) is about n * rate, so it magnifies
        # the roundoff of sigma^(x n) - q(0) * state by 1/(n * rate)
        rho, sigma = random_density(2, seed=1000 + seed), random_density(2, seed=2000 + seed)
        for n in (1, 2, 3):
            for rate in (1e-6, 3e-6):
                _assert_certified(rho, sigma, n, rate)

    @pytest.mark.parametrize("name", ["qubit_a", "qubit_b", "qutrit", "commuting", "ill_conditioned"])
    def test_certificate_never_exceeds_rate(self, name):
        # the refill keeps every capped weight at most e^{n rate} while the
        # state keeps unit trace, so the certificate meets the rate by
        # construction and the InfeasibleRateError guard stays a defensive check
        rho, sigma = _ill_conditioned_pair() if name == "ill_conditioned" else fixtures.PAIRS[name]
        for n in range(1, 6):
            for rate in (1e-6, 1e-3, 0.05, 0.3, 1.0, 2.0, 5.0):
                assert asymptotic_reverse_test(rho, sigma, n, rate).certificate <= rate + 1e-12


def _assert_certified(rho, sigma, n, rate):
    brt = asymptotic_reverse_test(rho, sigma, n, rate)
    assert brt.certificate <= rate + 1e-9
    # the witness, independent of the certificate: state <= e^{n rate} sigma^(x n)
    sigma_n = functools.reduce(np.kron, [sigma.matrix] * n)
    witness = math.exp(n * rate) * sigma_n - brt.preparation.states[0].matrix
    assert float(np.linalg.eigvalsh(witness).min()) >= -1e-9
    assert brt.sigma_error <= 1e-9


# every 2x2 frame at n = 1..8; the 3x3 frame to n = 4, where the dense
# oracle is 81x81 (3^8 is past the dimension cap), and the rank-2 qutrit
# sigma to n = 5, where its dense oracle is 243x243
FRAME_CASES = ([(name, n) for name in ("qubit_a", "qubit_b", "commuting", "pure") for n in range(1, 9)]
               + [("qutrit", n) for n in range(1, 5)] + [("rank2_qutrit", n) for n in range(1, 6)])


def _frame_pair(name):
    """A fixture pair, a rank-2 sigma in d = 3 with rho inside its support
    (a 2x2 frame in support coordinates), or a pure qubit pair rho = sigma
    (a 1x1 frame)."""
    if name == "rank2_qutrit":
        sigma = random_density(3, rank=2, seed=61)
        proj = support_projector(sigma.eigen)
        inner = proj @ random_density(3, seed=62).matrix @ proj
        return DensityMatrix(inner / np.trace(inner).real), sigma
    if name == "pure":
        pure = random_density(2, rank=1, seed=63)
        return pure, pure
    return fixtures.PAIRS[name]


class TestProductFrame:
    @pytest.mark.parametrize("name", ["qubit_a", "qubit_b", "qutrit", "commuting"])
    def test_frame_factors_the_pair(self, name):
        rho, sigma = fixtures.PAIRS[name]
        iso, w, t = support_frame(rho, sigma)
        b = iso @ w
        assert np.abs(b @ b.conj().T - sigma.matrix).max() <= 1e-12
        assert np.abs((b * t) @ b.conj().T - rho.matrix).max() <= 1e-12

    @pytest.mark.parametrize("name,n", FRAME_CASES)
    def test_matches_dense_capped_construction(self, name, n):
        rho, sigma = _frame_pair(name)
        d, dm = umegaki(rho, sigma).value, dmax(rho, sigma)
        rho_n, sigma_n = (functools.reduce(np.kron, [s.matrix] * n) for s in (rho, sigma))
        # capped well below dmax, halfway, and nothing capped; the pure pair
        # has D = dmax = 0, so its halfway rate is not a rate
        for rate in [r for r in (d + 0.05, (d + dm) / 2, dm + 0.02) if r > 0]:
            brt = asymptotic_reverse_test(rho, sigma, n, rate)
            ref = oracles.dense_reverse_test(rho_n, sigma_n, rate, n)
            state, complement = brt.preparation.states
            assert np.abs(state.matrix - ref["state"]).max() <= 1e-12
            assert np.abs(complement.matrix - ref["complement"]).max() <= 1e-12
            assert abs(brt.certificate - ref["certificate"]) <= 1e-12
            assert abs(brt.rho_error - ref["rho_error"]) <= 1e-12
            assert abs(brt.sigma_error - ref["sigma_error"]) <= 1e-12

    @pytest.mark.parametrize("name,frame", [("qubit_a", 2), ("rank2_qutrit", 2), ("qutrit", 3), ("pure", 1)])
    def test_frame_is_in_support_coordinates(self, name, frame):
        # the frame is rank(sigma) x rank(sigma): 2x2 frames take the
        # Schur-Weyl blocks, the others the dense r^n path
        brt = asymptotic_reverse_test(*_frame_pair(name), 2, 0.5)
        assert brt.pair.frame.w.shape == (frame, frame)
        assert brt.pair.frame.iso.shape == (_frame_pair(name)[1].dim, frame)


class TestPowerTraceNorm:
    @pytest.mark.parametrize("n", range(1, 9))
    @pytest.mark.parametrize("seed", range(4))
    def test_blocks_equal_dense_svd(self, n, seed):
        # a random 2x2 B and three random functions x of the type, of both
        # signs; the type of product-basis index i is its number of second
        # factors
        rng = np.random.default_rng(100 * n + seed)
        b = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        b /= np.linalg.norm(b, 2)
        xs = rng.standard_normal((3, n + 1))[:, [bin(i).count("1") for i in range(2 ** n)]]
        norms = power_trace_norms(b, xs, n)
        b_n = kron_power(b, n)
        for x, norm in zip(xs, norms):
            dense = float(np.linalg.svd((b_n * x) @ b_n.conj().T, compute_uv=False).sum())
            assert abs(norm - dense) <= 1e-12 * max(1.0, dense)
        # each row bit for bit as on its own
        assert [power_trace_norms(b, x[None], n)[0].hex() for x in xs] == [v.hex() for v in norms]

    @pytest.mark.parametrize("n", range(1, 9))
    def test_one_call_equals_per_block_norms(self, n):
        # the one eigvalsh call on the zero-padded stack against one call per
        # unpadded block of the same tables: the padding adds zero eigenvalues
        rng = np.random.default_rng(300 + n)
        b = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        xs = rng.standard_normal((3, n + 1))
        det2 = abs(b[0, 0] * b[1, 1] - b[0, 1] * b[1, 0]) ** 2
        per_block = np.zeros(len(xs))
        for k, sym in enumerate(sym_powers(b, n)):
            s = sym[:n - 2 * k + 1, :n - 2 * k + 1]
            mult = math.comb(n, k) - (math.comb(n, k - 1) if k else 0)
            ops = (s * (det2 ** k * xs[:, None, k:n - k + 1])) @ s.conj().T
            per_block += mult * np.abs(np.linalg.eigvalsh(ops)).sum(axis=-1)
        norms = power_trace_norms(b, xs[:, [bin(i).count("1") for i in range(2 ** n)]], n)
        assert np.all(np.abs(norms - per_block) <= 1e-15 * per_block)

    @pytest.mark.parametrize("r", [1, 3])
    def test_other_frames_take_the_dense_path(self, r):
        rng = np.random.default_rng(r)
        b = rng.standard_normal((r, r)) + 1j * rng.standard_normal((r, r))
        xs = rng.standard_normal((2, r ** 3))
        b_n = kron_power(b, 3)
        for x, norm in zip(xs, power_trace_norms(b, xs, 3)):
            dense = float(np.linalg.svd((b_n * x) @ b_n.conj().T, compute_uv=False).sum())
            assert abs(norm - dense) <= 1e-12 * max(1.0, dense)


class TestStatesBuiltOnRead:
    @pytest.fixture
    def built(self, monkeypatch):
        """The states that hypotest, or a preparation or cq_apply in states,
        validates, in order."""
        validated = []
        build = states.DensityMatrix
        for module in (hypotest, states):
            monkeypatch.setattr(module, "DensityMatrix", lambda m: validated.append(build(m)) or validated[-1])
        return validated

    @pytest.mark.parametrize("call", ["asymptotic_reverse_test", "state_conversion", "cli"])
    def test_constructions_validate_no_state(self, call, built, tmp_path):
        # the reverse test keeps its frame and weight rows, and its errors and
        # the conversion's output error are read off the frame
        rho, sigma = fixtures.QUBIT_A
        rate = (umegaki(rho, sigma).value + dmax(rho, sigma)) / 2
        if call == "asymptotic_reverse_test":
            asymptotic_reverse_test(rho, sigma, 6, rate)
        elif call == "state_conversion":
            state_conversion(*fixtures.CONVERSION_SOURCE, rho, sigma, 6, _conversion_gap(rho, sigma))
        else:
            paths = []
            for name, state in (("rho", rho), ("sigma", sigma)):
                paths.append(str(tmp_path / f"{name}.json"))
                dump(state_to_dict(state), paths[-1])
            assert main(["asym", "reverse-test", "--n", "6", "--rho", paths[0], "--sigma", paths[1],
                         "--rate", str(rate)]) == 0
        assert built == []

    def test_each_read_builds_both_states(self, built):
        # the preparation is B^(x n) with the two weight rows, and builds no
        # state; each read of its states builds both
        rho, sigma = fixtures.QUBIT_A
        brt = asymptotic_reverse_test(rho, sigma, 4, umegaki(rho, sigma).value + 0.05)
        prep = brt.preparation
        assert built == []
        first, second = prep.states, prep.states
        assert len(built) == 4
        assert list(first) + list(second) == built
        assert all(a is not b for a, b in zip(first, second))
        assert np.abs(first[0].matrix - (brt.frame * brt.weights[0]) @ brt.frame.conj().T).max() <= 1e-12

    def test_capped_state_is_the_dense_output_bit_for_bit(self):
        # the mixture B^(x n) diag(p0 g + (1 - p0) h) B^(x n dag) at p0 = 1,
        # validated, is the preparation's first state bit for bit
        rho, sigma = fixtures.QUBIT_A
        brt = asymptotic_reverse_test(rho, sigma, 6, (umegaki(rho, sigma).value + dmax(rho, sigma)) / 2)
        output = (brt.frame * (1.0 * brt.weights[0] + 0.0 * brt.weights[1])) @ brt.frame.conj().T
        assert brt.preparation.states[0].matrix.tobytes() == DensityMatrix(output).matrix.tobytes()


def _conversion_gap(rho, sigma):
    """The gap c that the conversion suite uses for the target (rho, sigma)."""
    return 0.45 * (umegaki(*fixtures.CONVERSION_SOURCE).value - umegaki(rho, sigma).value)


class TestStateConversion:
    def test_builds_target_powers_only(self, validated_dims):
        # the source's test traces come from its Schur-Weyl blocks and the
        # reverse test from the target's one-copy frame; the target powers
        # that the errors need are krons, not validated states
        rho, sigma = fixtures.QUBIT_A
        state_conversion(*fixtures.CONVERSION_SOURCE, rho, sigma, 6, _conversion_gap(rho, sigma))
        assert [d for d in validated_dims if d > 2] == []

    def test_builds_no_dense_target_power(self, monkeypatch):
        # the ratios t^(x n) and squared norms q^(x n) only: both errors are
        # read off the Schur-Weyl blocks of the qubit target's one-copy frame,
        # so neither rho^(x n), sigma^(x n) nor the frame's power is built
        built = []
        build = hypotest.kron_power
        monkeypatch.setattr(hypotest, "kron_power", lambda x, n: built.append(x) or build(x, n))
        rho, sigma = fixtures.QUBIT_A
        state_conversion(*fixtures.CONVERSION_SOURCE, rho, sigma, 6, _conversion_gap(rho, sigma))
        assert len(built) == 2
        assert all(x.ndim == 1 for x in built)

    def test_measurement_built_once(self, monkeypatch, validated_dims):
        # a second application validates its output state only
        rho0, sigma0 = fixtures.CONVERSION_SOURCE
        rho, sigma = fixtures.QUBIT_A
        channel, _ = state_conversion(rho0, sigma0, rho, sigma, 6, _conversion_gap(rho, sigma))
        channel.apply(tensor_power(rho0, 6))
        sigma0_n = tensor_power(sigma0, 6)
        validated_dims.clear()
        spectra = []
        eigvalsh = np.linalg.eigvalsh
        monkeypatch.setattr(np.linalg, "eigvalsh", lambda a, *args, **kw: spectra.append(a) or eigvalsh(a, *args, **kw))
        channel.apply(sigma0_n)
        assert validated_dims == [2 ** 6] and spectra == []

    @pytest.mark.parametrize("n", [2, 4, 6])
    def test_channel_output_matches_reported_error(self, n):
        # the dense measurement, built when the channel is applied, against
        # the error the report takes from the reverse test's preparation
        rho0, sigma0 = fixtures.CONVERSION_SOURCE
        rho, sigma = fixtures.QUBIT_A
        channel, rep = state_conversion(rho0, sigma0, rho, sigma, n, _conversion_gap(rho, sigma))
        out = channel.apply(tensor_power(rho0, n))
        assert abs(trace_norm(out.matrix - tensor_power(rho, n).matrix) - rep.rho_error) <= 1e-12

    @pytest.mark.parametrize("n", [2, 4, 6])
    def test_report_reads_the_errors_together(self, n):
        # the output error and the sigma error come from one set of blocks,
        # each bit for bit as the reverse test's own reads
        rho, sigma = fixtures.QUBIT_B
        channel, rep = state_conversion(*fixtures.CONVERSION_SOURCE, rho, sigma, n, _conversion_gap(rho, sigma))
        assert rep.sigma_error.hex() == channel.test.sigma_error.hex()
        assert rep.rho_error.hex() == channel.test.errors([rep.accept_prob], [channel.test.pair.frame.ratios])[0].hex()

    def test_gap_hypothesis_enforced(self):
        rho, sigma = fixtures.QUBIT_A
        with pytest.raises(ValueError, match="gap"):
            state_conversion(rho, sigma, rho, sigma, 2, 0.05)

    @pytest.mark.parametrize("c", [0.0, -0.1, math.inf, math.nan])
    def test_rejects_c_by_name(self, c):
        with pytest.raises(ValueError, match="c must be positive and finite"):
            state_conversion(*fixtures.CONVERSION_SOURCE, *fixtures.QUBIT_A, 2, c)

    def test_classical_quadruple_matches_enumeration(self):
        rho0, sigma0 = fixtures.CONVERSION_SOURCE
        rho, sigma = fixtures.COMMUTING
        p0 = np.diag(rho0.matrix).real
        q0 = np.diag(sigma0.matrix).real
        p = np.diag(rho.matrix).real
        q = np.diag(sigma.matrix).real
        c = 0.2
        for n in (2, 4, 6):
            channel, rep = state_conversion(rho0, sigma0, rho, sigma, n, c)
            ref = oracles.classical_conversion(p0, q0, p, q, n, c)
            assert rep.feasible
            assert rep.rate == pytest.approx(ref["rate"], abs=1e-10)
            assert rep.accept_prob == pytest.approx(ref["accept"], abs=1e-10)
            assert rep.rho_error == pytest.approx(ref["rho_err"], abs=1e-9)
            assert rep.sigma_error <= 1e-10
            out = channel.apply(tensor_power(rho0, n))
            np.testing.assert_allclose(np.sort(np.diag(out.matrix).real),
                                       np.sort(ref["out_p"]), atol=1e-9)

    def test_fixture_trend_and_exactness(self):
        rho0, sigma0 = fixtures.CONVERSION_SOURCE
        d0 = umegaki(rho0, sigma0).value
        for rho, sigma in (fixtures.QUBIT_A, fixtures.QUBIT_B):
            d1 = umegaki(rho, sigma).value
            c = 0.45 * (d0 - d1)
            errs = {}
            for n in (2, 6):
                channel, rep = state_conversion(rho0, sigma0, rho, sigma, n, c)
                assert rep.feasible
                assert rep.sigma_error <= 1e-9
                errs[n] = rep.rho_error
                out_s = channel.apply(tensor_power(sigma0, n))
                assert np.abs(out_s.matrix - tensor_power(sigma, n).matrix).max() <= 1e-10
            assert errs[6] < errs[2]


class TestDmaxContinuityTrend:
    def test_first_argument_perturbations(self):
        # shrinking trace-distance perturbations move dmax less and less
        rho, sigma = fixtures.QUBIT_A
        from qdiv.states import random_tangent
        x = random_tangent(2, seed=42).matrix
        x /= np.abs(np.linalg.eigvalsh(x)).sum()
        base = dmax(rho, sigma)
        shifts = []
        for scale in (1e-3, 1e-4, 1e-5):
            pert = DensityMatrix(rho.matrix + scale * x)
            shifts.append(abs(dmax(pert, sigma) - base))
        assert shifts[0] <= 0.05
        assert shifts[0] > shifts[1] > shifts[2]


class TestCurveCSV:
    def test_schema(self, tmp_path):
        rho, sigma = fixtures.QUBIT_A
        pts = curve_points(rho, sigma, 2, [0.2, 0.5])
        path = tmp_path / "curve.csv"
        write_curve_csv(str(path), [(2, pt, 0.55) for pt in pts])
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "n,a,type1_accept,type2,threshold"
        assert len(lines) == 3
        first = lines[1].split(",")
        assert int(first[0]) == 2
        assert float(first[1]) == pytest.approx(0.2)
