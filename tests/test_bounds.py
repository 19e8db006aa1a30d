"""Bound arithmetic and bound-vs-measurement certification."""

import importlib.util
import math
import pathlib
from fractions import Fraction

import numpy as np
import pytest

from kelvinwake import bounds, oracle, specfun
from kelvinwake.bounds import (
    remainder_bound,
    tail_bound,
    tail_bound_components,
    tail_bound_regime,
    verify_inc_gamma_bound,
    verify_remainder,
)
from kelvinwake.errors import AccuracyError, BoundViolationError, DomainError, OrderOverflowError
from kelvinwake.expansions import (
    CK_MAX,
    TruncationPolicy,
    ck_recurrence,
    ck_symbolic_coefficients,
    ck_table,
)
from kelvinwake.oracle import EvalPoint

_BENCH_INPUTS = pathlib.Path(__file__).resolve().parents[1] / "bench" / "inputs.py"


class TestRemainderBound:
    def test_n1(self):
        assert remainder_bound(1, 8.0) == pytest.approx(0.125, rel=1e-14)

    def test_n2(self):
        assert remainder_bound(2, 8.0) == pytest.approx(0.046875, rel=1e-14)

    def test_log_gamma_matches_exact_rational(self):
        # Gamma(24)/12! / 12.5^12 against exact integer arithmetic
        want = float(Fraction(math.factorial(23), math.factorial(12))) * 12.5 ** -12
        assert remainder_bound(12, 12.5) == pytest.approx(want, rel=1e-12)

    def test_finite_at_n80(self):
        assert math.isfinite(remainder_bound(80, 12.5))

    @pytest.mark.parametrize("n", range(1, 20))
    def test_successive_ratio_formula(self, n):
        M = 8.0
        got = remainder_bound(n + 1, M) / remainder_bound(n, M)
        want = (2 * n + 1) * (2 * n) / ((n + 1) * M)
        assert got == pytest.approx(want, rel=1e-12)

    @pytest.mark.parametrize("n", [1, 3, 7])
    def test_decreasing_in_M(self, n):
        assert remainder_bound(n, 12.5) < remainder_bound(n, 8.0)

    @pytest.mark.parametrize("n,M", [
        (10 ** 6, 8.0), (2 ** 60, 8.0), (10 ** 400, 8.0), (10 ** 400, 1.7e308)],
        ids=["1e6", "2^60", "1e400", "1e400-largest-M"])
    def test_inf_past_the_double_range(self, n, M):
        # the log of the bound passes 709.78; n past 2^53 takes Stirling's
        # form, and n past the double range is never made a float
        assert remainder_bound(n, M) == math.inf

    def test_underflows_to_zero_at_large_n(self):
        assert remainder_bound(2 ** 60, 1e300) == 0.0

    def test_validation(self):
        with pytest.raises(DomainError):
            remainder_bound(0, 8.0)
        with pytest.raises(DomainError):
            remainder_bound(1, 0.0)
        # M is checked finite and real before its sign: nan gave nan, inf
        # and an int past the double range 0.0, a string TypeError
        for M in (math.nan, math.inf, 10 ** 400, "2"):
            with pytest.raises(DomainError, match="M must be finite"):
                remainder_bound(3, M)

    @pytest.mark.parametrize("M", [0.5, 3, 8.0, 1e300, 1.7e308])
    def test_finite_M_keeps_its_value(self, M):
        want = math.exp(math.lgamma(6) - math.lgamma(4) - 3 * math.log(M))
        assert remainder_bound(3, M) == want


class TestTailBound:
    def test_finite_n_form_midplane(self, pt_m8):
        # u0 = c = 1: the finite-n form at n = 2 is 2 e^-16 (1 + 8)
        _simple, finite = tail_bound_components(2, pt_m8)
        assert finite == pytest.approx(18.0 * math.exp(-16.0), rel=1e-12)

    def test_simple_form_midplane(self, pt_m8):
        simple, _finite = tail_bound_components(4, pt_m8)
        assert simple == pytest.approx(2.0 * math.exp(-8.0), rel=1e-12)

    def test_minimum_and_regime(self, pt_m8):
        # at n = 2 the finite-n form is far sharper
        assert tail_bound(2, pt_m8) == pytest.approx(18.0 * math.exp(-16.0), rel=1e-12)
        assert tail_bound_regime(2, pt_m8) == "finite-n"
        # at large n the geometric sum blows past the simple form
        assert tail_bound_regime(7, pt_m8) == "simple"

    def test_simple_form_needs_small_n(self, pt_m8):
        simple, _ = tail_bound_components(9, pt_m8)   # n >= M u0 c = 8
        assert simple == math.inf

    def test_positive(self, pt_m125):
        for n in range(1, 14):
            assert tail_bound(n, pt_m125) > 0

    def test_underflow_leaves_the_smallest_positive_double(self):
        # M u0 c = 400: 2 e^-800 underflows; at 3000 so does 2 e^-3000
        for rho, n in [(1 / 1600, 1), (1 / 12000, 1), (1 / 12000, 40)]:
            pt = EvalPoint(1.0, rho, 0.0)
            simple, finite = tail_bound_components(n, pt)
            assert finite == 5e-324
            assert simple == max(2.0 * math.exp(-pt.M), 5e-324)
            assert tail_bound(n, pt) == 5e-324

    def test_inf_past_the_double_range(self, pt_m8):
        # M u0^2 = 8: the geometric sum passes the double range
        assert tail_bound_components(10 ** 400, pt_m8) == (math.inf, math.inf)
        assert tail_bound(10 ** 400, pt_m8) == math.inf

    def test_geometric_sum_converges_at_large_n(self):
        # M u0^2 = 0.2: sum_k q^k tends to 1 / (1 - q) however large n is
        pt = EvalPoint(0.4, 0.2, 0.0)
        want = 2.0 * math.exp(-2.0 * pt.M * pt.u0 * pt.c) / (1.0 - pt.M * pt.u0 ** 2)
        for n in (10 ** 6, 10 ** 400):
            assert tail_bound(n, pt) == pytest.approx(want, rel=1e-14)


class TestVerifyRemainder:
    def test_midplane_n3(self, pt_m8):
        rep = verify_remainder(pt_m8, 3)
        assert abs(rep.measured_rn) < rep.rn_bound
        assert abs(rep.measured_tail) < rep.tail_bound
        assert rep.inc_gamma_margin is None

    def test_oblique_n5(self):
        pt = EvalPoint(1.0, 0.02, 0.2 * math.pi)
        rep = verify_remainder(pt, 5)
        assert abs(rep.measured_rn) < rep.rn_bound

    def test_passes_where_the_tail_bound_underflows(self):
        # M = 400: the finite-n bound 2 e^-800 is below the double range
        rep = verify_remainder(EvalPoint(1.0, 1 / 1600, 0.0), 1)
        assert rep.tail_bound > 0.0
        assert abs(rep.measured_tail) < rep.tail_bound

    @pytest.mark.parametrize("rho,frac", [
        (1 / 200, 0.2), (1 / 32, 0.45), (1 / 120, 0.45), (1 / 1600, 0.2)])
    def test_tail_measured_to_a_fraction_of_the_bounds(self, rho, frac):
        # a tail asked for to 1e-305 stalled QUADPACK on its own rounding at
        # these points (M = 50, 8, 30 and 400, n = 30 and 8)
        n = 8 if rho == 1 / 1600 else 30
        rep = verify_remainder(EvalPoint(1.0, rho, frac * math.pi), n)
        assert abs(rep.measured_rn) < rep.rn_bound
        assert abs(rep.measured_tail) < rep.tail_bound

    @pytest.mark.parametrize("M", [8.0, 30.0, 100.0, 400.0, 2000.0])
    def test_last_moment_has_the_largest_tail_cut(self, M):
        # oracle_I2_tails cuts all n moments where moment n - 1 is
        # negligible; on the certification grid no other k needs more
        for frac in (0.0, 0.2, 0.45):
            pt = EvalPoint(1.0, 1.0 / (4.0 * M), frac * math.pi)
            lam = pt.x * pt.c
            for n in (1, 8, 30):
                cuts = [oracle._tail_cut(k, lam, pt.xi0,
                                         k * math.log(pt.rho) - math.lgamma(k + 1.0))
                        for k in range(n)]
                assert max(cuts) == cuts[-1], (M, frac, n)

    def test_degenerate_n1(self, pt_m125):
        rep = verify_remainder(pt_m125, 1)
        assert rep.rn_bound == pytest.approx(1.0 / 12.5, rel=1e-12)
        assert abs(rep.measured_rn) < rep.rn_bound

    def test_validation(self, pt_m8):
        with pytest.raises(DomainError):
            verify_remainder(pt_m8, 0)

    def test_n_past_the_table_is_refused_before_any_work(self, monkeypatch, pt_m8):
        # the C_k table holds C_0 .. C_30: n = 32 is refused before the
        # bounds or any quadrature run
        def never(*args):
            raise AssertionError("ran before the check")

        for name in ("remainder_bound", "oracle_I2", "oracle_Ck"):
            monkeypatch.setattr(bounds, name, never)
        with pytest.raises(DomainError, match=r"\[1, 31\], got 32"):
            verify_remainder(pt_m8, oracle.CK_INDEX_MAX + 2)

    def test_reads_its_coefficients_in_one_call(self, monkeypatch):
        calls = []
        read = bounds.oracle_Ck

        def counted(*args):
            calls.append(args)
            return read(*args)

        monkeypatch.setattr(bounds, "oracle_Ck", counted)
        pt = EvalPoint(1.0, 1 / 32, 0.2 * math.pi)
        verify_remainder(pt, 8)
        assert calls == [(0, pt.x, pt.alpha_abs)]

    def test_raises_the_first_failing_coefficient(self, ck_stalled_from_c4):
        # C_0 .. C_3 read, C_4 stalled: the error oracle_Ck(4) raises
        pt = EvalPoint(1.1, 1.1 ** 2 / 32.0, 0.5)
        verify_remainder(pt, 4)
        with pytest.raises(AccuracyError, match="C_4.*quadrature stalled") as exc:
            verify_remainder(pt, 9)
        with pytest.raises(AccuracyError) as want:
            oracle.oracle_Ck(4, pt.x, pt.alpha_abs)
        assert str(exc.value) == str(want.value)
        assert exc.value.value == want.value.value
        assert exc.value.error_estimate == want.value.error_estimate


class TestIncGammaBound:
    def test_known_ratio_at_1_1(self):
        # Gamma(1,1) = e^-1 against 2 e^-1: ratio one half
        rep = verify_inc_gamma_bound([(1.0, 1.0)])
        assert rep.inc_gamma_margin == pytest.approx(0.5, rel=1e-12)

    def test_e1_point(self):
        rep = verify_inc_gamma_bound([(0.0, 2.0)])
        assert rep.inc_gamma_margin < 1.0

    def test_diagonal_point(self):
        rep = verify_inc_gamma_bound([(10.0, 10.0)])
        assert rep.inc_gamma_margin < 1.0

    def test_coarse_grid(self):
        grid = [(chi * j / 9.0, chi)
                for chi in (1.0, 2.0, 5.0, 20.0, 50.0) for j in range(10)]
        rep = verify_inc_gamma_bound(grid)
        assert rep.inc_gamma_margin <= 1.0

    def test_constraint_violations_rejected(self):
        with pytest.raises(DomainError):
            verify_inc_gamma_bound([(2.0, 1.0)])    # a > chi
        with pytest.raises(DomainError):
            verify_inc_gamma_bound([(0.0, 0.5)])    # chi < 1
        with pytest.raises(DomainError):
            verify_inc_gamma_bound([])

    @pytest.mark.parametrize("bad", [
        (math.nan, 2.0), (1.0, math.nan), (1.0, math.inf), (-math.inf, 2.0),
        ("1", 2.0), (None, 2.0), (3.0, 2.0), (0.5, 0.9), (1.0, 701.0),
        (-0.5, 2.0), (1.0,), (1.0, 2.0, 3.0), (2 ** 1100, 2.0), (10 ** 5000, 2.0)])
    def test_bad_pair_named_before_any_work(self, bad, monkeypatch):
        def no_work(*args):
            raise AssertionError("the continued fraction ran")
        monkeypatch.setattr(bounds, "_legendre_cf", no_work)
        with pytest.raises(DomainError, match="grid point"):
            verify_inc_gamma_bound([(1.0, 1.0), bad, (2.0, 3.0)])

    def test_empty_grid(self):
        with pytest.raises(DomainError, match="nonempty"):
            verify_inc_gamma_bound(iter(()))

    def test_other_real_types_accepted(self):
        rep = verify_inc_gamma_bound([(Fraction(1), 1), (np.float32(2.5), np.int64(4))])
        assert rep.inc_gamma_margin == 0.5

    def test_unconverged_pair_raises(self, monkeypatch):
        # (0.49, 1) needs 103 iterations, (1, 1) one
        monkeypatch.setattr(bounds, "_CF_ITER_MAX", 50)
        verify_inc_gamma_bound([(1.0, 1.0)])
        with pytest.raises(AccuracyError, match=r"50 iterations at \(a, chi\) = \(0.49, 1.0\)"):
            verify_inc_gamma_bound([(1.0, 1.0), (0.49, 1.0), (2.0, 3.0)])

    def test_violation_names_its_pair(self, monkeypatch):
        monkeypatch.setattr(bounds, "_legendre_cf", lambda a, chi: np.where(a == 2.0, 2.5, 1.0))
        with pytest.raises(BoundViolationError, match=r"\(2.0, 3.0\): ratio 1.25"):
            verify_inc_gamma_bound([(1.0, 1.0), (2.0, 3.0)])

    def test_grid_is_the_benchmarks(self):
        spec = importlib.util.spec_from_file_location("bench_inputs", _BENCH_INPUTS)
        inputs = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(inputs)
        assert list(bounds.INC_GAMMA_GRID) == inputs.inc_gamma_grid()


@pytest.fixture(scope="module")
def mp_cf_values():
    """e^chi chi^-a Gamma(a, chi) at every pair of INC_GAMMA_GRID, 30 digits."""
    mp = pytest.importorskip("mpmath")
    with mp.workdps(30):
        return [mp.gammainc(mp.mpf(a), mp.mpf(chi)) * mp.exp(chi) * mp.mpf(chi) ** -mp.mpf(a)
                for a, chi in bounds.INC_GAMMA_GRID]


def _scalar_cf(a, chi):
    """The modified Lentz recurrence for e^chi chi^-a Gamma(a, chi), one pair
    at a time: the reference _legendre_cf must equal bit for bit."""
    tiny = 1e-300
    b = chi + 1.0 - a
    c = 1.0 / tiny
    d = 1.0 / b
    h = d
    for i in range(1, 601):
        an = -i * (i - a)
        b += 2.0
        d = an * d + b
        if abs(d) < tiny:
            d = tiny
        c = b + an / c
        if abs(c) < tiny:
            c = tiny
        d = 1.0 / d
        delta = d * c
        h *= delta
        if abs(delta - 1.0) < 1e-16:
            return h, i
    raise AssertionError((a, chi))


class TestLegendreCF:
    def test_bit_equal_to_the_scalar_recurrence(self):
        grid = np.array(bounds.INC_GAMMA_GRID)
        h = bounds._legendre_cf(grid[:, 0], grid[:, 1])
        ref = [_scalar_cf(a, chi) for a, chi in bounds.INC_GAMMA_GRID]
        assert h.tolist() == [v for v, _ in ref]
        iterations = [i for _, i in ref]
        assert max(iterations) == 103
        assert bounds.INC_GAMMA_GRID[iterations.index(103)] == (0.4897959183673469, 1.0)

    def test_every_fifth_grid_pair_against_mpmath(self, mp_cf_values):
        grid = np.array(bounds.INC_GAMMA_GRID[::5])
        h = bounds._legendre_cf(grid[:, 0], grid[:, 1])
        for (a, chi), got, want in zip(grid, h, mp_cf_values[::5]):
            assert abs(got - want) <= 2e-14 * want, (a, chi)

    def test_margin_against_mpmath(self, mp_cf_values):
        want = max(mp_cf_values) / 2
        rep = verify_inc_gamma_bound(bounds.INC_GAMMA_GRID)
        assert abs(rep.inc_gamma_margin - want) <= 1e-14 * want
        assert rep.inc_gamma_margin == 0.5    # at (1, 1), h = 1 exactly


_PT = EvalPoint(0.8, 0.02, 0.0)      # M = 8

#: Every integer check outside specfun, as (call of n, a valid n, invalid
#: integers)
_INTEGER_CHECKS = {
    "TruncationPolicy": (lambda n: TruncationPolicy(n=n).n, 3, [0, -1]),
    "ck_symbolic_coefficients": (ck_symbolic_coefficients, 3, [0, CK_MAX + 1]),
    "ck_recurrence": (lambda n: ck_recurrence(n, 1.0), 3, [0, CK_MAX + 1]),
    "ck_table": (lambda n: ck_table(n, 1.0, 0.2), 3, [0, CK_MAX + 1]),
    "oracle_Ck": (lambda k: oracle.oracle_Ck(k, 1.0, 0.2).value, 3,
                  [-1, oracle.CK_INDEX_MAX + 1]),
    "oracle_I2_tails": (lambda n: oracle.oracle_I2_tails(_PT, n, 1e-12), 2,
                        [0, oracle.CK_INDEX_MAX + 2]),
    "oracle_moment_identity": (lambda k: oracle.oracle_moment_identity(k, 1.5, 2.0, 0.7),
                               2, [-1, 21]),
    "remainder_bound": (lambda n: remainder_bound(n, 8.0), 3, [0]),
    "tail_bound_components": (lambda n: tail_bound_components(n, _PT), 3, [0]),
    "verify_remainder": (lambda n: verify_remainder(_PT, n), 1,
                         [0, oracle.CK_INDEX_MAX + 2]),
}


@pytest.mark.parametrize("name", sorted(_INTEGER_CHECKS))
def test_integer_checks_take_numpy_integers(name):
    # numpy integers give what the equal int gives; non-integers and
    # integers out of range are refused, of either type
    np = pytest.importorskip("numpy")
    call, n, bad = _INTEGER_CHECKS[name]
    want = call(n)
    for m in (np.int64(n), np.int32(n), np.uint8(n)):
        assert call(m) == want
    for m in bad + [np.int64(b) for b in bad] + [float(n), np.float64(n), str(n), 1j]:
        with pytest.raises(DomainError):
            call(m)
    assert type(TruncationPolicy(n=np.int64(n)).n) is int


@pytest.mark.parametrize("call,error", [
    (lambda: specfun.bessel_j(10 ** 5000, 1.0), OrderOverflowError),
    (lambda: oracle.oracle_Ck(10 ** 5000, 1.0, 0.2), DomainError),
    (lambda: remainder_bound(-10 ** 5000, 8.0), DomainError),
    (lambda: oracle.oracle_I2_tails(_PT, 10 ** 5000, 1e-12), DomainError),
    (lambda: verify_remainder(_PT, 10 ** 5000), DomainError),
], ids=["bessel_j", "oracle_Ck", "remainder_bound", "oracle_I2_tails", "verify_remainder"])
def test_integers_too_long_to_print_are_refused(call, error):
    # past about 4300 digits an int has no repr; the refusal names it by
    # its bit length
    with pytest.raises(error, match="an integer of 16610 bits"):
        call()
