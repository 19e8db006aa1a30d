"""Kernel checks: trivial values, frozen high-precision references,
cross-function identities and the stated large-order behaviour.

The frozen constants were produced by an independent 40-digit evaluation
(ascending series summed in extended precision, connection formulas for Y
and K) and rounded to the nearest double.
"""

import decimal
import math
import random
import sys
from decimal import Decimal
from fractions import Fraction

import numpy as np
import pytest

from kelvinwake import oracle
from kelvinwake import specfun as sf
from kelvinwake.bounds import _legendre_cf
from kelvinwake.errors import DomainError, OrderOverflowError, RangeOverflowError, RegimeError

# 40-digit references rounded to double
J4_AT_04 = 6.613510772909676e-05
Y1_AT_1 = -0.7812128213002887
K2_AT_001 = 19999.50006838941
STRUVE_H0_AT_1 = 0.5686566270482879
HSCAL3_AT_07 = 0.03334232965875763
KSCAL0_AT_04 = 0.8561742822904257
KSCAL2_AT_13 = 2.0557620844550066
KSCAL0_AT_1 = 0.480399662832611
HYP_05_15_M025 = 0.9225620128255849
GAMMA_25_AT_4 = 0.20769032981158048
E1_AT_2 = 0.04890051070806112


def relerr(got, want):
    return abs(got - want) / abs(want)


class TestBesselJ:
    def test_j0_at_zero(self):
        assert sf.bessel_j(0, 0.0).value == 1.0

    def test_jn_at_zero(self):
        assert sf.bessel_j(2, 0.0).value == 0.0

    def test_frozen_j4(self):
        r = sf.bessel_j(4, 0.4)
        assert relerr(r.value, J4_AT_04) <= 1e-13
        assert r.terms_used > 0
        assert math.isfinite(r.abs_error_estimate) and r.abs_error_estimate >= 0

    def test_negative_x_rejected(self):
        with pytest.raises(DomainError):
            sf.bessel_j(0, -1.0)

    @pytest.mark.parametrize("order,zero", [(0, 2.404825557695773), (1, 3.8317059702075125)])
    def test_estimate_holds_next_to_a_zero(self, order, zero):
        # the values fall to about 1e-16 while the series' rounding stays
        # near 2^-104 I_order(x)
        mp = pytest.importorskip("mpmath")
        with mp.workdps(40):
            for x in (math.nextafter(zero, 0.0), zero, math.nextafter(zero, 4.0)):
                got = sf.bessel_j(order, x)
                assert abs(got.value - mp.besselj(order, x)) <= got.abs_error_estimate, x

    def test_non_finite_rejected(self):
        with pytest.raises(DomainError):
            sf.bessel_j(0, math.inf)

    def test_order_cap(self):
        with pytest.raises(OrderOverflowError):
            sf.bessel_j(sf.ORDER_CAP + 1, 1.0)

    def test_numpy_integers_and_floats(self):
        # an integral order and a real argument of numpy type give the
        # result of the equal Python numbers; a non-integral order, a
        # negative one and a non-finite argument stay refused
        import numpy as np

        want = sf.bessel_j(2, 1.0)
        for order, x in [(np.int64(2), 1.0), (np.int32(2), np.float32(1.0)),
                         (2, np.int64(1)), (np.uint8(2), np.float64(1.0))]:
            assert sf.bessel_j(order, x) == want
            assert sf.struve_h_scaled(order, x) == sf.struve_h_scaled(2, 1.0)
        for order in (2.0, np.float64(2.0), -1, np.int64(-1), "2"):
            with pytest.raises(DomainError, match="order must be"):
                sf.bessel_j(order, 1.0)
        with pytest.raises(OrderOverflowError):
            sf.bessel_j(np.int64(sf.ORDER_CAP + 1), 1.0)
        for x in (np.float64(math.nan), np.float32(math.inf), "1", None):
            with pytest.raises(DomainError, match="argument must be finite"):
                sf.bessel_j(2, x)


class TestBesselY:
    def test_log_blowup_direction(self):
        assert sf.bessel_y(0, 1e-3).value < -1.0

    def test_frozen_y1(self):
        assert relerr(sf.bessel_y(1, 1.0).value, Y1_AT_1) <= 1e-12

    def test_domain(self):
        with pytest.raises(DomainError):
            sf.bessel_y(0, 0.0)
        with pytest.raises(DomainError):
            sf.bessel_y(0, -0.5)

    def test_overflow_is_reported(self):
        with pytest.raises(RangeOverflowError):
            sf.bessel_y(sf.ORDER_CAP, 0.05)


class TestBesselIK:
    def test_i_at_zero(self):
        assert sf.bessel_i(0, 0.0).value == 1.0
        assert sf.bessel_i(3, 0.0).value == 0.0

    def test_frozen_k2(self):
        assert relerr(sf.bessel_k(2, 0.01).value, K2_AT_001) <= 1e-11

    def test_k_domain(self):
        with pytest.raises(DomainError):
            sf.bessel_k(0, 0.0)


@pytest.mark.parametrize("n", [0, 1, 2, 7, sf.ORDER_CAP])
def test_j_and_i_exact_at_zero(n):
    want = 1.0 if n == 0 else 0.0
    assert sf.bessel_j(n, 0.0).value == want
    assert sf.bessel_i(n, 0.0).value == want


@pytest.mark.parametrize("func, order, x", [
    # near the first zeros of Y0 and Y1, 8.1e-18 and 2.3e-18 off
    ("bessel_y", 0, 0.8935769662791675),
    ("bessel_y", 1, 2.197141326031017),
    # 1.3e-17 off, a relative 3.7e-16
    ("bessel_k", 0, 3.0),
    # past ARG_MAX the kernels refuse: there the series' terms reach I_0(x)
    # before they cancel (J0(100) and Y0(100) came out as -8.8e8 and 8.8e8,
    # K0(30) as 1.6e-6 against 2.1e-14), and the recurrence carried the
    # seeds' error up (K_30(20) was a relative 7e-5 off)
    ("bessel_j", 0, 50.0),
    ("bessel_j", 0, 100.0),
    ("bessel_y", 0, 45.0),
    ("bessel_y", 0, 50.0),
    ("bessel_y", 0, 100.0),
    ("bessel_k", 0, 30.0),
    ("bessel_k", 30, 20.0),
    ("bessel_k", 60, 20.0),
    ("bessel_k", 30, 10.0),
    ("bessel_y", 60, 45.0),
    ("bessel_y", 100, 70.0),
])
def test_estimate_counts_the_rounding_of_the_log(func, order, x):
    # ln(x/2) is a double in the log series: its rounding moves Y_n by
    # 2/pi times it times J_n(x) and K_n by it times I_n(x)
    if x > sf.ARG_MAX:
        with pytest.raises(RegimeError):
            getattr(sf, func)(order, x)
        return
    mp = pytest.importorskip("mpmath")
    got = getattr(sf, func)(order, x)
    with mp.workdps(40):
        want = {"bessel_j": mp.besselj, "bessel_y": mp.bessely,
                "bessel_k": mp.besselk}[func](order, x)
        assert abs(got.value - want) <= got.abs_error_estimate


def _mp_kernel(func, order, x):
    """The kernel func of specfun at (order, x) in mpmath."""
    mp = pytest.importorskip("mpmath")
    x = mp.mpf(x)
    if func.startswith("struve"):
        h = mp.struveh(order, x)
        return h / (x / 2) ** order if func == "struve_h_scaled" else x ** order * (
            h - mp.bessely(order, x))
    return {"bessel_j": mp.besselj, "bessel_i": mp.besseli, "bessel_y": mp.bessely,
            "bessel_k": mp.besselk}[func](order, x)


@pytest.mark.parametrize("func", ["bessel_j", "bessel_i", "bessel_y", "bessel_k",
                                  "struve_h_scaled", "struve_k_scaled"])
def test_within_the_estimate_up_to_arg_max(func):
    # from the small orders the routes take to ORDER_CAP and up to ARG_MAX:
    # within the estimate of 40-digit mpmath, RangeOverflowError where the
    # value leaves the double range, and RegimeError one double past
    # ARG_MAX.  J_160(0.5) and I_160(0.5), about 1e-381, round to 0
    mp = pytest.importorskip("mpmath")
    kernel = getattr(sf, func)
    with mp.workdps(40):
        for x in (0.5, 2.0, sf.ARG_MAX):
            for order in (0, 1, 2, 5, 10, 21, 29, 40, 80, sf.ORDER_CAP):
                want = _mp_kernel(func, order, x)
                if abs(want) > sys.float_info.max:
                    with pytest.raises(RangeOverflowError):
                        kernel(order, x)
                    continue
                got = kernel(order, x)
                assert abs(got.value - want) <= got.abs_error_estimate, (order, x)
    for order in (0, sf.ORDER_CAP):
        with pytest.raises(RegimeError, match="ARG_MAX"):
            kernel(order, math.nextafter(sf.ARG_MAX, math.inf))


@pytest.mark.parametrize("func", ["bessel_y", "bessel_k", "struve_k_scaled"])
def test_refused_below_arg_min(func):
    # the seeds Y1, K1 hold 1/x, formed by a double-double division whose
    # split overflows once 1/x passes about 1.34e300: Y_1(1e-305) and
    # K_1(1e-305) came out NaN, and Kscal_1(7.5e-301), about 2/pi, raised
    # RangeOverflowError.  At ARG_MIN orders 0 and 1 are within their
    # estimates of 40-digit mpmath
    mp = pytest.importorskip("mpmath")
    kernel = getattr(sf, func)
    for x in (1e-305, 7.5e-301, math.nextafter(sf.ARG_MIN, 0.0)):
        with pytest.raises(RegimeError, match="ARG_MIN"):
            kernel(1, x)
    with mp.workdps(40):
        for order in (0, 1):
            got = kernel(order, sf.ARG_MIN)
            want = _mp_kernel(func, order, sf.ARG_MIN)
            assert abs(got.value - want) <= got.abs_error_estimate, order


@pytest.mark.parametrize("x", [0.1, 0.5, 1.0, 2.0])
@pytest.mark.parametrize("n", range(0, 21))
def test_wronskian_jy(n, x):
    # J_{n+1} Y_n - J_n Y_{n+1} = 2/(pi x)
    lhs = (sf.bessel_j(n + 1, x).value * sf.bessel_y(n, x).value
           - sf.bessel_j(n, x).value * sf.bessel_y(n + 1, x).value)
    want = 2.0 / (math.pi * x)
    assert relerr(lhs, want) <= 1e-11


@pytest.mark.parametrize("x", [0.1, 0.5, 1.0, 2.0])
@pytest.mark.parametrize("n", range(0, 21))
def test_wronskian_ik(n, x):
    # I_n K_{n+1} + I_{n+1} K_n = 1/x
    lhs = (sf.bessel_i(n, x).value * sf.bessel_k(n + 1, x).value
           + sf.bessel_i(n + 1, x).value * sf.bessel_k(n, x).value)
    assert relerr(lhs, 1.0 / x) <= 1e-11


def test_wronskian_at_07():
    # J1 Y0 - J0 Y1 = 2/(pi x) at x = 0.7
    x = 0.7
    lhs = (sf.bessel_j(1, x).value * sf.bessel_y(0, x).value
           - sf.bessel_j(0, x).value * sf.bessel_y(1, x).value)
    assert relerr(lhs, 2.0 / (math.pi * x)) <= 1e-11


class TestStruveScaled:
    @pytest.mark.parametrize("order", [0, 1, 5, 40])
    def test_zero_argument(self, order):
        r = sf.struve_h_scaled(order, 0.0)
        assert r.value == 0.0

    def test_order_zero_equals_struve_h(self):
        # (x/2)^0 = 1, so the scaled function at order 0 is H_0 itself
        assert relerr(sf.struve_h_scaled(0, 1.0).value, STRUVE_H0_AT_1) <= 1e-13

    def test_frozen_order3(self):
        assert relerr(sf.struve_h_scaled(3, 0.7).value, HSCAL3_AT_07) <= 1e-13

    def test_large_order_decay(self):
        # Hscal_r(x) ~ x e^r / (pi sqrt(2) r^(r+1)) as r grows
        r = 40
        got = sf.struve_h_scaled(r, 1.0).value
        asym = 1.0 * math.exp(r) / (math.pi * math.sqrt(2.0) * r ** (r + 1))
        assert abs(got / asym - 1.0) <= 0.05

    def test_error_estimate_bounds_truncation(self):
        # recompute the series independently in plain floats and compare
        for (order, x, ref) in [(0, 1.0, STRUVE_H0_AT_1), (3, 0.7, HSCAL3_AT_07)]:
            r = sf.struve_h_scaled(order, x)
            assert abs(r.value - ref) <= r.abs_error_estimate

    def test_terms_decrease_after_crossover(self):
        # first-omitted-term bound needs eventually-monotone terms
        for (order, x) in [(0, 3.0), (2, 1.0), (10, 3.0)]:
            mags = []
            for k in range(40):
                lg = (math.log(x / 2) * (2 * k + 1)
                      - math.lgamma(k + 1.5) - math.lgamma(k + order + 1.5))
                mags.append(lg)
            cross = next(i for i in range(len(mags) - 1) if mags[i + 1] < mags[i])
            assert all(mags[i + 1] < mags[i] for i in range(cross, len(mags) - 1))


    @pytest.mark.parametrize("order", [167, 168, 169, 170, 171])
    def test_orders_past_the_gamma_overflow_against_mpmath(self, order):
        # Gamma(3/2) Gamma(order + 3/2) passes 2^996, where two_prod's split
        # of it overflows, from order 167 on: the chain stops at ORDER_CAP
        # below that, and these orders are refused
        mp = pytest.importorskip("mpmath")
        with mp.workdps(40):
            assert mp.gamma(1.5) * mp.gamma(order + 1.5) > mp.mpf(2) ** 996
            assert mp.gamma(1.5) * mp.gamma(166 + 1.5) < mp.mpf(2) ** 996
        assert len(sf._STRUVE_GAMMAS) == sf.ORDER_CAP + 1 <= 167
        with pytest.raises(OrderOverflowError):
            sf.struve_h_scaled(order, 1.0)

    @pytest.mark.parametrize("x", [1e-3, 0.5, 1.0, 2.0, 3.0])
    def test_orders_150_to_166_against_mpmath(self, x):
        # sums near 1e-290 and below run to the same relative stop as any
        # other: no absolute floor cuts their series short.  Past
        # ORDER_CAP, below order 167 where the Gamma chain would leave the
        # range two_prod splits, orders are refused
        mp = pytest.importorskip("mpmath")
        with mp.workdps(40):
            for order in range(150, sf.ORDER_CAP + 1):
                got = sf.struve_h_scaled(order, x)
                want = mp.struveh(order, x) / (mp.mpf(x) / 2) ** order
                assert abs(got.value - want) <= 1e-15 * abs(want), order
                assert abs(got.value - want) <= got.abs_error_estimate, order
        for order in range(sf.ORDER_CAP + 1, 167):
            with pytest.raises(OrderOverflowError):
                sf.struve_h_scaled(order, x)

    def test_order_cap_returns(self):
        # Hscal_160(1), about 1e-287, is a normal double
        mp = pytest.importorskip("mpmath")
        r = sf.struve_h_scaled(sf.ORDER_CAP, 1.0)
        with mp.workdps(40):
            want = mp.struveh(sf.ORDER_CAP, 1) * mp.mpf(2) ** sf.ORDER_CAP
            assert r.value >= sys.float_info.min
            assert abs(r.value - want) <= min(1e-15 * want, r.abs_error_estimate)


class TestStruveKScaled:
    def test_frozen_order0(self):
        assert relerr(sf.struve_k_scaled(0, 0.4).value, KSCAL0_AT_04) <= 1e-12

    def test_frozen_order2(self):
        assert relerr(sf.struve_k_scaled(2, 1.3).value, KSCAL2_AT_13) <= 1e-12

    def test_composition_matches_parts(self):
        # x^m (H_m - Y_m) assembled from the public pieces
        m, x = 3, 0.9
        hm = sf.struve_h_scaled(m, x).value * (0.5 * x) ** m
        ym = sf.bessel_y(m, x).value
        assert relerr(sf.struve_k_scaled(m, x).value, x ** m * (hm - ym)) <= 1e-12

    def test_integral_identity_order0(self):
        # Kscal_0(1) = (2/pi) int_0^inf e^-xi / sqrt(1+xi^2) dxi; checked
        # against the frozen reference and recomputed by live quadrature
        # (tail beyond 45 is < e^-45)
        assert relerr(sf.struve_k_scaled(0, 1.0).value, KSCAL0_AT_1) <= 1e-12
        from scipy.integrate import quad

        q, _ = quad(lambda t: math.exp(-t) / math.sqrt(1.0 + t * t), 0.0, 45.0,
                    epsabs=1e-15, epsrel=1e-13)
        assert relerr(sf.struve_k_scaled(0, 1.0).value, 2.0 / math.pi * q) <= 1e-12

    def test_domain(self):
        with pytest.raises(DomainError):
            sf.struve_k_scaled(0, 0.0)

    @pytest.mark.parametrize("order,x", [(170, 1.0), (400, 1.0), (400, 3.0), (160, 3.0),
                                         (160, 1.0), (155, 0.5), (155, 4.0)])
    def test_out_of_range_is_reported(self, order, x):
        # Kscal_m(x) >= about Gamma(m) 2^m / pi: past m ~ 150 it leaves the
        # double range at every x, and says so; past ORDER_CAP the order
        # itself is refused
        with pytest.raises(RangeOverflowError if order <= sf.ORDER_CAP else OrderOverflowError):
            sf.struve_k_scaled(order, x)


class TestKummer:
    @pytest.mark.parametrize("a,b", [(0.3, 1.5), (2.0, 0.5), (-1.5, 2.5)])
    def test_at_zero(self, a, b):
        assert sf.kummer_1f1(a, b, 0.0).value == 1.0

    def test_closed_form_1_2_1(self):
        # 1F1(1; 2; z) = (e^z - 1)/z
        assert relerr(sf.kummer_1f1(1.0, 2.0, 1.0).value, math.e - 1.0) <= 1e-14

    def test_frozen(self):
        assert relerr(sf.kummer_1f1(0.5, 1.5, -0.25).value, HYP_05_15_M025) <= 1e-13

    def test_bad_b(self):
        with pytest.raises(DomainError):
            sf.kummer_1f1(1.0, 0.0, 0.5)
        with pytest.raises(DomainError):
            sf.kummer_1f1(1.0, -3.0, 0.5)

    def test_argument_cap(self):
        with pytest.raises(DomainError):
            sf.kummer_1f1(1.0, 2.0, 51.0)

    @pytest.mark.parametrize("a", [0.5, 1.0, 1.5])
    @pytest.mark.parametrize("b", [1.5, 2.5, 3.5])
    @pytest.mark.parametrize("z", [-2.0, -1.0, -0.25, 0.5, 1.0, 2.0])
    def test_kummer_transformation(self, a, b, z):
        # 1F1(a;b;z) = e^z 1F1(b-a;b;-z); both sides go through the direct
        # series here (the internal reflection only fires below z = -5)
        lhs = sf.kummer_1f1(a, b, z).value
        rhs = math.exp(z) * sf.kummer_1f1(b - a, b, -z).value
        assert relerr(lhs, rhs) <= 1e-12

    def test_estimate_covers_error_against_mpmath(self):
        # seeded draws where the direct series cancels: b - a small and
        # z < 0, and the moment identity's (k + 1, k + mu + 1, -rho).  With
        # the rounding of the term ratios left out, (1, 1.01, -5) was off by
        # 1.4e-15 against an estimate of 2.1e-18
        mpmath = pytest.importorskip("mpmath")
        rng = random.Random(1507)
        cases = [(1.0, 1.01, -5.0)]
        for i in range(120):
            if i % 2:
                a = rng.uniform(0.1, 20.0)
                cases.append((a, a + rng.uniform(0.001, 0.5), rng.uniform(-50.0, 50.0)))
            else:
                a = rng.randrange(21) + 1.0
                cases.append((a, a + rng.uniform(0.01, 3.0), -rng.uniform(0.0, 50.0)))
        with mpmath.workdps(40):
            for a, b, z in cases:
                got = sf.kummer_1f1(a, b, z)
                want = mpmath.hyp1f1(a, b, z)
                assert abs(mpmath.mpf(got.value) - want) <= got.abs_error_estimate, (a, b, z)


def _gamma_by_cf(a, chi):
    """Gamma(a, chi) from bounds' continued fraction for e^chi chi^-a
    Gamma(a, chi), the one implementation for fractional a and a = 0."""
    h = _legendre_cf(np.array([float(a)]), np.array([float(chi)]))[0]
    return h * chi ** a * math.exp(-chi)


#: oracle._CK_TAIL, Gamma(2k + 1, 154) for k = 0 .. 30, as first tabulated
#: by the closed form of upper_inc_gamma
CK_TAIL_HEX = (
    "0x1.c580663b97826p-223", "0x1.4c83a8f56992cp-208", "0x1.e7b0ff149035ep-194",
    "0x1.65b47a21f6d46p-179", "0x1.06693665b0859p-164", "0x1.8113d9ab6cd39p-150",
    "0x1.1a9884c940cbcp-135", "0x1.9edaf5e99d21ap-121", "0x1.3091445325fffp-106",
    "0x1.bf4a121c14f94p-92", "0x1.4883ad30c7855p-77", "0x1.e2a997b487f58p-63",
    "0x1.62a62816f637fp-48", "0x1.04a5aca9a2a73p-33", "0x1.7f3646f2e3c59p-19",
    "0x1.19c6091792cedp-4", "0x1.9e79ecce4fa44p+10", "0x1.30ea97aadb773p+25",
    "0x1.c0c0af8c04370p+39", "0x1.4a4f79d5fbb24p+54", "0x1.e66580ef77a19p+68",
    "0x1.6639860ec5f12p+83", "0x1.07e85804d0691p+98", "0x1.84f7d7a92a095p+112",
    "0x1.1ebd2c78630f0p+127", "0x1.a6e5b606a2d56p+141", "0x1.37f6af809fde8p+156",
    "0x1.cc6ce9d8c0807p+170", "0x1.53e58b2dca7f7p+185", "0x1.f6089e242ddbap+199",
    "0x1.72e7e65b88082p+214",
)


class TestUpperIncGamma:
    @pytest.mark.parametrize("chi", [0.3, 1.0, 2.5, 10.0])
    def test_a1_closed_form(self, chi):
        assert relerr(sf.upper_inc_gamma(1.0, chi).value, math.exp(-chi)) <= 5e-15

    def test_a3_closed_form(self):
        # Gamma(3, chi) = e^-chi (chi^2 + 2 chi + 2); at chi = 0.5: 3.25 e^-0.5
        assert relerr(sf.upper_inc_gamma(3.0, 0.5).value,
                      3.25 * math.exp(-0.5)) <= 5e-15

    # fractional a and a = 0 are bounds' continued fraction's: upper_inc_gamma
    # refuses them
    def test_frozen_fractional(self):
        assert relerr(_gamma_by_cf(2.5, 4.0), GAMMA_25_AT_4) <= 1e-11

    def test_e1(self):
        assert relerr(_gamma_by_cf(0.0, 2.0), E1_AT_2) <= 1e-12

    def test_domain(self):
        with pytest.raises(DomainError):
            sf.upper_inc_gamma(-1.0, 1.0)
        with pytest.raises(DomainError):
            sf.upper_inc_gamma(1.0, 0.0)
        with pytest.raises(DomainError):
            sf.upper_inc_gamma(301.0, 1.0)

    @pytest.mark.parametrize("a", [2.5, 0.0])
    def test_integer_order_only(self, a):
        with pytest.raises(DomainError, match="integer a"):
            sf.upper_inc_gamma(a, 4.0)

    def test_overflow_reported(self):
        with pytest.raises(RangeOverflowError):
            sf.upper_inc_gamma(250.0, 1.0)

    def test_odd_orders_at_the_ck_cut(self):
        # the orders and the argument of the oracle's C_k envelope tails
        mpmath = pytest.importorskip("mpmath")
        with mpmath.workdps(30):
            for k in range(31):
                got = sf.upper_inc_gamma(2 * k + 1.0, 154.0)
                want = mpmath.gammainc(2 * k + 1, 154)
                assert abs(got.value - want) <= 3e-15 * want, k
                assert abs(got.value - want) <= got.abs_error_estimate, k

    def test_ck_tail_unchanged(self):
        assert tuple(float(v).hex() for v in oracle._CK_TAIL) == CK_TAIL_HEX

    @pytest.mark.parametrize("a_frac", [0.0, 0.25, 0.5, 0.75, 1.0])
    @pytest.mark.parametrize("chi", [1.0, 2.0, 5.0, 20.0, 50.0])
    def test_bound_2_chi_a_exp(self, a_frac, chi):
        # Gamma(a, chi) <= 2 chi^a e^-chi for 0 <= a <= chi, chi >= 1
        a = a_frac * chi
        v = _gamma_by_cf(a, chi)
        assert v <= 2.0 * chi ** a * math.exp(-chi)


@pytest.mark.parametrize("func,order,x,want,tol", [
    ("bessel_j", 0, 10.0, -0.24593576445134835, 1e-13),
    ("bessel_j", 20, 10.0, 1.1513369247813398e-05, 1e-13),
    ("bessel_y", 2, 10.0, -0.0058680824422086145, 1e-12),
    ("bessel_k", 5, 2.0, 9.431049100596468, 1e-12),
    ("struve_h_scaled", 0, 3.0, 0.5743061488143983, 1e-13),
])
def test_frozen_edge_of_range(func, order, x, want, tol):
    # pins up to the edge of the box, x = 3, and past ARG_MAX, where the
    # kernels refuse
    if x > sf.ARG_MAX:
        with pytest.raises(RegimeError):
            getattr(sf, func)(order, x)
        return
    got = getattr(sf, func)(order, x).value
    assert relerr(got, want) <= tol


@pytest.mark.parametrize("a,b,z,want", [
    (1.5, 2.5, -50.0, 0.003759942411946501),   # reflection path
    (0.5, 1.5, 30.0, 181238877517.30847),      # large positive argument
])
def test_kummer_extremes(a, b, z, want):
    assert relerr(sf.kummer_1f1(a, b, z).value, want) <= 1e-12


@pytest.mark.parametrize("x,rho", [(1.0, 0.02)])
def test_large_order_bessel_asymptotics(x, rho):
    # J_2m(x) ~ (e x / 4m)^2m / (2 sqrt(pi m))  -- the exponent is the
    # order 2m (this is sqrt(1/(2 pi nu)) (e x/(2 nu))^nu at nu = 2m) --
    # and K_m(rho/2) ~ sqrt(pi/2m) (e rho / 4m)^-m as m grows; together
    # these give the (e x^2/(4 rho))^m / m^(m+1) late-term control of the
    # Bessel product series.
    m = 60
    j = sf.bessel_j(2 * m, x).value
    j_asym = (math.e * x / (4 * m)) ** (2 * m) / (2.0 * math.sqrt(math.pi * m))
    assert abs(j / j_asym - 1.0) <= 0.10
    k = sf.bessel_k(m, rho / 2).value
    k_asym = math.sqrt(math.pi / (2 * m)) * (math.e * rho / (4 * m)) ** -m
    assert abs(k / k_asym - 1.0) <= 0.10


class TestSeriesDD:
    @pytest.mark.parametrize("rel", [1e-12, 1e-17, 1e-21])
    def test_raises_where_the_terms_shrink_too_slowly(self, rel):
        # t_{k+1} = t_k 1e10 / (k + 1e5)^2 falls about as exp(-k^2 / 1e5):
        # no term falls to rel of the sum within _SERIES_MAX terms, and the
        # error carries the partial sum of all of them
        from kelvinwake.errors import AccuracyError

        with pytest.raises(AccuracyError, match="did not converge") as exc:
            sf._series_dd((1.0, 0.0), (1e10, 0.0), 1e5, 1e5, rel)
        terms = [1.0]
        for k in range(sf._SERIES_MAX):
            terms.append(terms[-1] * 1e10 / ((k + 1e5) * (k + 1e5)))
        assert abs(exc.value.value - math.fsum(terms)) <= 1e-12 * math.fsum(terms)


class TestLoopConstants:
    def test_harmonic_table_is_exact_to_34_digits(self):
        # each row is (H_k, H_k + H_{k+1}), the exact harmonic numbers
        # rounded once to the 34 digits of specfun._CTX
        assert len(sf._HARMONIC) == sf._SERIES_MAX
        h = Fraction(0)
        for k, row in enumerate(sf._HARMONIC):
            if k:
                h += Fraction(1, k)
            for got, exact in zip(row, (h, 2 * h + Fraction(1, k + 1))):
                want = sf._CTX.divide(Decimal(exact.numerator), Decimal(exact.denominator))
                assert got == want, k


def test_the_c_decimal_module_is_present():
    # the series and ladders run in decimal; the pure-Python fallback,
    # _pydecimal, sums a 22-term series about 35 times slower
    import _decimal

    assert decimal.Decimal is _decimal.Decimal
