"""Small-argument special function kernels.

Everything the wake expansions consume is evaluated here from ascending
series plus stable recurrences: Bessel J, Y, I, K of integer order, the
scaled Struve functions

    Hscal_nu(x) = (x/2)^(-nu) H_nu(x)
                = sum_k (-1)^k (x/2)^(2k+1) / (Gamma(k+3/2) Gamma(k+nu+3/2)),

    Kscal_m(x)  = x^m (H_m(x) - Y_m(x)),

the confluent hypergeometric series 1F1(a; b; z) and the upper incomplete
gamma function Gamma(a, chi) of integer order, by its closed form (the
grid check of Gamma(a, chi) at fractional a lives in bounds).

The regime is small arguments, 0 <= x <= ARG_MAX, and orders up to
ORDER_CAP: the wake expansions take J, Y and the scaled Struve H at x <= 3
and K at rho/2 <= 0.5, where ascending series converge in a few dozen
terms.  Series are summed in 34-digit decimal (_CTX), so the mild
cancellation of their terms there costs the returned doubles nothing
their error estimates do not count.  Each public kernel raises
RegimeError past ARG_MAX, where the series' cancellation outgrows the
estimates (K's first, as its value falls like e^-x), Y, K and Kscal also
below ARG_MIN, where the 1/x of their seeds leaves the double-double
range, and OrderOverflowError past ORDER_CAP.

Every ascending series t_{k+1} = t_k q / ((k + a)(k + b)), the sign of an
alternating one carried in q, runs through _series: J, I, Hscal, the
expansions' I_m factors and the seeds of their J_2m factors.  The log
series of Y0, Y1, K0, K1 is _log_series, with the harmonic numbers of
_HARMONIC, a module constant like _STRUVE_GAMMAS: it does not depend on
x, so it is no cache of results.  A run of consecutive Hscal orders at
one argument comes from the downward Struve recurrence, _hscal_window.
Each function that computes in decimal enters _CTX itself, whatever the
caller's decimal context.  The formulas composed of them stay in
double-double (ddouble): Y and K above order 1 by one upward recurrence,
_bessel_yk_dd, on the seeds _y01_dd and _k01_dd, Kscal, 1F1 and the
prelude of J and I; _from_dd and _to_dd convert at that boundary.

All functions are pure and safe for concurrent use.
"""

from __future__ import annotations

import decimal
import math
import numbers
from dataclasses import dataclass
from decimal import Decimal, localcontext

from . import ddouble as dd
from .errors import (AccuracyError, DomainError, OrderOverflowError, RangeOverflowError,
                     RegimeError)

#: Cap on the order of every public kernel and of expansions' Hscal
#: ladder; past it OrderOverflowError.  Below order 167 the Struve Gamma
#: chain Gamma(3/2) Gamma(order + 3/2) stays inside the range that
#: two_prod splits.
ORDER_CAP = 160

#: Largest argument of every public kernel; past it RegimeError.  It has
#: margin over the box's x <= 3, and every kernel holds its estimate up to
#: x = 8; at x = 10 the error of K_16 is 70 times its estimate.
ARG_MAX = 4.0

#: Smallest argument of Y, K and Kscal, and of bessho_F's K seeds at rho/2;
#: below it RegimeError.  The 1/x of the seeds Y1, K1 passes through a
#: double-double division whose split overflows once 1/x passes about
#: 1.34e300: the seeds are finite at 2^-996 and NaN at 2^-997.
ARG_MIN = 2.0 ** -996

#: An absolute floor of the estimates of J, I and Hscal, whose values and
#: terms can fall onto the subnormal grid, where 2.3e-16 of a value no
#: longer covers its rounding: four units of that grid.  J_160(0.5),
#: about 1e-381, rounds to 0.
_SUBNORMAL_FLOOR = 2.0 ** -1072

#: The working precision of the series and ladders: 34 digits, about
#: 1e-34 relative a step, a little finer than double-double.  Code enters
#: a copy (localcontext) or calls its methods; its sticky status flags
#: are never read.
_CTX = decimal.Context(prec=34, rounding=decimal.ROUND_HALF_EVEN)

_TWO_OVER_PI = dd.div((2.0, 0.0), dd.PI)
_SERIES_MAX = 800


@dataclass(frozen=True)
class SpecFunResult:
    """Value of a kernel evaluation with an error estimate.

    abs_error_estimate bounds truncation plus representation error; it is
    finite and >= 0.  terms_used counts series terms (plus recurrence steps
    where one was applied).
    """

    value: float
    abs_error_estimate: float
    terms_used: int


def _shown(n):
    """repr(n), or for an int too long to print (past about 4300 digits)
    its bit length."""
    try:
        return repr(n)
    except ValueError:
        return f"an integer of {n.bit_length()} bits"


def _check_int(n, lo, hi, message):
    """n as an int: an integral number (numpy integers included) from lo
    to hi, or from lo up where hi is None.  Otherwise DomainError with
    message.format(_shown(n)), so a "{}" in message shows n."""
    if type(n) is not int:
        if not isinstance(n, numbers.Integral):
            raise DomainError(message.format(_shown(n)))
        n = int(n)
    if n < lo or (hi is not None and n > hi):
        raise DomainError(message.format(_shown(n)))
    return n


def _check_order(order, cap):
    """order as an int: an integral number (numpy integers included)
    from 0 to cap; OrderOverflowError above cap."""
    order = _check_int(order, 0, None, "order must be a nonnegative integer, got {}")
    if order > cap:
        raise OrderOverflowError(f"order exceeds cap {cap}, got {_shown(order)}")
    return order


def _check_finite(x, name="argument"):
    """x as a float: a finite real number (numpy scalars included).  An
    int past the double range is refused as not finite."""
    if type(x) is float and math.isfinite(x):
        return x
    if isinstance(x, numbers.Real):
        try:
            v = float(x)
        except OverflowError:
            raise DomainError(f"{name} must be finite, got a number past "
                              "the double range") from None
        if math.isfinite(v):
            return v
    raise DomainError(f"{name} must be finite, got {x!r}")


def _check_regime(x, kernel, lo=0.0):
    """Refuse x past ARG_MAX, or below lo (ARG_MIN for the kernels whose
    seeds hold 1/x), with RegimeError naming the kernel."""
    if x > ARG_MAX:
        raise RegimeError(f"{kernel} supports x <= ARG_MAX = {ARG_MAX}, got {x!r}")
    if x < lo:
        raise RegimeError(f"{kernel} supports x >= ARG_MIN = {ARG_MIN!r}, got {x!r}")


def _from_dd(x):
    """The double-double x = (hi, lo) as a Decimal of _CTX."""
    return _CTX.add(Decimal(x[0]), Decimal(x[1]))


def _to_dd(s):
    """The Decimal s as a double-double (hi, lo): hi is s rounded to double."""
    hi = float(s)
    return hi, float(_CTX.subtract(s, Decimal(hi)))


def _series(t, q, a, b, rel):
    """sum_k t_k in _CTX, from the Decimal t_0 = t by

        t_{k+1} = t_k q / ((k + a)(k + b)),

    q a Decimal carrying the sign of an alternating series, a and b
    multiples of 1/2, so that each step divides by the integer
    (2k + 2a)(2k + 2b).  The sum stops at the first term at or below the
    Decimal rel of the partial sum, however small the sum (a zero term, as
    at x = 0, stops it).  Returns (sum, first omitted term magnitude, terms
    used), all but the count Decimals; AccuracyError after _SERIES_MAX
    terms.
    """
    a2, b2 = int(2 * a), int(2 * b)
    with localcontext(_CTX):
        q4 = 4 * q
        s = t
        for k2 in range(0, 2 * _SERIES_MAX, 2):
            t = t * q4 / ((k2 + a2) * (k2 + b2))
            if abs(t) <= rel * abs(s):
                return s, abs(t), k2 // 2 + 2
            s += t
        raise AccuracyError("ascending series did not converge", value=float(s))


def _series_dd(t, q, a, b, rel):
    """_series from the double-doubles t and q and the double rel: the sum
    as a double-double, the first omitted term as a double and the terms
    used."""
    s, tail, terms = _series(_from_dd(t), _from_dd(q), a, b, Decimal(rel))
    return _to_dd(s), float(tail), terms


def _ascending_series(n, x, sign):
    """sum_k sign^k (x/2)^(n+2k) / (k! (n+k)!): its first term in
    double-double, the sum by _series_dd.

    sign=-1 gives J_n, sign=+1 gives I_n.  Returns _series_dd's (dd_value,
    first omitted term magnitude, terms used).
    """
    h = 0.5 * x
    t = dd.ONE
    for i in range(1, n + 1):
        t = dd.div_d(dd.mul_d(t, h), float(i))
    return _series_dd(t, dd.two_prod(h, sign * h), 1.0, n + 1.0, 1e-21)


def bessel_j(order: int, x: float) -> SpecFunResult:
    """Bessel function of the first kind J_order(x) for 0 <= x <= ARG_MAX.

    The series' terms add up in absolute value to I_order(x), at most
    e^4 < 55 at x <= ARG_MAX; the decimal sum's rounding of them
    stays within the estimate, even at the doubles next to the zeros of
    J_0 and J_1, the only zeros below ARG_MAX."""
    order = _check_order(order, ORDER_CAP)
    x = _check_finite(x)
    if x < 0:
        raise DomainError("bessel_j requires x >= 0")
    _check_regime(x, "bessel_j")
    s, tail, terms = _ascending_series(order, x, -1)
    value = dd.to_float(s)
    return SpecFunResult(value, tail + 2.3e-16 * abs(value) + _SUBNORMAL_FLOOR, terms)


def bessel_i(order: int, x: float) -> SpecFunResult:
    """Modified Bessel function of the first kind I_order(x) for
    0 <= x <= ARG_MAX."""
    order = _check_order(order, ORDER_CAP)
    x = _check_finite(x)
    if x < 0:
        raise DomainError("bessel_i requires x >= 0")
    _check_regime(x, "bessel_i")
    s, tail, terms = _ascending_series(order, x, +1)
    value = dd.to_float(s)
    return SpecFunResult(value, tail + 2.3e-16 * abs(value) + _SUBNORMAL_FLOOR, terms)


def _log_half_plus_gamma(x):
    """ln(x/2) + gamma as a double-double (the log itself is a double)."""
    return dd.add_d(dd.EULER_GAMMA, math.log(0.5 * x))


def _log_rounding(x):
    """An ulp of ln(x/2), 2^-52 |ln(x/2)|: a bound on the rounding d of the
    double log in _log_half_plus_gamma.  Through the log series it moves
    Y0, Y1 by (2/pi) d J0, J1 and K0, K1 by -d I0, +d I1, and as J and I
    solve the same recurrences, Y_n(x) by (2/pi) d J_n(x) and K_n(x) by
    (-1)^(n+1) d I_n(x)."""
    return 2.0 ** -52 * abs(math.log(0.5 * x))


def _harmonic_table(n):
    """Rows (H_k, H_k + H_{k+1}) for k = 0 .. n - 1, each the harmonic
    numbers' sum to 50 digits rounded to the 34 of _CTX."""
    wide = decimal.Context(prec=50)
    h = Decimal(0)
    rows = []
    for k in range(n):
        if k:
            h = wide.add(h, wide.divide(1, k))
        rows.append((_CTX.plus(h), _CTX.plus(wide.add(wide.add(h, h), wide.divide(1, k + 1)))))
    return rows


#: _harmonic_table over every step of _log_series.  Like _STRUVE_GAMMAS it
#: does not depend on x: a constant of the series, not a cache of results.
_HARMONIC = _harmonic_table(_SERIES_MAX)

#: The relative stop of the log series and of its J0, J1, I0, I1.
_LOG_REL = Decimal(1e-21)
_LOG_FLOOR = Decimal(1e-30)


def _log_series(x, sign):
    """The ascending series shared by (Y0, Y1) and (K0, K1), DLMF 10.8.1
    and 10.31.2 layout, summed in _CTX.  With q = (x/2)^2 and H_k the
    harmonic numbers (from _HARMONIC),

        s0 = sum_{k>=1} sign^(k+1) H_k q^k / (k!)^2
        s1 = sum_{k>=0} sign^k (H_k + H_{k+1}) q^k / (k!(k+1)!).

    Returns (f0, f1, ln(x/2) + gamma, s0, s1, terms used), all but the
    count as double-doubles, where f0, f1 are J0, J1 for sign=-1 and I0, I1
    for sign=+1.  Their series share the terms t_k = (sign q)^k / (k!)^2
    and (x/2) u_k, u_k = (sign q)^k / (k!(k+1)!), with s0 and s1, and each
    of the three sums stops by its own rule, as _series would stop f0 and
    f1; the loop runs until all three have.
    """
    lg = _log_half_plus_gamma(x)
    with localcontext(_CTX):
        h = Decimal(0.5 * x)
        q = sign * (h * h)
        f0 = f1 = t = u = s1 = Decimal(1)   # the k = 0 terms of f0, f1 / h and s1
        s0 = Decimal(0)
        t0 = t1 = n = 0                     # the terms of f0, f1 and the log sums
        for k in range(1, _SERIES_MAX):
            t = t * q / (k * k)
            u = u * q / (k * (k + 1))
            if not t0:
                if abs(t) <= _LOG_REL * abs(f0):
                    t0 = k + 1
                else:
                    f0 += t
            if not t1:
                if abs(u) <= _LOG_REL * abs(f1):
                    t1 = k + 1
                else:
                    f1 += u
            if not n:
                hk, hsum = _HARMONIC[k]
                a, b = t * hk, u * hsum
                s0 += a
                s1 += b
                if abs(a) + abs(b) <= _LOG_REL * (abs(s0) + abs(s1) + _LOG_FLOOR):
                    n = k
            if t0 and t1 and n:
                break
        else:
            if not (t0 and t1):
                raise AccuracyError("ascending series did not converge",
                                    value=float(f0 if not t0 else h * f1))
            n = n or _SERIES_MAX
        return (_to_dd(f0), _to_dd(h * f1), lg, _to_dd(sign * s0), _to_dd(s1),
                t0 + t1 + n)


def _y01_dd(x):
    """(Y0, Y1) in double-double.  Ascending series, DLMF 10.8.1 layout."""
    j0, j1, lg, s0, s1, terms = _log_series(x, -1)
    y0 = dd.mul(_TWO_OVER_PI, dd.add(dd.mul(lg, j0), s0))
    y1 = dd.sub(dd.mul(_TWO_OVER_PI, dd.sub(dd.mul(lg, j1), dd.div_d(dd.ONE, x))),
                dd.mul(dd.div(dd.from_float(0.5 * x), dd.PI), s1))
    return y0, y1, terms


def _k01_dd(x):
    """(K0, K1) in double-double.  Ascending series, DLMF 10.31.2 layout."""
    i0, i1, lg, s0, s1, terms = _log_series(x, +1)
    k0 = dd.add(dd.neg(dd.mul(lg, i0)), s0)
    k1 = dd.add(dd.div_d(dd.ONE, x),
                dd.sub(dd.mul(lg, i1), dd.mul(dd.from_float(0.25 * x), s1)))
    return k0, k1, terms


def _bessel_yk_dd(order, x, sign):
    """Y_order(x) (sign=-1) or K_order(x) (sign=+1) in double-double by the
    stable upward recurrence f_{m+1} = (2m/x) f_m + sign f_{m-1}."""
    fm, fc, terms = (_y01_dd if sign < 0 else _k01_dd)(x)
    if order == 0:
        return fm, terms
    for m in range(1, order):
        fn = dd.add(dd.mul(dd.div_d(dd.from_float(2.0 * m), x), fc),
                    (sign * fm[0], sign * fm[1]))
        if not math.isfinite(fn[0]):
            raise RangeOverflowError(
                f"{'Y' if sign < 0 else 'K'}_{m + 1}({x}) exceeds double range")
        fm, fc = fc, fn
    return fc, terms + order


def bessel_y(order: int, x: float) -> SpecFunResult:
    """Bessel function of the second kind Y_order(x) for
    ARG_MIN <= x <= ARG_MAX.

    The estimate adds to a few ulps of the value the rounding of the
    double log (see _log_rounding)."""
    order = _check_order(order, ORDER_CAP)
    x = _check_finite(x)
    if x <= 0:
        raise DomainError("bessel_y requires x > 0 (logarithmic branch point at 0)")
    _check_regime(x, "bessel_y", ARG_MIN)
    y, terms = _bessel_yk_dd(order, x, -1)
    value = dd.to_float(y)
    jn = dd.to_float(_ascending_series(order, x, -1)[0])
    err = abs(value) * (3e-16 + 1e-16 * order) + (2.0 / math.pi) * _log_rounding(x) * abs(jn)
    return SpecFunResult(value, err, terms)


def bessel_k(order: int, x: float) -> SpecFunResult:
    """Modified Bessel function of the second kind K_order(x) for
    ARG_MIN <= x <= ARG_MAX.

    The estimate adds to a few ulps of the value the rounding of the
    double log, which grows as I_order(x) while K falls as e^-x: at
    x = ARG_MAX it is about 1000 ulps of K_0."""
    order = _check_order(order, ORDER_CAP)
    x = _check_finite(x)
    if x <= 0:
        raise DomainError("bessel_k requires x > 0")
    _check_regime(x, "bessel_k", ARG_MIN)
    k, terms = _bessel_yk_dd(order, x, +1)
    value = dd.to_float(k)
    i_n = dd.to_float(_ascending_series(order, x, +1)[0])
    err = abs(value) * (3e-16 + 1e-16 * order) + _log_rounding(x) * i_n
    return SpecFunResult(value, err, terms)


def _struve_gammas(order_max):
    """Gamma(3/2) Gamma(nu + 3/2) for nu = 0 .. order_max as double-doubles,
    by one chain of products."""
    g = dd.mul(dd.mul_d(dd.SQRT_PI, 0.5), dd.mul_d(dd.SQRT_PI, 0.5))  # Gamma(3/2)^2
    gammas = [g]
    for j in range(order_max):
        g = dd.mul_d(g, 1.5 + j)
        gammas.append(g)
    return gammas


#: _struve_gammas over every order the kernels serve, 0 .. ORDER_CAP.
_STRUVE_GAMMAS = _struve_gammas(ORDER_CAP)


def _struve_h_series(order, x):
    """The scaled Struve series of order at x, its first term in
    double-double: _series_dd's (dd_value, first omitted term, terms).  Terms are
    strictly alternating and, in the supported range, decrease
    monotonically after at most a few initial terms, so the first omitted
    term bounds the truncation error."""
    h = 0.5 * x
    # t0 = (x/2) / (Gamma(3/2) Gamma(order+3/2))
    t0 = dd.div(dd.from_float(h), _STRUVE_GAMMAS[order])
    return _series_dd(t0, dd.two_prod(h, -h), 1.5, order + 1.5, 1e-17)


#: The relative stop of the scaled Struve series.
_HSCAL_REL = Decimal(1e-17)


def _hscal_window(x, j0, j1):
    """[Hscal_j0(x), ..., Hscal_j1(x)] as Decimals, 0 <= j0 <= j1 <
    ORDER_CAP.

    With h = x/2 and w = h^2, the Struve recurrence (DLMF 11.4.23) reads

        Hscal_{v-1} = v Hscal_v - w Hscal_{v+1} + h / (sqrt(pi) Gamma(v + 3/2)).

    Hscal_{j1+1} and Hscal_j1 are summed as ascending series, and the
    orders below follow from them by the recurrence, all in _CTX.  Taken
    downwards it is stable: J_v's counterpart shrinks relative to Hscal as
    v falls, and Y_v's falls off.  The inhomogeneous term starts at
    (h/2) / _STRUVE_GAMMAS[j1] and gains a factor v + 1/2 a step down.
    """
    with localcontext(_CTX):
        h = Decimal(0.5 * x)
        minus_w = -(h * h)
        t0 = h / _from_dd(_STRUVE_GAMMAS[j1])       # the first term of Hscal_j1
        upper = _series(2 * t0 / (2 * j1 + 3), minus_w, 1.5, j1 + 2.5, _HSCAL_REL)[0]
        f = _series(t0, minus_w, 1.5, j1 + 1.5, _HSCAL_REL)[0]
        inh = t0 / 2
        out = [f]
        for v in range(j1, j0, -1):
            upper, f = f, f * v + minus_w * upper + inh
            inh = inh * (2 * v + 1) / 2
            out.append(f)
    out.reverse()
    return out


def struve_h_scaled(order: int, x: float) -> SpecFunResult:
    """Scaled Struve function (x/2)^(-order) H_order(x) for
    0 <= x <= ARG_MAX.

    The series stops once the next term falls below 1e-17 of the partial
    sum; the first omitted term is reported as the truncation bound.
    """
    order = _check_order(order, ORDER_CAP)
    x = _check_finite(x)
    if x < 0:
        raise DomainError("struve_h_scaled requires x >= 0")
    _check_regime(x, "struve_h_scaled")
    if x == 0.0:
        return SpecFunResult(0.0, 0.0, 1)
    s, tail, terms = _struve_h_series(order, x)
    value = dd.to_float(s)
    return SpecFunResult(value, tail + 2.3e-16 * abs(value) + _SUBNORMAL_FLOOR, terms)


def struve_k_scaled(order: int, x: float) -> SpecFunResult:
    """Kscal_m(x) = x^m (H_m(x) - Y_m(x)), the decaying Struve combination,
    for ARG_MIN <= x <= ARG_MAX.

    Both parts are computed with ~32-digit working precision, and the error
    estimate carries their absolute uncertainties through the subtraction,
    so any cancellation between them (mild for x <= ARG_MAX) surfaces
    directly as a larger relative estimate.
    """
    order = _check_order(order, ORDER_CAP)
    x = _check_finite(x)
    if x <= 0:
        raise DomainError("struve_k_scaled requires x > 0")
    _check_regime(x, "struve_k_scaled", ARG_MIN)
    hs, htail, hterms = _struve_h_series(order, x)
    # H_m(x) = (x/2)^m * Hscal_m(x)
    pw = dd.ONE
    for _ in range(order):
        pw = dd.mul_d(pw, 0.5 * x)
    hm = dd.mul(pw, hs)
    ym, yterms = _bessel_yk_dd(order, x, -1)
    diff = dd.sub(hm, ym)
    xm = dd.ONE
    for _ in range(order):
        xm = dd.mul_d(xm, x)
    val = dd.mul(xm, diff)
    value = dd.to_float(val)
    if not math.isfinite(value):
        raise RangeOverflowError(f"Kscal_{order}({x}) exceeds double range")
    # absolute error: series tails scaled into place plus cancellation noise
    biggest = max(abs(hm[0]), abs(ym[0]))
    err = dd.to_float(xm) * (htail * abs(pw[0]) + 3e-16 * abs(ym[0]) + 1e-31 * biggest)
    err += 2.3e-16 * abs(value)
    return SpecFunResult(value, err, hterms + yterms)


def kummer_1f1(a: float, b: float, z: float) -> SpecFunResult:
    """Confluent hypergeometric function 1F1(a; b; z) for |z| <= 50.

    Direct series for z >= -5; for more negative z the reflection
    1F1(a;b;z) = e^z 1F1(b-a;b;-z) turns the sum into one with positive
    argument and no cancellation.
    """
    a = _check_finite(a)
    b = _check_finite(b)
    z = _check_finite(z)
    if b <= 0 and b == int(b):
        raise DomainError("1F1 is undefined for b a non-positive integer")
    if abs(z) > 50:
        raise DomainError("kummer_1f1 supports |z| <= 50")
    if z < -5.0:
        inner = kummer_1f1(b - a, b, -z)
        scale = math.exp(z)
        value = scale * inner.value
        err = scale * inner.abs_error_estimate + abs(value) * (abs(z) + 1) * 1.2e-16
        return SpecFunResult(value, err, inner.terms_used)
    s = dd.ONE
    t = dd.ONE
    size = 1.0
    k = 0
    small = 0
    while k < 1500:
        t = dd.div_d(dd.mul_d(t, (a + k) * z), (b + k) * (k + 1))
        size += abs(t[0])
        if abs(t[0]) <= 1e-21 * abs(s[0]) + 1e-305:
            small += 1
            if small >= 3:
                break
        else:
            small = 0
        s = dd.add(s, t)
        k += 1
    else:
        raise AccuracyError("1F1 series did not converge", value=dd.to_float(s))
    value = dd.to_float(s)
    # term i carries the roundings of i double ratios (a + j) z / ((b + j)(j + 1));
    # 2^-52 (k + 2) of the sum of |terms| covers them where the sum cancels
    err = abs(t[0]) + 2.3e-16 * abs(value) + 2.0 ** -52 * (k + 2) * size
    return SpecFunResult(value, err, k + 1)


def upper_inc_gamma(a: float, chi: float) -> SpecFunResult:
    """Upper incomplete gamma function Gamma(a, chi) for integer a from 1
    to 300 and 0 < chi <= 700, by the finite closed form.

    Any other a, fractional or 0, raises DomainError: the oracle's tail
    cuts take Gamma(2k + 1, chi) only, and bounds checks Gamma(a, chi) at
    fractional a by its own continued fraction.  Raises RangeOverflowError
    when the value exceeds the double range.
    """
    a = _check_finite(a)
    chi = _check_finite(chi)
    if a < 1 or a != int(a) or chi <= 0:
        raise DomainError(f"upper_inc_gamma requires an integer a >= 1 and chi > 0, "
                          f"got a = {a!r}, chi = {chi!r}")
    if a > 300 or chi > 700:
        raise DomainError("upper_inc_gamma supports a <= 300, chi <= 700")

    n = int(a)
    # Gamma(n, chi) = (n-1)! e^-chi sum_{k<n} chi^k / k!; the sum times
    # e^-chi is a Poisson tail in (0, 1], so only (n-1)! can overflow.
    s = 1.0
    term = 1.0
    for k in range(1, n):
        term *= chi / k
        s += term
    poisson = math.exp(-chi) * s if s != math.inf else math.inf
    if not math.isfinite(poisson):
        logv = math.lgamma(n) - chi + math.log(s) if math.isfinite(s) else math.inf
        raise RangeOverflowError(f"Gamma({n}, {chi}) ~ exp({logv:.1f}) exceeds double range")
    if n <= 170:
        value = math.factorial(n - 1) * poisson
    else:
        logv = math.lgamma(n) + math.log(poisson)
        if logv > 709.0:
            raise RangeOverflowError(f"Gamma({n}, {chi}) exceeds double range")
        value = math.exp(logv)
    return SpecFunResult(value, abs(value) * 3e-15, n)
