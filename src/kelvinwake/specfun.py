"""Small-argument special function kernels.

Everything the wake expansions consume is evaluated here from ascending
series plus stable recurrences: Bessel J, Y, I, K of integer order, the
scaled Struve functions

    Hscal_nu(x) = (x/2)^(-nu) H_nu(x)
                = sum_k (-1)^k (x/2)^(2k+1) / (Gamma(k+3/2) Gamma(k+nu+3/2)),

    Kscal_m(x)  = x^m (H_m(x) - Y_m(x)),

the confluent hypergeometric series 1F1(a; b; z) and the upper incomplete
gamma function Gamma(a, chi).

The target regime is small arguments (x <= ~10, and in practice x <= 3 for
the wake problem), where ascending series converge in a few dozen terms.
Series are accumulated in double-double arithmetic so that the returned
doubles are correctly rounded to well below 1e-13 relative error even when
intermediate terms grow above the result (mild cancellation at x ~ 10).

Every ascending series t_{k+1} = t_k q / ((k + a)(k + b)), the sign of an
alternating one carried in q, runs through _series_dd: J, I, Hscal, the
expansions' I_m factors and the seeds of their J_2m factors.  Y and K
above order 1 share one upward recurrence, _bessel_yk_dd; a run of
consecutive Hscal orders at one argument comes from the downward Struve
recurrence, _hscal_window.

All functions are pure and safe for concurrent use.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

from . import ddouble as dd
from .errors import AccuracyError, DomainError, OrderOverflowError, RangeOverflowError

#: Cap on the order of J, I and Hscal; Y, K and Kscal take twice it.
#: Exceeding a cap raises OrderOverflowError.
ORDER_CAP = 200

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


def _check_int(n, lo, hi, message):
    """n as an int: an integral number (numpy integers included) from lo
    to hi, or from lo up where hi is None.  Otherwise DomainError with
    message.format(n), so a "{!r}" in message shows n."""
    if type(n) is not int:
        if not isinstance(n, numbers.Integral):
            raise DomainError(message.format(n))
        n = int(n)
    if n < lo or (hi is not None and n > hi):
        raise DomainError(message.format(n))
    return n


def _check_order(order, cap):
    """order as an int: an integral number (numpy integers included)
    from 0 to cap; OrderOverflowError above cap."""
    order = _check_int(order, 0, None, "order must be a nonnegative integer, got {!r}")
    if order > cap:
        raise OrderOverflowError(f"order {order} exceeds cap {cap}")
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


def _series_dd(t, q, a, b, rel):
    """sum_k t_k in double-double, from t_0 = t by

        t_{k+1} = t_k q / ((k + a)(k + b)),

    q carrying the sign of an alternating series.  The sum stops at the
    first term at or below rel of the partial sum, however small the sum
    (a zero term, as at x = 0, stops it).  Returns
    (sum, first omitted term magnitude, terms used); AccuracyError after
    _SERIES_MAX terms.
    """
    s = t
    for k in range(_SERIES_MAX):
        t = dd.div_d(dd.mul(t, q), (k + a) * (k + b))
        if abs(t[0]) <= rel * abs(s[0]):
            return s, abs(t[0]), k + 2
        s = dd.add(s, t)
    raise AccuracyError("ascending series did not converge", value=dd.to_float(s))


def _ascending_series(n, x, sign):
    """sum_k sign^k (x/2)^(n+2k) / (k! (n+k)!) in double-double.

    sign=-1 gives J_n, sign=+1 gives I_n.  Returns _series_dd's (dd_value,
    first omitted term magnitude, terms used).
    """
    h = 0.5 * x
    t = dd.ONE
    for i in range(1, n + 1):
        t = dd.div_d(dd.mul_d(t, h), float(i))
    return _series_dd(t, dd.two_prod(h, sign * h), 1.0, n + 1.0, 1e-21)


def bessel_j(order: int, x: float) -> SpecFunResult:
    """Bessel function of the first kind J_order(x) for x >= 0."""
    order = _check_order(order, ORDER_CAP)
    x = _check_finite(x)
    if x < 0:
        raise DomainError("bessel_j requires x >= 0")
    s, tail, terms = _ascending_series(order, x, -1)
    value = dd.to_float(s)
    return SpecFunResult(value, tail + 2.3e-16 * abs(value), terms)


def bessel_i(order: int, x: float) -> SpecFunResult:
    """Modified Bessel function of the first kind I_order(x) for x >= 0."""
    order = _check_order(order, ORDER_CAP)
    x = _check_finite(x)
    if x < 0:
        raise DomainError("bessel_i requires x >= 0")
    s, tail, terms = _ascending_series(order, x, +1)
    value = dd.to_float(s)
    return SpecFunResult(value, tail + 2.3e-16 * abs(value), terms)


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


def _log_series(x, sign):
    """The ascending series shared by (Y0, Y1) and (K0, K1), DLMF 10.8.1
    and 10.31.2 layout, in double-double.  With q = (x/2)^2 and H_k the
    harmonic numbers,

        s0 = sum_{k>=1} sign^(k+1) H_k q^k / (k!)^2
        s1 = sum_{k>=0} sign^k (H_k + H_{k+1}) q^k / (k!(k+1)!).

    Returns (f0, f1, ln(x/2) + gamma, s0, s1, terms used), where f0, f1 are
    J0, J1 for sign=-1 and I0, I1 for sign=+1.
    """
    q = dd.two_prod(0.5 * x, 0.5 * x)
    f0, _, t0 = _ascending_series(0, x, sign)
    f1, _, t1 = _ascending_series(1, x, sign)
    lg = _log_half_plus_gamma(x)

    s0 = dd.ZERO
    s1 = dd.ONE           # the k = 0 term of s1 is 1
    h = dd.ZERO
    t = dd.ONE
    u = dd.ONE
    k = 1
    while k < _SERIES_MAX:
        t = dd.div_d(dd.mul(t, q), float(k * k))
        u = dd.div_d(dd.mul(u, q), float(k * (k + 1)))
        h = dd.add(h, dd.div_d(dd.ONE, float(k)))
        hsum = dd.add(dd.mul_d(h, 2.0), dd.div_d(dd.ONE, float(k + 1)))  # H_k + H_{k+1}
        term0 = dd.mul(t, h)
        term1 = dd.mul(u, hsum)
        if sign < 0:
            if k % 2 == 0:
                term0 = dd.neg(term0)
            else:
                term1 = dd.neg(term1)
        s0 = dd.add(s0, term0)
        s1 = dd.add(s1, term1)
        if abs(term0[0]) + abs(term1[0]) <= 1e-21 * (abs(s0[0]) + abs(s1[0]) + 1e-30):
            break
        k += 1
    return f0, f1, lg, s0, s1, t0 + t1 + k


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
    """Bessel function of the second kind Y_order(x) for x > 0."""
    order = _check_order(order, 2 * ORDER_CAP)
    x = _check_finite(x)
    if x <= 0:
        raise DomainError("bessel_y requires x > 0 (logarithmic branch point at 0)")
    y, terms = _bessel_yk_dd(order, x, -1)
    value = dd.to_float(y)
    jn = dd.to_float(_ascending_series(order, x, -1)[0])
    err = abs(value) * (3e-16 + 1e-16 * order) + (2.0 / math.pi) * _log_rounding(x) * abs(jn)
    return SpecFunResult(value, err, terms)


def bessel_k(order: int, x: float) -> SpecFunResult:
    """Modified Bessel function of the second kind K_order(x) for x > 0."""
    order = _check_order(order, 2 * ORDER_CAP)
    x = _check_finite(x)
    if x <= 0:
        raise DomainError("bessel_k requires x > 0")
    k, terms = _bessel_yk_dd(order, x, +1)
    value = dd.to_float(k)
    i_n = dd.to_float(_ascending_series(order, x, +1)[0])
    err = abs(value) * (3e-16 + 1e-16 * order) + _log_rounding(x) * i_n
    return SpecFunResult(value, err, terms)


#: Largest double that two_prod splits without overflow ((2^27 + 1) a must
#: stay finite); the Struve Gamma chain is rescaled before it passes this.
_SPLIT_MAX = 2.0 ** 996


def _struve_gammas(order_max):
    """Gamma(3/2) Gamma(nu + 3/2) for nu = 0 .. order_max as pairs (g, e),
    g a double-double and g 2^e the value, by one chain of products.  e is
    0 up to order 166; past _SPLIT_MAX (order 167 on) g is scaled down by
    2^512 at a time, since dd's products split it and Gamma(168.5)
    already overflows."""
    g = dd.mul(dd.mul_d(dd.SQRT_PI, 0.5), dd.mul_d(dd.SQRT_PI, 0.5))  # Gamma(3/2)^2
    e = 0
    gammas = [(g, e)]
    for j in range(order_max):
        g = dd.mul_d(g, 1.5 + j)
        if g[0] > _SPLIT_MAX:
            g, e = (math.ldexp(g[0], -512), math.ldexp(g[1], -512)), e + 512
        gammas.append((g, e))
    return gammas


#: _struve_gammas over every order the scalar kernel serves, 0 .. 2 ORDER_CAP.
_STRUVE_GAMMAS = _struve_gammas(2 * ORDER_CAP)


def _struve_h_series(order, x, shift=0):
    """The scaled Struve series of order at x times 2^(e + shift), e the
    exponent of _STRUVE_GAMMAS[order]: _series_dd's (dd_value, first
    omitted term, terms).  Terms are strictly alternating and, in the
    supported range, decrease monotonically after at most a few initial
    terms, so the first omitted term bounds the truncation error."""
    h = 0.5 * x
    # t0 = (x/2) / (Gamma(3/2) Gamma(order+3/2)) = 2^-e h / g
    t0 = dd.div(dd.from_float(math.ldexp(h, shift)), _STRUVE_GAMMAS[order][0])
    return _series_dd(t0, dd.two_prod(h, -h), 1.5, order + 1.5, 1e-17)


def _struve_h_scaled_dd(order, x):
    """Scaled Struve series in double-double.

    Returns _series_dd's (dd_value, first omitted term, terms).  From
    order 167 on the series runs on the terms times 2^e (_STRUVE_GAMMAS)
    and is scaled back at the end, where it may round to the subnormal
    grid or to 0: the omitted term then carries 2^-1074 for that rounding.
    """
    s, tail, terms = _struve_h_series(order, x)
    e = _STRUVE_GAMMAS[order][1]
    if e:
        s = (math.ldexp(s[0], -e), math.ldexp(s[1], -e))
        tail = math.ldexp(tail, -e) + 2.0 ** -1074
    return s, tail, terms


def _hscal_window(x, j0, j1):
    """[Hscal_j0(x), ..., Hscal_j1(x)] rounded to double, 0 <= j0 <= j1 <
    2 ORDER_CAP.

    With h = x/2 and w = h^2, the Struve recurrence (DLMF 11.4.23) reads

        Hscal_{v-1} = v Hscal_v - w Hscal_{v+1} + h / (sqrt(pi) Gamma(v + 3/2)).

    Hscal_{j1+1} and Hscal_j1 are summed as ascending series, and the
    orders below follow from them by the recurrence in double-double.
    Taken downwards it is stable: J_v's counterpart shrinks relative to
    Hscal as v falls, and Y_v's falls off.  The inhomogeneous term starts
    at (h/2) / _STRUVE_GAMMAS[j1] and gains a factor v + 1/2 a step down.
    Everything runs times 2^k, k the exponent of _STRUVE_GAMMAS[j1 + 1]
    less that of h, and is scaled back at the end, so that no seed is
    subnormal where the values are not: past order 166, or at a tiny x.
    """
    h = 0.5 * x
    minus_w = dd.two_prod(h, -h)
    e, e1 = _STRUVE_GAMMAS[j1 + 1][1], _STRUVE_GAMMAS[j1][1]
    k = e - math.frexp(h)[1]
    upper = _struve_h_series(j1 + 1, x, k - e)[0]
    f = _struve_h_series(j1, x, k - e1)[0]
    inh = dd.div(dd.from_float(math.ldexp(h, k - e1 - 1)), _STRUVE_GAMMAS[j1][0])
    out = [f]
    for v in range(j1, j0, -1):
        upper, f = f, dd.add(dd.add(dd.mul_d(f, float(v)), dd.mul(minus_w, upper)), inh)
        inh = dd.mul_d(inh, v + 0.5)
        out.append(f)
    out.reverse()
    return [math.ldexp(hi, -k) + math.ldexp(lo, -k) for hi, lo in out]


def struve_h_scaled(order: int, x: float) -> SpecFunResult:
    """Scaled Struve function (x/2)^(-order) H_order(x) for x >= 0.

    The series stops once the next term falls below 1e-17 of the partial
    sum; the first omitted term is reported as the truncation bound.
    """
    order = _check_order(order, ORDER_CAP)
    x = _check_finite(x)
    if x < 0:
        raise DomainError("struve_h_scaled requires x >= 0")
    if x == 0.0:
        return SpecFunResult(0.0, 0.0, 1)
    s, tail, terms = _struve_h_scaled_dd(order, x)
    value = dd.to_float(s)
    return SpecFunResult(value, tail + 2.3e-16 * abs(value), terms)


def struve_k_scaled(order: int, x: float) -> SpecFunResult:
    """Kscal_m(x) = x^m (H_m(x) - Y_m(x)), the decaying Struve combination.

    Both parts are computed with ~32-digit working precision, and the error
    estimate carries their absolute uncertainties through the subtraction,
    so any cancellation between them (mild for x <= 3, heavier as x grows)
    surfaces directly as a larger relative estimate.
    """
    order = _check_order(order, 2 * ORDER_CAP)
    x = _check_finite(x)
    if x <= 0:
        raise DomainError("struve_k_scaled requires x > 0")
    hs, htail, hterms = _struve_h_scaled_dd(order, x)
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


def _upper_gamma_cf(a, chi):
    """Continued fraction for Gamma(a, chi) * e^chi * chi^(-a); chi > a+1."""
    tiny = 1e-300
    b = chi + 1.0 - a
    c = 1.0 / tiny
    d = 1.0 / b
    h = d
    for i in range(1, 600):
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
    raise AccuracyError("incomplete gamma continued fraction did not converge")


def _lower_gamma_series(a, chi):
    """Series for gamma(a, chi) * e^chi * chi^(-a) * a; chi <= a+1."""
    term = 1.0
    total = 1.0
    ap = a
    for i in range(1, 800):
        ap += 1.0
        term *= chi / ap
        total += term
        if abs(term) < abs(total) * 1e-17:
            return total, i
    raise AccuracyError("incomplete gamma series did not converge")


def upper_inc_gamma(a: float, chi: float) -> SpecFunResult:
    """Upper incomplete gamma function Gamma(a, chi) for a >= 0, chi > 0.

    Integer a uses the finite closed form; otherwise a continued fraction
    (chi > a+1) or the lower-gamma series (chi <= a+1).  Raises
    RangeOverflowError when the value exceeds the double range.
    """
    a = _check_finite(a)
    chi = _check_finite(chi)
    if a < 0 or chi <= 0:
        raise DomainError("upper_inc_gamma requires a >= 0 and chi > 0")
    if a > 300 or chi > 700:
        raise DomainError("upper_inc_gamma supports a <= 300, chi <= 700")

    if a == 0.0:
        if chi >= 1.0:
            h, it = _upper_gamma_cf(a, chi)
            value = math.exp(-chi) * h
            return SpecFunResult(value, abs(value) * 4e-15, it)
        # E1 by its alternating series
        total = -dd.to_float(dd.EULER_GAMMA) - math.log(chi)
        term = 1.0
        for k in range(1, 60):
            term *= -chi / k
            total -= term / k
            if abs(term) < 1e-18:
                break
        return SpecFunResult(total, abs(total) * 4e-15 + 1e-18, k)

    if a == int(a) and a <= 300:
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

    if chi > a + 1.0:
        h, it = _upper_gamma_cf(a, chi)
        logpre = a * math.log(chi) - chi
        if logpre + math.log(abs(h)) > 709.0:
            raise RangeOverflowError(f"Gamma({a}, {chi}) exceeds double range")
        value = math.exp(logpre) * h
        return SpecFunResult(value, abs(value) * 5e-15, it)

    total, it = _lower_gamma_series(a, chi)
    loggam = math.lgamma(a)
    if loggam > 700.0:
        raise RangeOverflowError(f"Gamma({a}, {chi}) exceeds double range")
    gamma_a = math.gamma(a)
    lower = math.exp(a * math.log(chi) - chi) * total / a
    value = gamma_a - lower
    err = (gamma_a + lower) * 4e-16 + abs(value) * 3e-15
    return SpecFunResult(value, err, it)
