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

All functions are pure and safe for concurrent use.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from . import ddouble as dd
from .errors import AccuracyError, DomainError, OrderOverflowError, RangeOverflowError

#: Default cap on function order; exceeding it raises OrderOverflowError.
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


def _check_order(order, cap):
    if not isinstance(order, int) or order < 0:
        raise DomainError(f"order must be a nonnegative integer, got {order!r}")
    if order > cap:
        raise OrderOverflowError(f"order {order} exceeds cap {cap}")


def _check_finite(x):
    if not (isinstance(x, (int, float)) and math.isfinite(x)):
        raise DomainError(f"argument must be finite, got {x!r}")
    return float(x)


def _ascending_series(n, x, sign):
    """sum_k sign^k (x/2)^(n+2k) / (k! (n+k)!) in double-double.

    sign=-1 gives J_n, sign=+1 gives I_n.  Returns (dd_value, first omitted
    term magnitude, terms used).
    """
    h = 0.5 * x
    q = dd.two_prod(h, h)
    t = dd.ONE
    for i in range(1, n + 1):
        t = dd.div_d(dd.mul_d(t, h), float(i))
    s = t
    k = 0
    while k < _SERIES_MAX:
        t = dd.div_d(dd.mul(t, q), float((k + 1) * (n + k + 1)))
        if sign < 0:
            t = dd.neg(t)
        if abs(t[0]) <= 1e-21 * abs(s[0]) + 1e-305:
            return s, abs(t[0]), k + 2
        s = dd.add(s, t)
        k += 1
    raise AccuracyError("ascending Bessel series did not converge", value=dd.to_float(s))


def bessel_j(order: int, x: float, order_cap: int = ORDER_CAP) -> SpecFunResult:
    """Bessel function of the first kind J_order(x) for x >= 0."""
    _check_order(order, order_cap)
    x = _check_finite(x)
    if x < 0:
        raise DomainError("bessel_j requires x >= 0")
    s, tail, terms = _ascending_series(order, x, -1)
    value = dd.to_float(s)
    return SpecFunResult(value, tail + 2.3e-16 * abs(value), terms)


def bessel_i(order: int, x: float, order_cap: int = ORDER_CAP) -> SpecFunResult:
    """Modified Bessel function of the first kind I_order(x) for x >= 0."""
    _check_order(order, order_cap)
    x = _check_finite(x)
    if x < 0:
        raise DomainError("bessel_i requires x >= 0")
    s, tail, terms = _ascending_series(order, x, +1)
    value = dd.to_float(s)
    return SpecFunResult(value, tail + 2.3e-16 * abs(value), terms)


def _log_half_plus_gamma(x):
    """ln(x/2) + gamma as a double-double (the log itself is a double)."""
    return dd.add_d(dd.EULER_GAMMA, math.log(0.5 * x))


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


def _bessel_y_dd(order, x):
    """Y_order(x) in double-double by stable upward recurrence."""
    y0, y1, terms = _y01_dd(x)
    if order == 0:
        return y0, terms
    if order == 1:
        return y1, terms + 1
    ym, yc = y0, y1
    for m in range(1, order):
        yn = dd.sub(dd.mul(dd.div_d(dd.from_float(2.0 * m), x), yc), ym)
        if not math.isfinite(yn[0]):
            raise RangeOverflowError(f"Y_{m + 1}({x}) exceeds double range")
        ym, yc = yc, yn
    return yc, terms + order


def _bessel_k_dd(order, x):
    """K_order(x) in double-double by stable upward recurrence."""
    k0, k1, terms = _k01_dd(x)
    if order == 0:
        return k0, terms
    if order == 1:
        return k1, terms + 1
    km, kc = k0, k1
    for m in range(1, order):
        kn = dd.add(km, dd.mul(dd.div_d(dd.from_float(2.0 * m), x), kc))
        if not math.isfinite(kn[0]):
            raise RangeOverflowError(f"K_{m + 1}({x}) exceeds double range")
        km, kc = kc, kn
    return kc, terms + order


def bessel_y(order: int, x: float, order_cap: int = 2 * ORDER_CAP) -> SpecFunResult:
    """Bessel function of the second kind Y_order(x) for x > 0."""
    _check_order(order, order_cap)
    x = _check_finite(x)
    if x <= 0:
        raise DomainError("bessel_y requires x > 0 (logarithmic branch point at 0)")
    y, terms = _bessel_y_dd(order, x)
    value = dd.to_float(y)
    err = abs(value) * (3e-16 + 1e-16 * order)
    return SpecFunResult(value, err, terms)


def bessel_k(order: int, x: float, order_cap: int = 2 * ORDER_CAP) -> SpecFunResult:
    """Modified Bessel function of the second kind K_order(x) for x > 0."""
    _check_order(order, order_cap)
    x = _check_finite(x)
    if x <= 0:
        raise DomainError("bessel_k requires x > 0")
    k, terms = _bessel_k_dd(order, x)
    value = dd.to_float(k)
    err = abs(value) * (3e-16 + 1e-16 * order)
    return SpecFunResult(value, err, terms)


def _struve_h_scaled_dd(order, x):
    """Scaled Struve series in double-double.

    Returns (dd_value, first omitted term, terms).  Terms are strictly
    alternating and, in the supported range, decrease monotonically after
    at most a few initial terms, so the first omitted term bounds the
    truncation error.
    """
    h = 0.5 * x
    q = dd.two_prod(h, h)
    # t0 = (x/2) / (Gamma(3/2) Gamma(order+3/2))
    g = dd.mul(dd.mul_d(dd.SQRT_PI, 0.5), dd.mul_d(dd.SQRT_PI, 0.5))  # Gamma(3/2)^2
    for j in range(order):
        g = dd.mul_d(g, 1.5 + j)
    t = dd.div(dd.from_float(h), g)
    s = t
    k = 0
    while k < _SERIES_MAX:
        t = dd.neg(dd.div_d(dd.mul(t, q), (k + 1.5) * (k + order + 1.5)))
        if abs(t[0]) <= 1e-17 * abs(s[0]) + 1e-305:
            return s, abs(t[0]), k + 2
        s = dd.add(s, t)
        k += 1
    raise AccuracyError("scaled Struve series did not converge", value=dd.to_float(s))


def struve_h_scaled(order: int, x: float, order_cap: int = ORDER_CAP) -> SpecFunResult:
    """Scaled Struve function (x/2)^(-order) H_order(x) for x >= 0.

    The series stops once the next term falls below 1e-17 of the partial
    sum; the first omitted term is reported as the truncation bound.
    """
    _check_order(order, order_cap)
    x = _check_finite(x)
    if x < 0:
        raise DomainError("struve_h_scaled requires x >= 0")
    if x == 0.0:
        return SpecFunResult(0.0, 0.0, 1)
    s, tail, terms = _struve_h_scaled_dd(order, x)
    value = dd.to_float(s)
    return SpecFunResult(value, tail + 2.3e-16 * abs(value), terms)


def struve_k_scaled(order: int, x: float, order_cap: int = 2 * ORDER_CAP) -> SpecFunResult:
    """Kscal_m(x) = x^m (H_m(x) - Y_m(x)), the decaying Struve combination.

    Both parts are computed with ~32-digit working precision, and the error
    estimate carries their absolute uncertainties through the subtraction,
    so any cancellation between them (mild for x <= 3, heavier as x grows)
    surfaces directly as a larger relative estimate.
    """
    _check_order(order, order_cap)
    x = _check_finite(x)
    if x <= 0:
        raise DomainError("struve_k_scaled requires x > 0")
    hs, htail, hterms = _struve_h_scaled_dd(order, x)
    # H_m(x) = (x/2)^m * Hscal_m(x)
    pw = dd.ONE
    for _ in range(order):
        pw = dd.mul_d(pw, 0.5 * x)
    hm = dd.mul(pw, hs)
    ym, yterms = _bessel_y_dd(order, x)
    diff = dd.sub(hm, ym)
    xm = dd.ONE
    for _ in range(order):
        xm = dd.mul_d(xm, x)
    val = dd.mul(xm, diff)
    value = dd.to_float(val)
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
    k = 0
    small = 0
    while k < 1500:
        t = dd.div_d(dd.mul_d(t, (a + k) * z), (b + k) * (k + 1))
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
    return SpecFunResult(value, abs(t[0]) + 2.3e-16 * abs(value), k + 1)


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
