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
terms.  Series are accumulated in double-double arithmetic, so the mild
cancellation of their terms there costs the returned doubles nothing
their error estimates do not count.  Each public kernel raises
RegimeError past ARG_MAX, where the series' cancellation outgrows the
estimates (K's first, as its value falls like e^-x), and
OrderOverflowError past ORDER_CAP.

Every ascending series t_{k+1} = t_k q / ((k + a)(k + b)), the sign of an
alternating one carried in q, runs through _series_dd: J, I, Hscal, the
expansions' I_m factors and the seeds of their J_2m factors.  Y and K
above order 1 share one upward recurrence, _bessel_yk_dd; a run of
consecutive Hscal orders at one argument comes from the downward Struve
recurrence, _hscal_window.  _series_dd, _log_series and _hscal_window
write their double-double steps out, as ddouble's own operations do.
The harmonic numbers of _log_series come from _HARMONIC, a module
constant like _STRUVE_GAMMAS: it does not depend on x, so it is no cache
of results.

All functions are pure and safe for concurrent use.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

from . import ddouble as dd
from .ddouble import _SPLITTER
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

#: An absolute floor of the estimates of J, I and Hscal, whose values and
#: terms can fall onto the subnormal grid, where 2.3e-16 of a value no
#: longer covers its rounding: four units of that grid.  J_160(0.5),
#: about 1e-381, rounds to 0.
_SUBNORMAL_FLOOR = 2.0 ** -1072

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


def _check_regime(x, kernel):
    """Refuse x past ARG_MAX with RegimeError naming the kernel."""
    if x > ARG_MAX:
        raise RegimeError(f"{kernel} supports x <= ARG_MAX = {ARG_MAX}, got {x!r}")


def _series_dd(t, q, a, b, rel):
    """sum_k t_k in double-double, from t_0 = t by

        t_{k+1} = t_k q / ((k + a)(k + b)),

    q carrying the sign of an alternating series.  The sum stops at the
    first term at or below rel of the partial sum, however small the sum
    (a zero term, as at x = 0, stops it).  Returns
    (sum, first omitted term magnitude, terms used); AccuracyError after
    _SERIES_MAX terms.

    Each step is dd.div_d(dd.mul(t, q), (k + a)(k + b)) and dd.add(s, t)
    written out, the same float operations in the same order, with q split
    once before the loop.
    """
    th, tl = t
    sh, sl = th, tl
    qh, ql = q
    c = _SPLITTER * qh
    qhi = c - (c - qh)
    qlo = qh - qhi
    for k in range(_SERIES_MAX):
        d = (k + a) * (k + b)
        # t = mul(t, q): two_prod(t0, q0) and quick_two_sum
        p = th * qh
        c = _SPLITTER * th
        ahi = c - (c - th)
        alo = th - ahi
        e = ((ahi * qhi - p) + ahi * qlo + alo * qhi) + alo * qlo
        e = e + (th * ql + tl * qh)
        th = p + e
        tl = e - (th - p)
        # t = div_d(t, d): the quotient, two_prod(q1, d), two_sum(t0, -p),
        # one refinement step and quick_two_sum
        q1 = th / d
        p = q1 * d
        c = _SPLITTER * q1
        ahi = c - (c - q1)
        alo = q1 - ahi
        c = _SPLITTER * d
        bhi = c - (c - d)
        blo = d - bhi
        e = ((ahi * bhi - p) + ahi * blo + alo * bhi) + alo * blo
        mp = -p
        r = th + mp
        bb = r - th
        f = (th - (r - bb)) + (mp - bb)
        f = f + (tl - e)
        q2 = (r + f) / d
        th = q1 + q2
        tl = q2 - (th - q1)
        if abs(th) <= rel * abs(sh):
            return (sh, sl), abs(th), k + 2
        # s = add(s, t): two_sum(s0, t0), two_sum(s1, t1) and two
        # quick_two_sums
        r = sh + th
        bb = r - sh
        e = (sh - (r - bb)) + (th - bb)
        u = sl + tl
        bb = u - sl
        f = (sl - (u - bb)) + (tl - bb)
        e = e + u
        sh = r + e
        e = e - (sh - r)
        e = e + f
        r = sh + e
        sl = e - (r - sh)
        sh = r
    raise AccuracyError("ascending series did not converge", value=sh + sl)


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
    """Bessel function of the first kind J_order(x) for 0 <= x <= ARG_MAX.

    The series' terms add up in absolute value to I_order(x), at most
    e^4 < 55 at x <= ARG_MAX; the double-double sum's rounding of them
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
    """Rows (H_k, H_k + H_{k+1}) for k = 0 .. n - 1, each double-double
    (hi, lo) followed by the split halves of its hi, by the dd calls

        h = add(h, div_d(ONE, k)),  hsum = add(mul_d(h, 2), div_d(ONE, k + 1)).
    """
    def with_halves(a):
        c = _SPLITTER * a[0]
        hi = c - (c - a[0])
        return a[0], a[1], hi, a[0] - hi

    h = dd.ZERO
    rows = []
    for k in range(n):
        if k:
            h = dd.add(h, dd.div_d(dd.ONE, float(k)))
        hsum = dd.add(dd.mul_d(h, 2.0), dd.div_d(dd.ONE, float(k + 1)))
        rows.append(with_halves(h) + with_halves(hsum))
    return rows


#: _harmonic_table over every step of _log_series.  Like _STRUVE_GAMMAS it
#: does not depend on x: a constant of the series, not a cache of results.
_HARMONIC = _harmonic_table(_SERIES_MAX)


def _log_series(x, sign):
    """The ascending series shared by (Y0, Y1) and (K0, K1), DLMF 10.8.1
    and 10.31.2 layout, in double-double.  With q = (x/2)^2 and H_k the
    harmonic numbers,

        s0 = sum_{k>=1} sign^(k+1) H_k q^k / (k!)^2
        s1 = sum_{k>=0} sign^k (H_k + H_{k+1}) q^k / (k!(k+1)!).

    Returns (f0, f1, ln(x/2) + gamma, s0, s1, terms used), where f0, f1 are
    J0, J1 for sign=-1 and I0, I1 for sign=+1.

    Each step is the dd calls

        t = div_d(mul(t, q), k^2),  u = div_d(mul(u, q), k (k + 1)),
        s0 = add(s0, +-mul(t, h)),  s1 = add(s1, +-mul(u, hsum))

    written out, the same float operations in the same order, with q split
    once before the loop and each of t and u split once.  h = H_k and
    hsum = H_k + H_{k+1} do not depend on x and are read from _HARMONIC,
    with the split halves of their high parts.  The divisors k^2 and
    k (k + 1) are integers below 2^26, their own high halves, and are not
    split (see ddouble).
    """
    qh, ql = dd.two_prod(0.5 * x, 0.5 * x)
    c = _SPLITTER * qh
    qhi = c - (c - qh)
    qlo = qh - qhi
    f0, _, t0 = _ascending_series(0, x, sign)
    f1, _, t1 = _ascending_series(1, x, sign)
    lg = _log_half_plus_gamma(x)

    s0h, s0l = dd.ZERO
    s1h, s1l = dd.ONE     # the k = 0 term of s1 is 1
    th, tl = uh, ul = dd.ONE
    thi, tlo = uhi, ulo = dd.ONE      # 1 splits to itself
    k = 1
    while k < _SERIES_MAX:
        # t = div_d(mul(t, q), k^2): two_prod(t0, q0) and quick_two_sum, then
        # the quotient, two_prod(q1, d), two_sum(t0, -p), one refinement
        # step and quick_two_sum
        p = th * qh
        e = ((thi * qhi - p) + thi * qlo + tlo * qhi) + tlo * qlo
        e = e + (th * ql + tl * qh)
        th = p + e
        tl = e - (th - p)
        d = float(k * k)
        q1 = th / d
        p = q1 * d
        c = _SPLITTER * q1
        ahi = c - (c - q1)
        alo = q1 - ahi
        e = (ahi * d - p) + alo * d
        mp = -p
        r = th + mp
        bb = r - th
        f = (th - (r - bb)) + (mp - bb)
        f = f + (tl - e)
        q2 = (r + f) / d
        th = q1 + q2
        tl = q2 - (th - q1)
        # u = div_d(mul(u, q), k (k + 1)), as t
        p = uh * qh
        e = ((uhi * qhi - p) + uhi * qlo + ulo * qhi) + ulo * qlo
        e = e + (uh * ql + ul * qh)
        uh = p + e
        ul = e - (uh - p)
        d = float(k * (k + 1))
        q1 = uh / d
        p = q1 * d
        c = _SPLITTER * q1
        ahi = c - (c - q1)
        alo = q1 - ahi
        e = (ahi * d - p) + alo * d
        mp = -p
        r = uh + mp
        bb = r - uh
        f = (uh - (r - bb)) + (mp - bb)
        f = f + (ul - e)
        q2 = (r + f) / d
        uh = q1 + q2
        ul = q2 - (uh - q1)
        # h = H_k and hsum = H_k + H_{k+1}, each with its high part's halves
        hh, hl, hhi, hlo, gh, gl, ghi, glo = _HARMONIC[k]
        # term0 = mul(t, h): two_prod(t0, h0) and quick_two_sum
        p = th * hh
        c = _SPLITTER * th
        thi = c - (c - th)
        tlo = th - thi
        e = ((thi * hhi - p) + thi * hlo + tlo * hhi) + tlo * hlo
        e = e + (th * hl + tl * hh)
        ah = p + e
        al = e - (ah - p)
        # term1 = mul(u, hsum), as term0
        p = uh * gh
        c = _SPLITTER * uh
        uhi = c - (c - uh)
        ulo = uh - uhi
        e = ((uhi * ghi - p) + uhi * glo + ulo * ghi) + ulo * glo
        e = e + (uh * gl + ul * gh)
        bh = p + e
        bl = e - (bh - p)
        if sign < 0:
            if k % 2 == 0:
                ah, al = -ah, -al
            else:
                bh, bl = -bh, -bl
        # s0 = add(s0, term0) and s1 = add(s1, term1), as h
        r = s0h + ah
        bb = r - s0h
        e = (s0h - (r - bb)) + (ah - bb)
        v = s0l + al
        bb = v - s0l
        f = (s0l - (v - bb)) + (al - bb)
        e = e + v
        s0h = r + e
        e = e - (s0h - r)
        e = e + f
        r = s0h + e
        s0l = e - (r - s0h)
        s0h = r
        r = s1h + bh
        bb = r - s1h
        e = (s1h - (r - bb)) + (bh - bb)
        v = s1l + bl
        bb = v - s1l
        f = (s1l - (v - bb)) + (bl - bb)
        e = e + v
        s1h = r + e
        e = e - (s1h - r)
        e = e + f
        r = s1h + e
        s1l = e - (r - s1h)
        s1h = r
        if abs(ah) + abs(bh) <= 1e-21 * (abs(s0h) + abs(s1h) + 1e-30):
            break
        k += 1
    return f0, f1, lg, (s0h, s0l), (s1h, s1l), t0 + t1 + k


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
    """Bessel function of the second kind Y_order(x) for 0 < x <= ARG_MAX.

    The estimate adds to a few ulps of the value the rounding of the
    double log (see _log_rounding)."""
    order = _check_order(order, ORDER_CAP)
    x = _check_finite(x)
    if x <= 0:
        raise DomainError("bessel_y requires x > 0 (logarithmic branch point at 0)")
    _check_regime(x, "bessel_y")
    y, terms = _bessel_yk_dd(order, x, -1)
    value = dd.to_float(y)
    jn = dd.to_float(_ascending_series(order, x, -1)[0])
    err = abs(value) * (3e-16 + 1e-16 * order) + (2.0 / math.pi) * _log_rounding(x) * abs(jn)
    return SpecFunResult(value, err, terms)


def bessel_k(order: int, x: float) -> SpecFunResult:
    """Modified Bessel function of the second kind K_order(x) for
    0 < x <= ARG_MAX.

    The estimate adds to a few ulps of the value the rounding of the
    double log, which grows as I_order(x) while K falls as e^-x: at
    x = ARG_MAX it is about 1000 ulps of K_0."""
    order = _check_order(order, ORDER_CAP)
    x = _check_finite(x)
    if x <= 0:
        raise DomainError("bessel_k requires x > 0")
    _check_regime(x, "bessel_k")
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


def _struve_h_series(order, x, shift=0):
    """The scaled Struve series of order at x, times 2^shift, in
    double-double: _series_dd's (dd_value, first omitted term, terms).
    Terms are strictly alternating and, in the supported range, decrease
    monotonically after at most a few initial terms, so the first omitted
    term bounds the truncation error."""
    h = 0.5 * x
    # t0 = (x/2) / (Gamma(3/2) Gamma(order+3/2))
    t0 = dd.div(dd.from_float(math.ldexp(h, shift)), _STRUVE_GAMMAS[order])
    return _series_dd(t0, dd.two_prod(h, -h), 1.5, order + 1.5, 1e-17)


def _hscal_window(x, j0, j1):
    """[Hscal_j0(x), ..., Hscal_j1(x)] rounded to double, 0 <= j0 <= j1 <
    ORDER_CAP.

    With h = x/2 and w = h^2, the Struve recurrence (DLMF 11.4.23) reads

        Hscal_{v-1} = v Hscal_v - w Hscal_{v+1} + h / (sqrt(pi) Gamma(v + 3/2)).

    Hscal_{j1+1} and Hscal_j1 are summed as ascending series, and the
    orders below follow from them by the recurrence in double-double.
    Taken downwards it is stable: J_v's counterpart shrinks relative to
    Hscal as v falls, and Y_v's falls off.  The inhomogeneous term starts
    at (h/2) / _STRUVE_GAMMAS[j1] and gains a factor v + 1/2 a step down.
    Everything runs times 2^k, k the negated exponent of h, and is scaled
    back at the end, so that at a tiny x no seed is subnormal where the
    values are not.

    Each step is dd.add(dd.add(dd.mul_d(f, v), dd.mul(-w, upper)), inh)
    and dd.mul_d(inh, v + 1/2) written out, the same float operations in
    the same order, with -w split once before the loop and each Hscal
    split once, where mul_d(f, v) splits it and mul(-w, upper) reuses the
    halves a step later.  v and v + 1/2 (v < ORDER_CAP) have at most 9
    significant bits, so each is its own high half and is not split (see
    ddouble).
    """
    h = 0.5 * x
    wh, wl = dd.two_prod(h, -h)
    c = _SPLITTER * wh
    whi = c - (c - wh)
    wlo = wh - whi
    k = -math.frexp(h)[1]
    uh, ul = _struve_h_series(j1 + 1, x, k)[0]
    c = _SPLITTER * uh
    uhi = c - (c - uh)
    ulo = uh - uhi
    fh, fl = _struve_h_series(j1, x, k)[0]
    ih, il = dd.div(dd.from_float(math.ldexp(h, k - 1)), _STRUVE_GAMMAS[j1])
    out = [math.ldexp(fh, -k) + math.ldexp(fl, -k)]
    for v in range(j1, j0, -1):
        b = float(v)
        # mul_d(f, v): two_prod(f0, v) and quick_two_sum
        p = fh * b
        c = _SPLITTER * fh
        fhi = c - (c - fh)
        flo = fh - fhi
        e = (fhi * b - p) + flo * b
        e = e + fl * b
        ah = p + e
        al = e - (ah - p)
        # mul(-w, upper): two_prod(-w0, upper0) and quick_two_sum
        p = wh * uh
        e = ((whi * uhi - p) + whi * ulo + wlo * uhi) + wlo * ulo
        e = e + (wh * ul + wl * uh)
        bh = p + e
        bl = e - (bh - p)
        uh, ul, uhi, ulo = fh, fl, fhi, flo
        # add(add(a, b), inh): two two_sums and two quick_two_sums each
        s = ah + bh
        bb = s - ah
        e = (ah - (s - bb)) + (bh - bb)
        t = al + bl
        bb = t - al
        f = (al - (t - bb)) + (bl - bb)
        e = e + t
        ah = s + e
        e = e - (ah - s)
        e = e + f
        s = ah + e
        al = e - (s - ah)
        ah = s
        s = ah + ih
        bb = s - ah
        e = (ah - (s - bb)) + (ih - bb)
        t = al + il
        bb = t - al
        f = (al - (t - bb)) + (il - bb)
        e = e + t
        fh = s + e
        e = e - (fh - s)
        e = e + f
        s = fh + e
        fl = e - (s - fh)
        fh = s
        # inh = mul_d(inh, v + 1/2): two_prod(inh0, v + 1/2) and quick_two_sum
        b = v + 0.5
        p = ih * b
        c = _SPLITTER * ih
        ahi = c - (c - ih)
        alo = ih - ahi
        e = (ahi * b - p) + alo * b
        e = e + il * b
        ih = p + e
        il = e - (ih - p)
        out.append(math.ldexp(fh, -k) + math.ldexp(fl, -k))
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
    for 0 < x <= ARG_MAX.

    Both parts are computed with ~32-digit working precision, and the error
    estimate carries their absolute uncertainties through the subtraction,
    so any cancellation between them (mild for x <= ARG_MAX) surfaces
    directly as a larger relative estimate.
    """
    order = _check_order(order, ORDER_CAP)
    x = _check_finite(x)
    if x <= 0:
        raise DomainError("struve_k_scaled requires x > 0")
    _check_regime(x, "struve_k_scaled")
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
