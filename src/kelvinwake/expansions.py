"""Series evaluations of the wake integral F(x, rho, alpha).

Three methods are provided, all sharing the EvalPoint geometry:

* bessho_F  -- the absolutely convergent Bessel product series
               K0(rho/2) J0(x) + 2 sum_m (-1)^m cos(m alpha) K_m(rho/2) J_2m(x).
               Convergent everywhere, but for large M = x^2/(4 rho) the terms
               first grow to ~e^M/M before decaying, so the sum is evaluated
               with scaled recurrences in 34-digit decimal (specfun._CTX)
               and aborts honestly when cancellation would exceed 1e12.
               Every factor is carried to about 1e-30: K_m by its upward
               recurrence, J_2m by the downward one from two series seeds a
               window of BESSHO_WINDOW orders (_jhat_window), cos(m alpha)
               by a Chebyshev ladder on a Taylor-series cos alpha
               (_cos_ladder).

* ursell_F  -- the truncated I_m Y_2m counterpart plus the closed-form
               saddle estimate; accurate to O(e^-M).

* paris_F   -- the three-part large-M expansion: a convergent scaled-Struve
               sum, an asymptotic series in 1/M with coefficients C_k, and
               an exponentially small saddle-point term.  The sum reads
               Hscal_j(x c) from one ladder (_hscals): HSCAL_WINDOW orders
               at a time by the downward Struve recurrence from two series
               seeds, in decimal (specfun._hscal_window).

The C_k coefficient tables (one read of the quadrature oracle's cached
table at every alpha; the exact alpha = 0 recurrence is kept as a
reference) and the residual that the error table reports live here too.

field_route is the rule that picks a point's route in `field`.  The
ladders that do not depend on the point (Hscal_j per x c; J_2m per x, the
Bessel products per (x, rho) and cos(m alpha) per |alpha|) are read from a
Ladders cache, formed on their first read: paris_F and bessho_F take one
made for a group of points as `ladders`, and a single call makes its own.
Either way the sums run in paris_F and bessho_F on the same values.
"""

from __future__ import annotations

import enum
import itertools
import math
import sys
import warnings
from dataclasses import dataclass
from decimal import Decimal, localcontext
from typing import Optional

from . import ddouble as dd
from .errors import AccuracyError, DomainError, RegimeError
from .oracle import EvalPoint, _ck_values, oracle_Ck, oracle_F
from .specfun import (_CTX, ARG_MAX, ORDER_CAP, _check_finite, _check_int, _from_dd,
                      _hscal_window, _k01_dd, _log_rounding, _series, _series_dd, _y01_dd,
                      struve_k_scaled)

#: Largest supported asymptotic truncation (coefficient engines cap here).
CK_MAX = 30

_CK_N_MESSAGE = f"n must be an integer in [1, {CK_MAX}]"

#: Stopping threshold of the convergent sums, relative to the running sum.
SERIES_REL_TOL = 1e-16

#: Hard cap on the terms of each convergent sum.
MAX_TERMS = 500

#: |alpha| (radians) below which the saddle term takes its midplane form.
SADDLE_ALPHA_SWITCH = 0.02

#: M sin^2 alpha above which paris_F's saddle defect bound falls off as
#: SADDLE_DEFECT_SCALE / (M sin^2 alpha) of the saddle amplitude.
SADDLE_DEFECT_SCALE = 2.0


class Method(enum.Enum):
    BESSHO = "bessho"
    URSELL = "ursell"
    PARIS = "paris"


@dataclass(frozen=True)
class TruncationPolicy:
    """Truncation of the asymptotic series.

    n: asymptotic-series truncation index (number of retained C_k terms),
       or None for AUTO.  AUTO resolves to max(1, floor(M c^2) - 1), the
       optimal-truncation heuristic under the constraint n < M c^2, capped
       at CK_MAX.
    """

    n: Optional[int] = None

    def __post_init__(self):
        if self.n is not None:
            object.__setattr__(self, "n", _check_int(
                self.n, 1, None, "n must be a positive integer or None, got {}"))

    def resolve_n(self, pt: EvalPoint) -> int:
        """Resolve the truncation index for pt, enforcing n < M c^2 for AUTO."""
        mc2 = pt.M * pt.c * pt.c
        if self.n is not None:
            if self.n >= mc2:
                warnings.warn(
                    f"truncation n = {self.n} is not below M c^2 = {mc2:.3f}; "
                    "the asymptotic remainder bound no longer applies",
                    RuntimeWarning, stacklevel=3)
            n = self.n
        else:
            if mc2 <= 1.0:
                raise RegimeError(
                    f"M c^2 = {mc2:.3f} <= 1 leaves no valid truncation; "
                    "use bessho_F in this regime")
            n = max(1, min(math.floor(mc2) - 1, CK_MAX))
        return n


DEFAULT_POLICY = TruncationPolicy()


@dataclass(frozen=True)
class Components:
    """The three stored parts of a paris_F evaluation; the method value is
    exactly -pi e^(-rho/2) struve_sum + pi e^(rho/2) asymptotic_sum + saddle
    in double arithmetic."""

    struve_sum: float
    asymptotic_sum: float
    saddle: float


@dataclass(frozen=True)
class MethodResult:
    value: float
    method: Method
    terms_used: int
    n_used: int
    saddle_term: float
    internal_error_estimate: float
    components: Optional[Components] = None


@dataclass(frozen=True)
class CoefficientTable:
    """C_k values for k = 0 .. n-1 at fixed (x, alpha)."""

    alpha: float
    x: float
    values: tuple

    def __len__(self):
        return len(self.values)


def field_route(pt: EvalPoint) -> str:
    """The route `field` takes at pt: "paris" from M = 6 up, "bessho" below.

    paris_F's AUTO truncation needs M c^2 > 1; c^2 >= 1/2 for |alpha| <= pi/2,
    so M >= 6 already gives M c^2 >= 3.
    """
    return "paris" if pt.M >= 6.0 else "bessho"


class Ladders:
    """The ladders of the two convergent sums that do not depend on the
    point, for a group of points: Hscal_j per x c (_hscals), J_2m per x
    (_jhats), the Bessel products per (x, rho) (_bessel_products) and
    cos(m alpha) per |alpha| (_cos_ladder).

    Each ladder is formed on its first read.  Every read returns a copy of
    its itertools.tee origin, which no reader advances, so each reader
    starts at the ladder's first value and reads what a fresh ladder gives.
    """

    def __init__(self):
        self._origins = {}

    def _read(self, make, *args):
        key = (make, *args)
        origin = self._origins.get(key)
        if origin is None:
            origin = self._origins[key] = itertools.tee(make(*args), 1)[0]
        return origin.__copy__()

    def hscals(self, xc):
        return self._read(_hscals, xc)

    def cos_ladder(self, alpha):
        return self._read(_cos_ladder, alpha)

    def bessel_products(self, x, rho):
        """The products of (x, rho), on the J_2m ladder of x."""
        origin = self._origins.get((x, rho))
        if origin is None:
            products = _bessel_products(x, rho, self._read(_jhats, x))
            origin = self._origins[x, rho] = itertools.tee(products, 1)[0]
        return origin.__copy__()


# ---------------------------------------------------------------------------
# Bessel product series


#: Indices m of one window of the Bessel products: _jhat_window seeds
#: its recurrence once a window.  The rows of the benchmark's field sweep
#: read 11 to 42 products.
BESSHO_WINDOW = 24

#: Relative stopping threshold of the series behind the Bessel product
#: factors (jhat_0, the seeds of _jhat_window, cos alpha): at the
#: resolution of specfun._CTX, so each is exact to the working precision.
_FACTOR_REL = Decimal(1e-33)

#: The largest double: a kappa_m past it ends the Bessel products.
_DOUBLE_MAX = Decimal(sys.float_info.max)

_SUM_REL = Decimal(SERIES_REL_TOL)
_SMALL_BOUND = 2.0 * SERIES_REL_TOL


def _jhat0(minus_w):
    """jhat_0 = J_0(x) as a Decimal, minus_w = -(x/2)^2 a Decimal."""
    return _series(Decimal(1), minus_w, 1.0, 1.0, _FACTOR_REL)[0]


def _jhat_window(minus_w, m0, m1):
    """[jhat_m0, ..., jhat_m1] (1 <= m0 <= m1) as Decimals, where
    jhat_m = J_2m(x) (2m)! (x/2)^{-2m} and minus_w = -w = -(x/2)^2.

    With f_n = J_n(x) n! (x/2)^{-n} = sum_i (-w)^i / (i! (n+1)_i), so that
    jhat_m = f_2m, the Bessel recurrence reads

        f_{n-1} = f_n - w f_{n+1} / (n (n+1)).

    f_{2 m1 + 1} and f_{2 m1} are summed as ascending series, and the
    orders below follow from them by the recurrence, all in specfun._CTX.
    Taken downwards it is stable (Miller's method): f tends to 1 as n
    grows, while the second solution, Y_n's counterpart, falls off as n
    falls.
    """
    upper = _series(Decimal(1), minus_w, 1.0, 2.0 * m1 + 2.0, _FACTOR_REL)[0]
    f = _series(Decimal(1), minus_w, 1.0, 2.0 * m1 + 1.0, _FACTOR_REL)[0]
    out = [f]
    with localcontext(_CTX):
        for n in range(2 * m1, 2 * m0, -1):
            upper, f = f, f + minus_w * upper / (n * (n + 1))
            if n % 2:
                out.append(f)
    out.reverse()
    return out


def _cos_ladder(alpha):
    """c_m = 2 (-1)^m cos(m alpha) for m = 1, 2, ... as Decimals, without
    end.

    cos alpha is summed from its Taylor series, and c_{m+1} = -2 cos(alpha)
    c_m - c_{m-1} from c_0 = 2, in specfun._CTX, BESSHO_WINDOW values at a
    time.  A double cos(m alpha), whose 1e-16 relative error the cancelling
    product series multiplies by up to 1e12, is avoided this way.
    """
    h = Decimal(0.5 * alpha)
    step = _CTX.multiply(-2, _series(Decimal(1), _CTX.minus(_CTX.multiply(h, h)), 0.5, 1.0,
                                     _FACTOR_REL)[0])
    prev, cur = Decimal(2), step
    while True:
        with localcontext(_CTX):
            window = []
            for _ in range(BESSHO_WINDOW):
                window.append(cur)
                prev, cur = cur, step * cur - prev
        yield from window


def _jhats(x):
    """jhat_m = J_2m(x) (2m)! (x/2)^{-2m} as Decimals for m = 0, 1, ...,
    MAX_TERMS: jhat_0 from _jhat0, the others BESSHO_WINDOW indices m at a
    time from _jhat_window."""
    h = Decimal(0.5 * x)
    minus_w = _CTX.minus(_CTX.multiply(h, h))
    yield _jhat0(minus_w)
    for m0 in range(1, MAX_TERMS + 1, BESSHO_WINDOW):
        yield from _jhat_window(minus_w, m0, min(m0 + BESSHO_WINDOW - 1, MAX_TERMS))


def _bessel_products(x, rho, jhats):
    """kappa_m(rho/2) jhat_m(x) as Decimals for m = 0, 1, ..., MAX_TERMS,
    where kappa_m = K_m(rho/2) (x/2)^{2m} / (2m)! is advanced by the K
    recurrence

        kappa_m = (kappa_{m-1} 4 (m - 1) M + kappa_{m-2} w^2 / ((2m - 2)(2m - 3)))
                  / (2m (2m - 1)),

    w = (x/2)^2 and M = x^2/(4 rho), and jhat_m is read from jhats, the
    _jhats of x.  None in place of the first product whose kappa_m passes
    the double range, which ends the ladder.  None of it depends on alpha.
    The products are formed in specfun._CTX a window of the J_2m ladder at
    a time (m = 0 joins the first), from the seeds K0, K1 of
    specfun._k01_dd.
    """
    k0, k1, _ = _k01_dd(0.5 * rho)
    h, rho = Decimal(0.5 * x), Decimal(rho)
    for m0 in range(1, MAX_TERMS + 1, BESSHO_WINDOW):
        with localcontext(_CTX):
            window = []
            if m0 == 1:
                w = h * h
                ww, m4 = w * w, 4 * w / rho
                kprev, kap = _from_dd(k0), _from_dd(k1) * w / 2     # kappa_0, kappa_1
                window.append(kprev * next(jhats))
            for m, jhat in zip(range(m0, m0 + BESSHO_WINDOW), jhats):
                if m > 1:
                    kprev, kap = kap, ((kap * m4 * (m - 1)
                                        + kprev * ww / ((2 * m - 2) * (2 * m - 3)))
                                       / (2 * m * (2 * m - 1)))
                if kap > _DOUBLE_MAX:
                    window.append(None)
                    break
                window.append(kap * jhat)
        yield from window
        if window[-1] is None:
            return


def _bessho_sum(ladder, products):
    """The Bessel product series, summed in specfun._CTX from the products
    of _bessel_products, each times its factor from ladder, the _cos_ladder
    of the point's |alpha|, until its stopping rule.

    Returns (total, peak, abs_sum, last, m, stop): total is the Decimal
    sum, peak the largest |partial sum|, abs_sum the sum of |terms| (each
    rounded to double, summed in doubles), last the last |term|, m the
    index of the last product read, and stop None, "overflow" (product m
    is None and was not summed) or "max_terms".  The sum stops after
    three consecutive terms below SERIES_REL_TOL relative (single small
    terms are routinely accidental: cos(m alpha) has zeros).  Only a term
    at or below 2 SERIES_REL_TOL abs_sum can pass that test, as abs_sum
    bounds |total| within 1e-13, so only such a term is tested in decimal.
    """
    with localcontext(_CTX):
        total = next(products)
        top = bottom = total
        abs_sum = last = abs(float(total))
        small = 0
        m = 0
        stop = "max_terms"
        for prod, coef in zip(products, ladder):
            m += 1
            if prod is None:
                stop = "overflow"
                break
            term = prod * coef
            total += term
            if total > top:
                top = total
            elif total < bottom:
                bottom = total
            last = abs(float(term))
            abs_sum += last
            if last <= _SMALL_BOUND * abs_sum and abs(term) <= _SUM_REL * abs(total):
                small += 1
                if small >= 3:
                    stop = None
                    break
            else:
                small = 0
        peak = max(abs(top), abs(bottom))
    return total, float(peak), abs_sum, last, m, stop


def bessho_F(pt: EvalPoint, *, ladders: Optional[Ladders] = None) -> MethodResult:
    """Convergent Bessel product series for F.

    Terms are products K_m(rho/2) J_2m(x) evaluated as scaled pairs
    kappa_m = K_m (x/2)^{2m} / (2m)!  and  jhat_m = J_2m (2m)! (x/2)^{-2m}
    (_bessel_products).  This keeps every intermediate in range for any M
    and concentrates the cancellation in the final sum, which is
    accumulated in 34-digit decimal (_bessho_sum).  The products and the
    cos(m alpha) factors are read from ladders, a fresh Ladders by default.

    The estimate adds to the sum's last term and rounding 2 e^{rho/2} times
    the rounding of the double ln(rho/4) in the seeds K0, K1 (rho/2), which
    moves K_m by up to that times I_m(rho/2); RegimeError for rho/2 past
    specfun.ARG_MAX, where those seeds lose their digits.
    """
    if 0.5 * pt.rho > ARG_MAX:
        raise RegimeError(f"bessho_F needs rho/2 <= ARG_MAX = {ARG_MAX}, "
                          f"got rho = {pt.rho!r}")
    if ladders is None:
        ladders = Ladders()
    total, peak, abs_sum, last, m, stop = _bessho_sum(
        ladders.cos_ladder(pt.alpha_abs), ladders.bessel_products(pt.x, pt.rho))
    value = float(total)
    if stop == "overflow":
        raise AccuracyError("Bessel product terms overflow double range",
                            value=value, terms_used=m)
    if stop == "max_terms":
        raise AccuracyError(
            f"Bessel product series not converged in {m} terms "
            f"(M = {pt.M:.3g}; convergence needs ~2.7 M terms)",
            value=value, error_estimate=last, terms_used=m)
    if peak > 1e12 * max(abs(value), 5e-324):
        raise AccuracyError(
            f"cancellation in the Bessel product series exceeds 1e12 "
            f"(peak {peak:.3g} against result {value:.3g})",
            value=value, terms_used=m)
    est = (10.0 * last + 2.3e-16 * abs_sum
           + 2.0 * math.exp(0.5 * pt.rho) * _log_rounding(0.5 * pt.rho))
    return MethodResult(value, Method.BESSHO, terms_used=m + 1, n_used=0,
                        saddle_term=0.0, internal_error_estimate=est)


def ursell_F(pt: EvalPoint) -> MethodResult:
    """Truncated I_m Y_2m series plus the closed-form saddle estimate.

    value = -pi (I0(rho/2) Y0(x) + 2 sum_{m<=M} cos(m alpha) I_m(rho/2) Y_2m(x))
            + sqrt(pi/M) e^{-(M - rho/2) cos alpha} sin((M + rho/2) sin alpha
            + alpha/2),

    good to O(e^-M).  The products are formed from scaled pairs so that
    neither factor leaves double range for any M reachable in the box.
    Their size falls by about (2m - 1)/(2M) a step, so the sum stops at
    m = floor(M) or before, at the first m > x/2 (past the last zero of
    Y_2m) whose term without its cos(m alpha) is below SERIES_REL_TOL of
    the partial sum: at M = 1e6 after 4 terms.  Y_2m and I_m are formed
    only that far.  The estimate adds to those two the saddle estimate's
    O(1/M) defect, the rounding of the sum, a few ulps of its terms, and
    2 e^{rho/2} times the rounding of the double ln(x/2) in Y0 and Y1,
    which moves the sum by (2/pi) times it times sum_m I_m J_2m.
    RegimeError for x past specfun.ARG_MAX, where the log series of the
    seeds Y0, Y1 cancels beyond that estimate.
    """
    if pt.M <= 1.0:
        raise DomainError(f"ursell_F needs M > 1, got M = {pt.M:.3g}")
    if pt.x > ARG_MAX:
        raise RegimeError(f"ursell_F needs x <= ARG_MAX = {ARG_MAX}, got x = {pt.x!r}")
    x, rho, alpha = pt.x, pt.rho, pt.alpha_abs

    # Y_n (x/2)^n / n! for n = 2m and 2m + 1 by the Y recurrence, two orders a step
    y0, y1, _ = _y01_dd(x)
    even, odd = dd.to_float(y0), dd.to_float(dd.mul_d(y1, 0.5 * x))
    q = 0.25 * x * x
    # I_m(rho/2) m! (rho/4)^-m = sum_i (rho/4)^(2i) / (i! (m+1)_i)
    zq = dd.two_prod(0.25 * rho, 0.25 * rho)

    def isig(m):
        return dd.to_float(_series_dd(dd.ONE, zq, 1.0, m + 1.0, 1e-21)[0])

    terms = [isig(0) * even]
    total = terms[0]
    fac = 1.0
    for m in range(1, math.floor(pt.M) + 1):
        n = 2 * m - 1
        even = odd * n / (n + 1.0) - even * q / (n * (n + 1.0))
        odd = even * (n + 1) / (n + 2.0) - odd * q / ((n + 1) * (n + 2.0))
        fac *= (2.0 * m - 1.0) / (2.0 * pt.M)
        im = isig(m)
        terms.append(2.0 * math.cos(m * alpha) * fac * im * even)
        total += terms[-1]
        if 2 * m > x and 2.0 * abs(fac * im * even) <= SERIES_REL_TOL * abs(total):
            break
    series = math.fsum(terms)

    amp = _saddle_amplitude(pt)
    sad = amp * math.sin((pt.M + 0.5 * rho) * math.sin(alpha) + 0.5 * alpha)
    value = -math.pi * series + sad
    est = (math.exp(-pt.M) + math.pi * abs(terms[-1]) + 2.0 * amp / pt.M
           + 4.0 * 2.0 ** -52 * (math.pi * math.fsum(map(abs, terms)) + abs(sad))
           + 2.0 * math.exp(0.5 * rho) * _log_rounding(x))
    return MethodResult(value, Method.URSELL, terms_used=len(terms), n_used=len(terms) - 1,
                        saddle_term=sad, internal_error_estimate=est)


# ---------------------------------------------------------------------------
# convergent scaled-Struve sums


#: Orders of one window of the Hscal ladder: _hscal_window seeds its
#: recurrence once a window.  On the benchmark's field sweep the sums
#: read 8 to 16 orders at an x c.
HSCAL_WINDOW = 16


def _hscals(xc):
    """Hscal_j(xc) as doubles for j = 0, 1, ..., ORDER_CAP - 1,
    HSCAL_WINDOW orders at a time from _hscal_window, each rounded as it is
    read."""
    for j0 in range(0, ORDER_CAP, HSCAL_WINDOW):
        yield from map(float, _hscal_window(xc, j0, min(j0 + HSCAL_WINDOW, ORDER_CAP) - 1))


def _struve_coefficients(xs, rho):
    """a_j = sum_{r+m=j} (rho^r/r!) ((-1)^m (m+1/2)_r / m!) (xs/2)^{2m}, the
    coefficient of Hscal_j(xc) in S1, for j = 0, 1, ... without end.

    a_j = (-1)^j (1/2)_j p_2j, where p_n, the Taylor coefficients of
    exp(xs z - rho z^2) (a Hermite generating function, DLMF 18.12.15),
    follow p_0 = 1, p_1 = xs, p_{n+1} = (xs p_n - 2 rho p_{n-1}) / (n + 1).
    At xs = 0 a_j is (1/2)_j rho^j / j! exactly as running products give it.
    """
    two_rho = 2.0 * rho
    poch = 1.0                     # (1/2)_j
    p, q = 1.0, xs                 # p_2j and p_2j+1
    yield p
    for j in itertools.count(1):
        poch *= j - 0.5
        p = (xs * q - two_rho * p) / (2 * j)
        q = (xs * p - two_rho * q) / (2 * j + 1)
        yield -(poch * p) if j % 2 else poch * p


def _struve_series(pt, hscals):
    """S1 = sum_j a_j Hscal_j(xc), a_j by _struve_coefficients at xs,
    until three consecutive terms are below SERIES_REL_TOL of the partial
    sum (a_j changes sign, so one small term can be accidental).  hscals
    yields Hscal_0(xc), Hscal_1(xc), ..., as _hscals does.

    Returns (value, orders summed, refused): refused where the sum ran out
    of MAX_TERMS orders, or of the ladder's, or left the double range (from
    rho of about 150), value then being the partial sum.
    """
    total = comp = 0.0          # comp: Neumaier compensation
    small = 0
    for j, coef, hscal in zip(range(MAX_TERMS), _struve_coefficients(pt.x * pt.s, pt.rho),
                              hscals):
        t = coef * hscal
        total_new = total + t
        comp += (total - total_new) + t if abs(total) >= abs(t) else (t - total_new) + total
        total = total_new
        if not math.isfinite(total):
            break
        if abs(t) <= SERIES_REL_TOL * abs(total) + 1e-305:
            small += 1
            if small >= 3:
                return total + comp, j + 1, False
        else:
            small = 0
    return total + comp, j + 1, True


def _struve_value(pt, ladders):
    """(S1, orders summed) at pt, _struve_series's outcome on the Hscal
    ladder of ladders at x c; AccuracyError where the sum was refused, and
    RegimeError for x c past specfun.ARG_MAX, where the ladder's seeds
    lose the digits their sums need."""
    xc = pt.x * pt.c
    if xc > ARG_MAX:
        raise RegimeError(f"the Struve sum needs x c <= ARG_MAX = {ARG_MAX}, got x c = {xc!r}")
    value, terms, refused = _struve_series(pt, ladders.hscals(xc))
    if refused:
        raise AccuracyError(f"Struve sum not converged in {terms} orders",
                            value=value, terms_used=terms)
    return value, terms


def struve_double_sum(pt: EvalPoint) -> float:
    """The convergent Struve sum S1 = sum_{r,m} (rho^r/r!) ((-1)^m (m+1/2)_r
    / m!) (xs/2)^2m Hscal_{m+r}(xc), xs = x sin(alpha/2), xc = x cos(alpha/2),
    summed as one series over the orders j = m + r (_struve_coefficients).

    At alpha = 0 the (xs/2)^2m factor kills every m >= 1 and it is the
    midplane sum  sum_r ((1/2)_r / r!) rho^r Hscal_r(x);  I1 equals
    (pi e^-rho / 2) times this value.
    """
    return _struve_value(pt, Ladders())[0]


# ---------------------------------------------------------------------------
# asymptotic coefficients


def ck_symbolic_coefficients(n: int):
    """Exact integer coefficients a[m][j] with

        C_m = sum_j a[m][j] x^(2(m-j)) Kscal_j(x).

    Unrolled from the recurrence with exact integer arithmetic:
    a[m][m] = (2m-1)!!,  a[m][j] = -sum_{r=j}^{m-1} binom(m, r) a[r][j].
    """
    n = _check_int(n, 1, CK_MAX, _CK_N_MESSAGE)
    rows = []
    dfact = 1
    for m in range(n):
        if m > 0:
            dfact *= 2 * m - 1
        row = []
        for j in range(m):
            row.append(-sum(math.comb(m, r) * rows[r][j] for r in range(j, m)))
        row.append(dfact)
        rows.append(row)
    return rows


def ck_recurrence(n: int, x: float) -> CoefficientTable:
    """C_0 .. C_{n-1} at alpha = 0 from the Struve-combination recurrence

        C_m = 2^m (1/2)_m Kscal_m(x) - sum_{r<m} binom(m, r) x^(2(m-r)) C_r.

    Exact binomials, double-double accumulation.  An independent reference
    for the quadrature table that ck_table reads; no evaluation uses it.
    """
    n = _check_int(n, 1, CK_MAX, _CK_N_MESSAGE)
    x = _check_finite(x, "x")
    if x <= 0:
        raise DomainError("ck_recurrence requires x > 0")
    x2 = dd.two_prod(x, x)
    xpow = [dd.ONE]                       # x^(2j)
    cvals = []
    dfact = 1
    for m in range(n):
        if m > 0:
            dfact *= 2 * m - 1
            xpow.append(dd.mul(xpow[-1], x2))
        lead = dd.mul(dd.from_int(dfact), (struve_k_scaled(m, x).value, 0.0))
        acc = lead
        for r in range(m):
            acc = dd.sub(acc, dd.mul_d(dd.mul(xpow[m - r], cvals[r]),
                                       float(math.comb(m, r))))
        cvals.append(acc)
    return CoefficientTable(alpha=0.0, x=x,
                            values=tuple(dd.to_float(v) for v in cvals))


def ck_table(n: int, x: float, alpha: float) -> CoefficientTable:
    """C_0 .. C_{n-1} at (x, alpha), alpha in [0, pi/2].

    One read of oracle_Ck's cached table of C_0 .. C_30 at (x, alpha),
    which is computed whole on its first use, so the values do not depend
    on n: oracle_Ck(0, x, alpha) validates (x, alpha) and builds the table,
    and the row comes from it at once.  Raises oracle_Ck(k)'s AccuracyError
    for the first k < n whose quadrature stalled.
    """
    n = _check_int(n, 1, CK_MAX, _CK_N_MESSAGE)
    oracle_Ck(0, x, alpha)
    x, alpha = float(x), float(alpha)
    return CoefficientTable(alpha=alpha, x=x, values=_ck_values(n, x, alpha))


def _asymptotic_terms(pt: EvalPoint, ck: CoefficientTable):
    fac = 1.0
    four_m = 4.0 * pt.M
    out = []
    for k, c in enumerate(ck.values):
        out.append(fac * c)
        fac /= four_m * (k + 1)
    return out


def asymptotic_sum(pt: EvalPoint, ck: CoefficientTable) -> float:
    """sum_{k<n} M^-k / (2^2k k!) C_k for the coefficients in ck.

    No convergence test: the series is asymptotic and n is fixed by the
    table.  The table must have been built for pt's x and |alpha|.
    """
    if ck.x != pt.x or ck.alpha != pt.alpha_abs:
        raise DomainError(
            f"coefficient table is for (x, alpha) = ({ck.x}, {ck.alpha}), "
            f"point has ({pt.x}, {pt.alpha_abs})")
    return math.fsum(_asymptotic_terms(pt, ck))


# ---------------------------------------------------------------------------
# saddle estimate and the combined evaluator


def _saddle_amplitude(pt: EvalPoint) -> float:
    """sqrt(pi/M) e^{-(M - rho/2) cos alpha}, the size of the oscillatory
    saddle estimate; that estimate's own defect is O(1/M) of it."""
    return math.sqrt(math.pi / pt.M) * math.exp(
        -(pt.M - 0.5 * pt.rho) * math.cos(pt.alpha_abs))


def saddle_term(pt: EvalPoint) -> float:
    """Closed-form saddle-point contribution to F.

    For |alpha| below SADDLE_ALPHA_SWITCH (radians) the midplane estimate
    e^-M / (M (1+p^2)^(3/2)) applies; otherwise the oscillatory estimate
    sqrt(pi/M) e^{-(M - rho/2) cos alpha} sin((M + rho/2) sin alpha
    + alpha/2).  The two are not continuous across the switch: the
    oscillatory form is not valid as alpha -> 0, and no interpolation is
    invented here.
    """
    if pt.M <= 1.0:
        raise DomainError(f"saddle_term needs M > 1, got M = {pt.M:.3g}")
    a = pt.alpha_abs
    if a < SADDLE_ALPHA_SWITCH:
        return math.exp(-pt.M) / (pt.M * (1.0 + pt.p * pt.p) ** 1.5)
    return _saddle_amplitude(pt) * math.sin((pt.M + 0.5 * pt.rho) * math.sin(a) + 0.5 * a)


def _saddle_defect(pt: EvalPoint, sad: float) -> float:
    """Bound on the error of saddle_term's value sad as F's saddle part.

    Near the midplane neither form of saddle_term is uniform: the error
    reaches 0.74 of the amplitude sqrt(pi/M) e^{-(M - rho/2) cos alpha}
    where M sin^2 alpha is small, and falls off like 1/(M sin^2 alpha) once
    that exceeds about 3 (measured against the Bessel product reference at
    the 13928 paris pool and field-sweep points of the benchmark).  So the
    bound is amp min(1, SADDLE_DEFECT_SCALE / (M sin^2 alpha)), and never
    below the O(1/M) defect of the amplitude (of |sad| in the midplane
    form): using |sad| alone would understate it near the sine's zeros.
    """
    amp = _saddle_amplitude(pt)
    o1m = 2.0 * (abs(sad) if pt.alpha_abs < SADDLE_ALPHA_SWITCH else amp) / pt.M
    ms2 = pt.M * math.sin(pt.alpha_abs) ** 2
    return max(o1m, amp if ms2 <= SADDLE_DEFECT_SCALE
               else amp * SADDLE_DEFECT_SCALE / ms2)


def _large_parts(pt: EvalPoint, n: int, ladders: Ladders):
    """The two large parts of the expansion, pi e^(-rho/2) S1 and
    pi e^(rho/2) sum_{k<n} M^-k/(2^2k k!) C_k, followed by S1, the
    asymptotic sum, the number of Struve orders and the last asymptotic
    term.  S1 reads its Hscal ladder from ladders."""
    s1, terms = _struve_value(pt, ladders)
    ck = ck_table(n, pt.x, pt.alpha_abs)
    asym = asymptotic_sum(pt, ck)
    return (math.pi * math.exp(-0.5 * pt.rho) * s1,
            math.pi * math.exp(0.5 * pt.rho) * asym,
            s1, asym, terms, _asymptotic_terms(pt, ck)[-1])


def paris_F(pt: EvalPoint, policy: TruncationPolicy = DEFAULT_POLICY, *,
            ladders: Optional[Ladders] = None) -> MethodResult:
    """Three-part large-M evaluation of F:

        -pi e^(-rho/2) S1 + pi e^(rho/2) sum_{k<n} M^-k/(2^2k k!) C_k + saddle

    with S1 the convergent Struve sum (struve_double_sum); terms_used
    counts its orders.  The stored components
    reproduce the value exactly in double arithmetic.  Soft regime: M >= 4
    (a warning is issued below).  S1 reads its Hscal ladder from ladders,
    a fresh Ladders by default.
    """
    if pt.M < 4.0:
        warnings.warn(f"paris_F called at M = {pt.M:.3g} < 4; accuracy degrades "
                      "as M shrinks", RuntimeWarning, stacklevel=2)
    n = policy.resolve_n(pt)
    if ladders is None:
        ladders = Ladders()
    struve_part, asym_part, s1, asym, terms, last = _large_parts(pt, n, ladders)
    sad = saddle_term(pt)
    value = -struve_part + asym_part + sad
    # the rounding error of the three-part sum is absolute: a few ulps of
    # its parts, however much of them cancels in the value
    est = (math.pi * math.exp(0.5 * pt.rho) * abs(last)
           + _saddle_defect(pt, sad) + 1e-15 * abs(value)
           + 4.0 * 2.0 ** -52 * (abs(struve_part) + abs(asym_part) + abs(sad)))
    return MethodResult(value, Method.PARIS, terms_used=terms, n_used=n,
                        saddle_term=sad, internal_error_estimate=est,
                        components=Components(s1, asym, sad))


def curly_F_residual(pt: EvalPoint, n: int, oracle_abs_tol: float = 1e-12) -> float:
    """The tabulated residual: F (from the quadrature oracle) plus the
    Struve sum minus the n-term asymptotic sum,

        F + pi e^(-rho/2) S1 - pi e^(rho/2) sum_{k<n} M^-k/(2^2k k!) C_k.

    n counts retained asymptotic terms (highest coefficient index n-1).
    Equals the exact saddle contribution plus the asymptotic truncation
    defect; the reference error table reports its magnitude.
    """
    f_val = oracle_F(pt, abs_tol=oracle_abs_tol).value
    struve_part, asym_part = _large_parts(pt, n, Ladders())[:2]
    return f_val + struve_part - asym_part
