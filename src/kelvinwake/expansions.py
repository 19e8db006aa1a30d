"""Series evaluations of the wake integral F(x, rho, alpha).

Three methods are provided, all sharing the EvalPoint geometry:

* bessho_F  -- the absolutely convergent Bessel product series
               K0(rho/2) J0(x) + 2 sum_m (-1)^m cos(m alpha) K_m(rho/2) J_2m(x).
               Convergent everywhere, but for large M = x^2/(4 rho) the terms
               first grow to ~e^M/M before decaying, so the sum is evaluated
               with scaled recurrences in double-double arithmetic and aborts
               honestly when cancellation would exceed 1e12.  Every factor
               is carried to about 1e-30: K_m by its upward recurrence, J_2m
               by the downward one from two series seeds a window of
               BESSHO_WINDOW orders (_jhat_window), cos(m alpha) by a
               Chebyshev ladder on a Taylor-series cos alpha (_cos_ladder).

* ursell_F  -- the truncated I_m Y_2m counterpart plus the closed-form
               saddle estimate; accurate to O(e^-M).

* paris_F   -- the three-part large-M expansion: a convergent scaled-Struve
               sum, an asymptotic series in 1/M with coefficients C_k, and
               an exponentially small saddle-point term.  The sum reads
               Hscal_j(x c) from one ladder (_hscals): HSCAL_WINDOW orders
               at a time by the downward Struve recurrence from two series
               seeds (specfun._hscal_window).

The C_k coefficient tables (lookups into the quadrature oracle's cached
table at every alpha; the exact alpha = 0 recurrence is kept as a
reference) and the residual that the error table reports live here too.

field_route is the rule that picks a point's route in `field`.  For a
group of points, struve_block and bessho_block run the scalar loops of the
two convergent sums, _struve_series and _bessho_sum, once per distinct
point, on the parts that do not depend on the point formed once for the
group (one Hscal ladder per x c; the J_2m, product and cos ladders of
the Bessel sum); `field` hands their merged results to paris_F and
bessho_F as their `memo`.
"""

from __future__ import annotations

import collections
import enum
import itertools
import math
import warnings
from dataclasses import dataclass
from typing import Mapping, Optional

from . import ddouble as dd
from .errors import AccuracyError, DomainError, RegimeError
from .oracle import EvalPoint, oracle_Ck, oracle_F
from .specfun import (ORDER_CAP, _check_int, _hscal_window, _k01_dd, _log_rounding,
                      _series_dd, _y01_dd, struve_k_scaled)

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
                self.n, 1, None, "n must be a positive integer or None, got {!r}"))

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


def _key(pt: EvalPoint):
    return pt.x, pt.rho, pt.alpha_abs


# ---------------------------------------------------------------------------
# Bessel product series


#: Indices m of one window of the Bessel products: _jhat_window seeds
#: its recurrence once a window.  The rows of the benchmark's field sweep
#: read 11 to 42 products.
BESSHO_WINDOW = 24

#: Relative stopping threshold of the series behind the Bessel product
#: factors (jhat_0, the seeds of _jhat_window, cos alpha): below the
#: double-double resolution, so each is exact to the working precision.
_DD_REL = 1e-33


def _jhat0(minus_w):
    """jhat_0 = J_0(x) as a double-double, minus_w = -(x/2)^2."""
    return _series_dd(dd.ONE, minus_w, 1.0, 1.0, _DD_REL)[0]


def _jhat_window(minus_w, m0, m1):
    """[jhat_m0, ..., jhat_m1] (1 <= m0 <= m1) as double-doubles, where
    jhat_m = J_2m(x) (2m)! (x/2)^{-2m} and minus_w = -w = -(x/2)^2.

    With f_n = J_n(x) n! (x/2)^{-n} = sum_i (-w)^i / (i! (n+1)_i), so that
    jhat_m = f_2m, the Bessel recurrence reads

        f_{n-1} = f_n - w f_{n+1} / (n (n+1)).

    f_{2 m1 + 1} and f_{2 m1} are summed as ascending series, and the
    orders below follow from them by the recurrence.  Taken downwards it
    is stable (Miller's method): f tends to 1 as n grows, while the second
    solution, Y_n's counterpart, falls off as n falls.
    """
    upper = _series_dd(dd.ONE, minus_w, 1.0, 2.0 * m1 + 2.0, _DD_REL)[0]
    f = _series_dd(dd.ONE, minus_w, 1.0, 2.0 * m1 + 1.0, _DD_REL)[0]
    out = [f]
    for n in range(2 * m1, 2 * m0, -1):
        upper, f = f, dd.add(f, dd.div_d(dd.mul(minus_w, upper), float(n * (n + 1))))
        if n % 2:
            out.append(f)
    out.reverse()
    return out


def _cos_ladder(alpha):
    """c_m = 2 (-1)^m cos(m alpha) for m = 1, 2, ... as double-doubles,
    without end.

    cos alpha is summed from its Taylor series (alpha/2 is exact, so
    two_prod gives -(alpha/2)^2 exactly), and c_{m+1} = -2 cos(alpha) c_m
    - c_{m-1} from c_0 = 2.  A double cos(m alpha), whose 1e-16 relative
    error the cancelling product series multiplies by up to 1e12, is
    avoided this way.
    """
    cos_a = _series_dd(dd.ONE, dd.two_prod(0.5 * alpha, -0.5 * alpha), 0.5, 1.0, _DD_REL)[0]
    step = (-2.0 * cos_a[0], -2.0 * cos_a[1])
    prev, cur = (2.0, 0.0), step
    while True:
        yield cur
        prev, cur = cur, dd.sub(dd.mul(step, cur), prev)


def _jhats(x):
    """jhat_m = J_2m(x) (2m)! (x/2)^{-2m} as double-doubles for m = 0, 1,
    ..., MAX_TERMS: jhat_0 from _jhat0, the others BESSHO_WINDOW indices m
    at a time from _jhat_window."""
    minus_w = dd.neg(dd.two_prod(0.5 * x, 0.5 * x))
    yield _jhat0(minus_w)
    for m0 in range(1, MAX_TERMS + 1, BESSHO_WINDOW):
        yield from _jhat_window(minus_w, m0, min(m0 + BESSHO_WINDOW - 1, MAX_TERMS))


def _bessel_products(x, rho, jhats):
    """kappa_m(rho/2) jhat_m(x) as double-doubles for m = 0, 1, ..., MAX_TERMS,
    where kappa_m = K_m(rho/2) (x/2)^{2m} / (2m)! is advanced by the K
    recurrence and jhat_m is read from jhats, the _jhats of x; None in
    place of the first product whose kappa_m overflows, which ends the
    ladder.  None of it depends on alpha."""
    w = dd.two_prod(0.5 * x, 0.5 * x)
    ww = dd.mul(w, w)
    m_dd = dd.div_d(dd.two_prod(x, x), 4.0 * rho)
    k0, k1, _ = _k01_dd(0.5 * rho)
    kap_prev = k0                                  # kappa_0
    kap_cur = dd.div_d(dd.mul(k1, w), 2.0)         # kappa_1
    yield dd.mul(kap_prev, next(jhats))
    for m, jh in enumerate(jhats, 1):
        if m > 1:
            a = dd.div_d(dd.mul_d(m_dd, 4.0 * (m - 1)), float((2 * m) * (2 * m - 1)))
            b = dd.div_d(ww, float((2 * m) * (2 * m - 1) * (2 * m - 2) * (2 * m - 3)))
            kap = dd.add(dd.mul(kap_cur, a), dd.mul(kap_prev, b))
            kap_prev, kap_cur = kap_cur, kap
        if not math.isfinite(kap_cur[0]):
            yield None
            return
        yield dd.mul(kap_cur, jh)


def _bessho_sum(ladder, products):
    """The Bessel product series, summed in double-double from the products
    of _bessel_products, each times its factor from ladder, the _cos_ladder
    of the point's |alpha|, until its stopping rule.

    Returns (total, peak, abs_sum, last, m, stop): peak is the largest
    |partial sum|, abs_sum the sum of |terms|, last the last |term|, m the
    index of the last product read, and stop None, "overflow" (product m
    overflowed and was not summed) or "max_terms".  The sum stops after
    three consecutive terms below SERIES_REL_TOL relative (single small
    terms are routinely accidental: cos(m alpha) has zeros).
    """
    total = next(products)
    peak = abs_sum = last = abs(total[0])
    small = 0
    m = 0
    for prod, coef in zip(products, ladder):
        m += 1
        if prod is None:
            return total, peak, abs_sum, last, m, "overflow"
        term = dd.mul(prod, coef)
        total = dd.add(total, term)
        peak = max(peak, abs(total[0]))
        abs_sum += abs(term[0])
        last = abs(term[0])
        if last <= SERIES_REL_TOL * abs(total[0]):
            small += 1
            if small >= 3:
                return total, peak, abs_sum, last, m, None
        else:
            small = 0
    return total, peak, abs_sum, last, m, "max_terms"


def bessho_block(pts):
    """{(x, rho, |alpha|): _bessho_sum's outcome} for the distinct points
    of pts.

    Each point runs the scalar sum, on parts formed once per distinct
    value: the jhat_m by one _jhats per x, the products by one
    _bessel_products per (x, rho), the cos(m alpha) factors by one
    _cos_ladder per |alpha|, each reader taking its own itertools.tee copy
    of them.  So every outcome equals _bessho_sum's at that point bit for
    bit, refusals included.
    """
    keys = dict.fromkeys(map(_key, pts))
    pairs = [key[:2] for key in keys]
    jhats = _tees(_jhats, [(x,) for x, _ in dict.fromkeys(pairs)])
    products = _tees(lambda x, rho: _bessel_products(x, rho, next(jhats[(x,)])), pairs)
    ladders = _tees(_cos_ladder, [key[2:] for key in keys])
    return {key: _bessho_sum(next(ladders[key[2:]]), next(products[key[:2]]))
            for key in keys}


def _tees(make, args):
    """{a: an iterator over the itertools.tee copies of make(*a)}, one copy
    for each time a occurs in args."""
    return {a: iter(itertools.tee(make(*a), n))
            for a, n in collections.Counter(args).items()}


def bessho_F(pt: EvalPoint, *, memo: Optional[Mapping] = None) -> MethodResult:
    """Convergent Bessel product series for F.

    Terms are products K_m(rho/2) J_2m(x) evaluated as scaled pairs
    kappa_m = K_m (x/2)^{2m} / (2m)!  and  jhat_m = J_2m (2m)! (x/2)^{-2m}
    (_bessel_products).  This keeps every intermediate in range for any M
    and concentrates the cancellation in the final sum, which is
    accumulated in double-double (_bessho_sum).  memo maps
    (x, rho, |alpha|) to the sum as bessho_block computed it for a group
    of points; by default it is computed here.
    """
    if memo is None:
        summed = _bessho_sum(_cos_ladder(pt.alpha_abs),
                             _bessel_products(pt.x, pt.rho, _jhats(pt.x)))
    else:
        summed = memo[_key(pt)]
    total, peak, abs_sum, last, m, stop = summed
    if stop == "overflow":
        raise AccuracyError("Bessel product terms overflow double range",
                            value=dd.to_float(total), terms_used=m)
    if stop == "max_terms":
        raise AccuracyError(
            f"Bessel product series not converged in {m} terms "
            f"(M = {pt.M:.3g}; convergence needs ~2.7 M terms)",
            value=dd.to_float(total), error_estimate=last, terms_used=m)
    value = dd.to_float(total)
    if peak > 1e12 * max(abs(value), 5e-324):
        raise AccuracyError(
            f"cancellation in the Bessel product series exceeds 1e12 "
            f"(peak {peak:.3g} against result {value:.3g})",
            value=value, terms_used=m)
    est = 10.0 * last + 2.3e-16 * abs_sum
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
    """
    if pt.M <= 1.0:
        raise DomainError(f"ursell_F needs M > 1, got M = {pt.M:.3g}")
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
    """Hscal_j(xc) as doubles for j = 0, 1, ..., 2 ORDER_CAP - 1,
    HSCAL_WINDOW orders at a time from _hscal_window."""
    for j0 in range(0, 2 * ORDER_CAP, HSCAL_WINDOW):
        yield from _hscal_window(xc, j0, min(j0 + HSCAL_WINDOW, 2 * ORDER_CAP) - 1)


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


def _struve_value(pt, memo=None):
    """(S1, orders summed) at pt, _struve_series's outcome or, where memo is
    given, memo's (see paris_F); AccuracyError where the sum was refused."""
    value, terms, refused = (_struve_series(pt, _hscals(pt.x * pt.c)) if memo is None
                             else memo[_key(pt)])
    if refused:
        raise AccuracyError(f"Struve sum not converged in {terms} orders",
                            value=value, terms_used=terms)
    return value, terms


def struve_block(pts):
    """{(x, rho, |alpha|): _struve_series's outcome} for the distinct
    points of pts.

    Each point runs the scalar sum on one _hscals per distinct x c, each
    reader taking its own itertools.tee copy of it.  So every outcome
    equals _struve_series's at that point bit for bit, refusals included.
    """
    pts = {_key(pt): pt for pt in pts}
    xcs = {key: (pt.x * pt.c,) for key, pt in pts.items()}
    ladders = _tees(_hscals, xcs.values())
    return {key: _struve_series(pt, next(ladders[xcs[key]])) for key, pt in pts.items()}


def struve_double_sum(pt: EvalPoint) -> float:
    """The convergent Struve sum S1 = sum_{r,m} (rho^r/r!) ((-1)^m (m+1/2)_r
    / m!) (xs/2)^2m Hscal_{m+r}(xc), xs = x sin(alpha/2), xc = x cos(alpha/2),
    summed as one series over the orders j = m + r (_struve_coefficients).

    At alpha = 0 the (xs/2)^2m factor kills every m >= 1 and it is the
    midplane sum  sum_r ((1/2)_r / r!) rho^r Hscal_r(x);  I1 equals
    (pi e^-rho / 2) times this value.
    """
    return _struve_value(pt)[0]


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
    return CoefficientTable(alpha=0.0, x=float(x),
                            values=tuple(dd.to_float(v) for v in cvals))


def ck_table(n: int, x: float, alpha: float) -> CoefficientTable:
    """C_0 .. C_{n-1} at (x, alpha), alpha in [0, pi/2].

    Lookups into oracle_Ck's cached table of C_0 .. C_30 at (x, alpha),
    which is computed whole on its first use, so the values do not depend
    on n.
    """
    n = _check_int(n, 1, CK_MAX, _CK_N_MESSAGE)
    values = tuple(oracle_Ck(k, float(x), float(alpha)).value for k in range(n))
    return CoefficientTable(alpha=float(alpha), x=float(x), values=values)


def _asymptotic_terms(pt: EvalPoint, ck: CoefficientTable):
    fac = 1.0
    four_m = 4.0 * pt.M
    out = []
    for k, c in enumerate(ck.values):
        out.append(fac * c)
        fac /= four_m * (k + 1)
    return out


def _last_asymptotic_term(pt: EvalPoint, ck: CoefficientTable) -> float:
    """The last of _asymptotic_terms(pt, ck), by the same float operations,
    without forming the others."""
    fac = 1.0
    four_m = 4.0 * pt.M
    for k in range(1, len(ck.values)):
        fac /= four_m * k
    return fac * ck.values[-1]


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


def _large_parts(pt: EvalPoint, n: int, memo: Optional[Mapping] = None):
    """The two large parts of the expansion, pi e^(-rho/2) S1 and
    pi e^(rho/2) sum_{k<n} M^-k/(2^2k k!) C_k, followed by S1, the
    asymptotic sum, the number of Struve orders and the last asymptotic
    term.  S1's outcome is read from memo where given (see paris_F)."""
    s1, terms = _struve_value(pt, memo)
    ck = ck_table(n, pt.x, pt.alpha_abs)
    asym = asymptotic_sum(pt, ck)
    return (math.pi * math.exp(-0.5 * pt.rho) * s1,
            math.pi * math.exp(0.5 * pt.rho) * asym,
            s1, asym, terms, _last_asymptotic_term(pt, ck))


def paris_F(pt: EvalPoint, policy: TruncationPolicy = DEFAULT_POLICY, *,
            memo: Optional[Mapping] = None) -> MethodResult:
    """Three-part large-M evaluation of F:

        -pi e^(-rho/2) S1 + pi e^(rho/2) sum_{k<n} M^-k/(2^2k k!) C_k + saddle

    with S1 the convergent Struve sum (struve_double_sum); terms_used
    counts its orders.  The stored components
    reproduce the value exactly in double arithmetic.  Soft regime: M >= 4
    (a warning is issued below).  memo maps (x, rho, |alpha|) to S1's
    outcome as struve_block computed it for a group of points; by default
    it is computed here.
    """
    if pt.M < 4.0:
        warnings.warn(f"paris_F called at M = {pt.M:.3g} < 4; accuracy degrades "
                      "as M shrinks", RuntimeWarning, stacklevel=2)
    n = policy.resolve_n(pt)
    struve_part, asym_part, s1, asym, terms, last = _large_parts(pt, n, memo)
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
    struve_part, asym_part = _large_parts(pt, n)[:2]
    return f_val + struve_part - asym_part
