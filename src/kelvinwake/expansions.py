"""Series evaluations of the wake integral F(x, rho, alpha).

Three methods are provided, all sharing the EvalPoint geometry:

* bessho_F  -- the absolutely convergent Bessel product series
               K0(rho/2) J0(x) + 2 sum_m (-1)^m cos(m alpha) K_m(rho/2) J_2m(x).
               Convergent everywhere, but for large M = x^2/(4 rho) the terms
               first grow to ~e^M/M before decaying, so the sum is evaluated
               with scaled recurrences in double-double arithmetic and aborts
               honestly when cancellation would exceed 1e12.

* ursell_F  -- the truncated I_m Y_2m counterpart plus the closed-form
               saddle estimate; accurate to O(e^-M).

* paris_F   -- the three-part large-M expansion: a convergent scaled-Struve
               sum, an asymptotic series in 1/M with coefficients C_k, and
               an exponentially small saddle-point term.

The C_k coefficient tables (lookups into the quadrature oracle's cached
table at every alpha; the exact alpha = 0 recurrence is kept as a
reference) and the residual that the error table reports live here too.
"""

from __future__ import annotations

import enum
import math
import warnings
from dataclasses import dataclass
from typing import Optional

from . import ddouble as dd
from .errors import AccuracyError, DomainError, RegimeError
from .oracle import EvalPoint, oracle_Ck, oracle_F
from .specfun import _k01_dd, _struve_h_scaled_dd, _y01_dd, struve_k_scaled

#: Largest supported asymptotic truncation (coefficient engines cap here).
CK_MAX = 30

#: Stopping threshold of the convergent sums, relative to the running sum.
SERIES_REL_TOL = 1e-16

#: Hard cap on the terms of each convergent sum.
MAX_TERMS = 500

#: |alpha| (radians) below which the saddle term takes its midplane form.
SADDLE_ALPHA_SWITCH = 0.02


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
        if self.n is not None and (not isinstance(self.n, int) or self.n < 1):
            raise DomainError(f"n must be a positive integer or None, got {self.n!r}")

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


# ---------------------------------------------------------------------------
# Bessel product series


def _jhat_dd(m, w):
    """J_2m(x) * (2m)! / (x/2)^(2m) as a double-double; w = (x/2)^2."""
    t = dd.ONE
    s = dd.ONE
    i = 0
    while True:
        t = dd.neg(dd.div_d(dd.mul(t, w), float((i + 1) * (2 * m + i + 1))))
        if abs(t[0]) <= 1e-21 * abs(s[0]) + 1e-305:
            return s
        s = dd.add(s, t)
        i += 1


def bessho_F(pt: EvalPoint) -> MethodResult:
    """Convergent Bessel product series for F.

    Terms are products K_m(rho/2) J_2m(x) evaluated as scaled pairs
    kappa_m = K_m (x/2)^{2m} / (2m)!  and  jhat_m = J_2m (2m)! (x/2)^{-2m},
    with kappa advanced by the K recurrence.  This keeps every intermediate
    in range for any M and concentrates the cancellation in the final sum,
    which is accumulated in double-double.  Stops after three consecutive
    terms below SERIES_REL_TOL relative (single small terms are routinely
    accidental: cos(m alpha) has zeros).
    """
    w = dd.two_prod(0.5 * pt.x, 0.5 * pt.x)
    m_dd = dd.div_d(dd.two_prod(pt.x, pt.x), 4.0 * pt.rho)
    k0, k1, _ = _k01_dd(0.5 * pt.rho)
    kap_prev = k0                                  # kappa_0
    kap_cur = dd.div_d(dd.mul(k1, w), 2.0)         # kappa_1

    total = dd.mul(kap_prev, _jhat_dd(0, w))
    peak = abs(total[0])
    abs_sum = abs(total[0])
    last = abs(total[0])
    small = 0
    m = 1
    while m <= MAX_TERMS:
        if m == 1:
            kap = kap_cur
        else:
            a = dd.div_d(dd.mul_d(m_dd, 4.0 * (m - 1)), float((2 * m) * (2 * m - 1)))
            b = dd.div_d(dd.mul(w, w),
                         float((2 * m) * (2 * m - 1) * (2 * m - 2) * (2 * m - 3)))
            kap = dd.add(dd.mul(kap_cur, a), dd.mul(kap_prev, b))
            kap_prev, kap_cur = kap_cur, kap
        if not math.isfinite(kap[0]):
            raise AccuracyError("Bessel product terms overflow double range",
                                value=dd.to_float(total), terms_used=m)
        sign = -1.0 if m % 2 else 1.0
        term = dd.mul_d(dd.mul(kap, _jhat_dd(m, w)),
                        2.0 * sign * math.cos(m * pt.alpha_abs))
        total = dd.add(total, term)
        peak = max(peak, abs(total[0]))
        abs_sum += abs(term[0])
        last = abs(term[0])
        if last <= SERIES_REL_TOL * abs(total[0]):
            small += 1
            if small >= 3:
                break
        else:
            small = 0
        m += 1
    else:
        raise AccuracyError(
            f"Bessel product series not converged in {MAX_TERMS} terms "
            f"(M = {pt.M:.3g}; convergence needs ~2.7 M terms)",
            value=dd.to_float(total), error_estimate=last,
            terms_used=MAX_TERMS)

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
    The estimate adds to those two the saddle estimate's O(1/M) defect and
    the rounding of the sum, a few ulps of its terms.
    """
    if pt.M <= 1.0:
        raise DomainError(f"ursell_F needs M > 1, got M = {pt.M:.3g}")
    x, rho, alpha = pt.x, pt.rho, pt.alpha_abs
    mmax = math.floor(pt.M)

    y0, y1, _ = _y01_dd(x)
    yh = [dd.to_float(y0), dd.to_float(dd.mul_d(y1, 0.5 * x))]
    q = 0.25 * x * x
    for nn in range(1, 2 * mmax):
        yh.append(yh[nn] * nn / (nn + 1.0) - yh[nn - 1] * q / (nn * (nn + 1.0)))

    z = 0.5 * rho

    def bessel_i_sigma(m):
        # I_m(z) * m! * (z/2)^-m
        t, s = 1.0, 1.0
        i = 0
        while True:
            t *= (z * z / 4.0) / ((i + 1) * (m + i + 1))
            s += t
            i += 1
            if t < 1e-17 * s:
                return s

    terms = [bessel_i_sigma(0) * yh[0]]
    fac = 1.0
    for m in range(1, mmax + 1):
        fac *= (2.0 * m - 1.0) / (2.0 * pt.M)
        terms.append(2.0 * math.cos(m * alpha) * fac * bessel_i_sigma(m) * yh[2 * m])
    series = math.fsum(terms)

    amp = _saddle_amplitude(pt)
    sad = amp * math.sin((pt.M + 0.5 * rho) * math.sin(alpha) + 0.5 * alpha)
    value = -math.pi * series + sad
    est = (math.exp(-pt.M) + math.pi * abs(terms[-1]) + 2.0 * amp / pt.M
           + 4.0 * 2.0 ** -52 * (math.pi * math.fsum(map(abs, terms)) + abs(sad)))
    return MethodResult(value, Method.URSELL, terms_used=mmax + 1, n_used=mmax,
                        saddle_term=sad, internal_error_estimate=est)


# ---------------------------------------------------------------------------
# convergent scaled-Struve sums


def _struve_series(x, rho, s, c):
    """sum_r (rho^r/r!) sum_m ((-1)^m (m+1/2)_r / m!) (xs/2)^{2m} Hscal_{m+r}(xc).

    Returns (value, terms_used).  At s = 0 only m = 0 survives and this is
    the single sum over r.
    """
    xc = x * c
    y = (0.5 * x * s) ** 2
    hvals = []

    def hscal(j):
        while len(hvals) <= j:
            v, _, _ = _struve_h_scaled_dd(len(hvals), xc)
            hvals.append(dd.to_float(v))
        return hvals[j]

    total = 0.0
    comp = 0.0          # Neumaier compensation
    terms = 0
    rcoef = 1.0         # rho^r / r!
    poch_base = 1.0     # (1/2)_r
    small_r = 0
    for r in range(MAX_TERMS):
        if r > 0:
            rcoef *= rho / r
            poch_base *= r - 0.5
        block = 0.0
        poch = poch_base            # (m+1/2)_r
        mcoef = 1.0                 # y^m / m!
        small_m = 0
        for m in range(MAX_TERMS):
            if m > 0:
                mcoef *= y / m
                poch *= (m - 0.5 + r) / (m - 0.5)
            t = rcoef * (-mcoef if m % 2 else mcoef) * poch * hscal(m + r)
            block += t
            terms += 1
            # Neumaier step
            total_new = total + t
            if abs(total) >= abs(t):
                comp += (total - total_new) + t
            else:
                comp += (t - total_new) + total
            total = total_new
            if abs(t) <= SERIES_REL_TOL * abs(total) + 1e-305:
                small_m += 1
                if small_m >= 3:
                    break
            else:
                small_m = 0
        else:
            raise AccuracyError("inner Struve sum exhausted MAX_TERMS",
                                value=total + comp, terms_used=terms)
        if abs(block) <= SERIES_REL_TOL * abs(total) + 1e-305:
            small_r += 1
            if small_r >= 3:
                return total + comp, terms
        else:
            small_r = 0
    raise AccuracyError("outer Struve sum exhausted MAX_TERMS",
                        value=total + comp, terms_used=terms)


def struve_double_sum(pt: EvalPoint) -> float:
    """The full convergent double Struve sum S1.

    At alpha = 0 the (xs/2)^2m factor kills every m >= 1 and it is the
    midplane sum  sum_r ((1/2)_r / r!) rho^r Hscal_r(x);  I1 equals
    (pi e^-rho / 2) times this value.
    """
    value, _ = _struve_series(pt.x, pt.rho, pt.s, pt.c)
    return value


# ---------------------------------------------------------------------------
# asymptotic coefficients


def ck_symbolic_coefficients(n: int):
    """Exact integer coefficients a[m][j] with

        C_m = sum_j a[m][j] x^(2(m-j)) Kscal_j(x).

    Unrolled from the recurrence with exact integer arithmetic:
    a[m][m] = (2m-1)!!,  a[m][j] = -sum_{r=j}^{m-1} binom(m, r) a[r][j].
    """
    if not isinstance(n, int) or not 1 <= n <= CK_MAX:
        raise DomainError(f"n must be an integer in [1, {CK_MAX}]")
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
    if not isinstance(n, int) or not 1 <= n <= CK_MAX:
        raise DomainError(f"n must be an integer in [1, {CK_MAX}]")
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
    if not isinstance(n, int) or not 1 <= n <= CK_MAX:
        raise DomainError(f"n must be an integer in [1, {CK_MAX}]")
    values = tuple(oracle_Ck(k, float(x), float(alpha)).value for k in range(n))
    return CoefficientTable(alpha=float(alpha), x=float(x), values=values)


def _asymptotic_terms(pt: EvalPoint, ck: CoefficientTable):
    fac = 1.0
    out = []
    for k, c in enumerate(ck.values):
        out.append(fac * c)
        fac /= 4.0 * pt.M * (k + 1)
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


def _large_parts(pt: EvalPoint, n: int):
    """The two large parts of the expansion, pi e^(-rho/2) S1 and
    pi e^(rho/2) sum_{k<n} M^-k/(2^2k k!) C_k, followed by S1, the
    asymptotic sum, the number of Struve terms and the last asymptotic
    term."""
    s1, terms = _struve_series(pt.x, pt.rho, pt.s, pt.c)
    ck = ck_table(n, pt.x, pt.alpha_abs)
    asym = asymptotic_sum(pt, ck)
    return (math.pi * math.exp(-0.5 * pt.rho) * s1,
            math.pi * math.exp(0.5 * pt.rho) * asym,
            s1, asym, terms, _asymptotic_terms(pt, ck)[-1])


def paris_F(pt: EvalPoint, policy: TruncationPolicy = DEFAULT_POLICY) -> MethodResult:
    """Three-part large-M evaluation of F:

        -pi e^(-rho/2) S1 + pi e^(rho/2) sum_{k<n} M^-k/(2^2k k!) C_k + saddle

    with S1 the convergent double Struve sum.  The stored components
    reproduce the value exactly in double arithmetic.  Soft regime: M >= 4
    (a warning is issued below).
    """
    if pt.M < 4.0:
        warnings.warn(f"paris_F called at M = {pt.M:.3g} < 4; accuracy degrades "
                      "as M shrinks", RuntimeWarning, stacklevel=2)
    n = policy.resolve_n(pt)
    struve_part, asym_part, s1, asym, terms, last = _large_parts(pt, n)
    sad = saddle_term(pt)
    value = -struve_part + asym_part + sad
    # the saddle estimate's own defect is O(1/M) of its AMPLITUDE; using
    # |sad| would understate it badly near zeros of the sine factor
    amp = abs(sad) if pt.alpha_abs < SADDLE_ALPHA_SWITCH else _saddle_amplitude(pt)
    # the rounding error of the three-part sum is absolute: a few ulps of
    # its parts, however much of them cancels in the value
    est = (math.pi * math.exp(0.5 * pt.rho) * abs(last)
           + 2.0 * amp / pt.M + 1e-15 * abs(value)
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
