"""Explicit error bounds for the asymptotic part of the expansion.

Two analytic bounds govern the 1/M series for the imaginary-axis integral
I2, writing u0 and c for the geometry of the evaluation point:

* remainder:  |R_n| < M^-n Gamma(2n) / n!
* tail:       |T| < 2 e^(-M u0 c)                      (needs n < M u0 c)
              |T| < 2 e^(-2 M u0 c) sum_{k<n} (M u0^2)^k   (any finite n)

together with the incomplete-gamma inequality that the tail derivation
consumes:

    Gamma(a, chi) <= 2 chi^a e^-chi   for 0 <= a <= chi, chi >= 1.

This module evaluates the bounds in log space, as inf where one passes
the double range, and verifies them against defects measured with the
quadrature oracle (oracle_I2, oracle_Ck and oracle_I2_tails), raising
BoundViolationError whenever a measurement exceeds its bound.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

from .errors import BoundViolationError, DomainError
from .oracle import CK_INDEX_MAX, EvalPoint, _ck_values, oracle_Ck, oracle_I2, oracle_I2_tails
from .specfun import _check_finite, _check_int, upper_inc_gamma

#: The smallest positive double, the floor of the tail bounds.
_TINY = 5e-324

_N_MESSAGE = f"n must be an integer in [1, {CK_INDEX_MAX + 1}], got {{}}"


@dataclass(frozen=True)
class BoundReport:
    """A bound evaluation paired with the measurement it controls.

    Fields not produced by a given verification are None: the remainder
    reports leave inc_gamma_margin empty, the gamma-grid report leaves the
    point-specific fields empty.
    """

    point: Optional[EvalPoint]
    n: Optional[int]
    rn_bound: Optional[float]
    tail_bound: Optional[float]
    inc_gamma_margin: Optional[float]
    measured_rn: Optional[float] = None
    measured_tail: Optional[float] = None


def _float_or_inf(n: int) -> float:
    """The int n as a float, or inf past the double range."""
    try:
        return float(n)
    except OverflowError:
        return math.inf


def remainder_bound(n: int, M: float) -> float:
    """The Lagrange-remainder envelope M^-n Gamma(2n) / n!, in log space;
    inf where it passes the double range."""
    n = _check_int(n, 1, None, "n must be a positive integer, got {}")
    M = _check_finite(M, "M")
    if M <= 0:
        raise DomainError("M must be positive")
    if n < 2 ** 53:
        log_b = math.lgamma(2 * n) - math.lgamma(n + 1) - n * math.log(M)
    else:
        # Stirling, where lgamma(2n) may overflow:
        # ln(Gamma(2n) / n!) = n (ln n + ln 4 - 1) - ln n - ln(2)/2 + O(1/n);
        # math.log takes an int of any size
        log_n = math.log(n)
        log_b = (_float_or_inf(n) * (log_n + math.log(4.0) - 1.0 - math.log(M))
                 - log_n - 0.5 * math.log(2.0))
    try:
        return math.exp(log_b)
    except OverflowError:
        return math.inf


def tail_bound_components(n: int, pt: EvalPoint):
    """(simple bound, finite-n bound) for the truncated-range tail.

    The simple form 2 e^(-M u0 c) requires n < M u0 c and is inf outside
    that regime; the finite-n geometric form is always valid.  Both are
    positive, so where one underflows (M u0 c above about 745, or 372 for
    the finite-n form) it is returned as the smallest positive double, and
    where the finite-n form passes the double range, as inf.
    """
    n = _check_int(n, 1, None, "n must be a positive integer, got {}")
    m_u0_c = pt.M * pt.u0 * pt.c
    simple = max(2.0 * math.exp(-m_u0_c), _TINY) if n < m_u0_c else math.inf
    q = pt.M * pt.u0 * pt.u0
    # geometric sum sum_{k<n} q^k in logs to survive large n * log q; an n
    # past the double range counts as inf
    n_f = _float_or_inf(n)
    if q == 1.0:
        log_geo = math.log(n)
    elif q < 1.0:
        log_geo = math.log((1.0 - q ** n_f) / (1.0 - q))
    else:
        log_geo = n_f * math.log(q) + math.log1p(-q ** -n_f) - math.log(q - 1.0)
    log_finite = math.log(2.0) - 2.0 * m_u0_c + log_geo
    finite = max(math.exp(log_finite), _TINY) if log_finite < 709.0 else math.inf
    return simple, finite


def tail_bound(n: int, pt: EvalPoint) -> float:
    """Best applicable tail bound (minimum of the two regimes)."""
    simple, finite = tail_bound_components(n, pt)
    return min(simple, finite)


def tail_bound_regime(n: int, pt: EvalPoint) -> str:
    """Which regime produced tail_bound: 'simple' or 'finite-n'."""
    simple, finite = tail_bound_components(n, pt)
    return "simple" if simple <= finite else "finite-n"


def verify_remainder(pt: EvalPoint, n: int) -> BoundReport:
    """Measure the exact n-term defect of I2 and check it against the bounds.

    The finite sum of full-range integrals is (pi/2) sum_{k<n} M^-k/(4^k k!)
    C_k with C_k taken from the quadrature oracle (no series code involved),
    the truncated-range tail is restored by one quadrature of its n moments
    (oracle_I2_tails), and the leftover is exactly the Lagrange remainder
    the envelope controls.  Each moment is measured to a thousandth of the
    smaller bound over n (or more finely), so the quadrature moves neither
    check by more than that.  C_0 .. C_{n-1} are one read of oracle_Ck's
    cached table: oracle_Ck(0) validates and builds it, and the row comes
    from it at once, so n is at most CK_INDEX_MAX + 1, checked before any
    work.  Raises BoundViolationError unless both strict inequalities
    hold, AccuracyError if a quadrature misses its tolerance, with
    oracle_Ck(k)'s error for the first stalled C_k.
    """
    n = _check_int(n, 1, CK_INDEX_MAX + 1, _N_MESSAGE)
    rn_b = remainder_bound(n, pt.M)
    tail_b = tail_bound(n, pt)
    i2 = oracle_I2(pt).value
    oracle_Ck(0, pt.x, pt.alpha_abs)
    full_terms = []
    fac = math.pi / 2.0
    for k, c_k in enumerate(_ck_values(n, pt.x, pt.alpha_abs)):
        full_terms.append(fac * c_k)
        fac /= 4.0 * pt.M * (k + 1)
    measured_tail = math.fsum(oracle_I2_tails(pt, n, 1e-3 / n * min(rn_b, tail_b)))
    measured_rn = i2 - (math.fsum(full_terms) - measured_tail)
    report = BoundReport(point=pt, n=n, rn_bound=rn_b, tail_bound=tail_b,
                         inc_gamma_margin=None, measured_rn=measured_rn,
                         measured_tail=measured_tail)
    if not abs(measured_rn) < rn_b:
        raise BoundViolationError(
            f"remainder defect {measured_rn:.6e} is not below its bound "
            f"{rn_b:.6e} at {pt}, n = {n}")
    if not abs(measured_tail) < tail_b:
        raise BoundViolationError(
            f"tail {measured_tail:.6e} is not below its bound {tail_b:.6e} "
            f"at {pt}, n = {n}")
    return report


def verify_inc_gamma_bound(grid) -> BoundReport:
    """Check Gamma(a, chi) <= 2 chi^a e^-chi over a grid of (a, chi) pairs.

    Every pair must satisfy 0 <= a <= chi and chi >= 1.  Returns the worst
    ratio Gamma(a, chi) / (2 chi^a e^-chi) as inc_gamma_margin; a ratio
    above one raises BoundViolationError.
    """
    pairs = list(grid)
    if not pairs:
        raise DomainError("grid must be nonempty")
    worst = 0.0
    worst_at = None
    for a, chi in pairs:
        if not (0.0 <= a <= chi and chi >= 1.0):
            raise DomainError(f"grid point (a={a}, chi={chi}) violates "
                              "0 <= a <= chi, chi >= 1")
        g = upper_inc_gamma(float(a), float(chi))
        log_ratio = math.log(g.value) - (math.log(2.0) + a * math.log(chi) - chi)
        ratio = math.exp(log_ratio)
        if ratio > worst:
            worst = ratio
            worst_at = (a, chi)
    report = BoundReport(point=None, n=None, rn_bound=None, tail_bound=None,
                         inc_gamma_margin=worst)
    if worst > 1.0:
        raise BoundViolationError(
            f"incomplete-gamma bound violated at (a, chi) = {worst_at}: "
            f"ratio {worst:.6f}")
    return report
