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
BoundViolationError whenever a measurement exceeds its bound.  The
incomplete-gamma inequality is checked on a grid of (a, chi) pairs,
INC_GAMMA_GRID for `kelvinwake bounds`, by one numpy pass of Legendre's
continued fraction over all pairs (_legendre_cf): the ratio of the two
sides is half the fraction's value, so no exp, log or Gamma(a) enters.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import AccuracyError, BoundViolationError, DomainError
from .oracle import CK_INDEX_MAX, EvalPoint, _ck_values, oracle_Ck, oracle_I2, oracle_I2_tails
from .specfun import _check_finite, _check_int
# Not called here any more; bench/tracing.py wraps bounds.upper_inc_gamma by
# name, so the name stays bound for the benchmark's traced runs.
from .specfun import upper_inc_gamma  # noqa: F401

#: The smallest positive double, the floor of the tail bounds.
_TINY = 5e-324

_N_MESSAGE = f"n must be an integer in [1, {CK_INDEX_MAX + 1}], got {{}}"

#: The (a, chi) grid of `kelvinwake bounds`: chi = 1, 2, ..., 50 and, at
#: each chi, a = chi j / 49 for j = 0 .. 49.
INC_GAMMA_GRID = tuple((a, chi) for chi in [1.0 + 49.0 * i / 49.0 for i in range(50)]
                       for a in [chi * j / 49.0 for j in range(50)])

#: Iteration cap of _legendre_cf; on INC_GAMMA_GRID it takes at most 103.
_CF_ITER_MAX = 600

#: The largest chi verify_inc_gamma_bound takes.
_CHI_MAX = 700.0


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


def _shown_pair(p):
    """repr(p), or a stand-in where p holds an int too long to print."""
    try:
        return repr(p)
    except ValueError:
        return "(a pair holding an integer too long to print)"


def _grid_array(grid):
    """The (a, chi) pairs of grid as two float arrays, each pair a finite
    real number with 0 <= a <= chi and 1 <= chi <= _CHI_MAX; otherwise
    DomainError naming the first pair that is not."""
    pairs = list(grid)
    if not pairs:
        raise DomainError("grid must be nonempty")
    try:
        arr = np.asarray(pairs)
    except (ValueError, TypeError, OverflowError):
        arr = None
    if arr is None or arr.dtype.kind not in "biuf" or arr.shape != (len(pairs), 2):
        # strings, None, ragged or other objects: check pair by pair, so
        # the first that is no pair of real numbers is the one named
        rows = []
        for p in pairs:
            try:
                a, chi = p
                rows.append((_check_finite(a, "a"), _check_finite(chi, "chi")))
            except (ValueError, TypeError) as exc:
                raise DomainError(f"grid point {_shown_pair(p)} is not a pair of finite "
                                  f"real numbers: {exc}") from None
        arr = np.array(rows)
    a, chi = arr[:, 0].astype(float), arr[:, 1].astype(float)
    # every comparison with a NaN is false, so NaN and inf fail here too
    bad = ~((0.0 <= a) & (a <= chi) & (1.0 <= chi) & (chi <= _CHI_MAX))
    if bad.any():
        p = pairs[int(np.argmax(bad))]
        raise DomainError(f"grid point {_shown_pair(p)} violates 0 <= a <= chi, "
                          f"1 <= chi <= {_CHI_MAX:g}")
    return a, chi, pairs


def _legendre_cf(a, chi):
    """h = e^chi chi^-a Gamma(a, chi) at every pair of the arrays a, chi,
    by Legendre's continued fraction

        h = 1/(chi + 1 - a -) 1(1 - a)/(chi + 3 - a -) 2(2 - a)/(chi + 5 - a -) ...

    run by the modified Lentz recurrence on all pairs at once.  A pair
    leaves the pass at the iteration where its factor delta is within
    1e-16 of one, so its h is that of the scalar recurrence bit for bit.
    The fraction converges for every chi > 0, fast where chi > a + 1 and
    in at most 103 iterations on INC_GAMMA_GRID (at a = 0.49, chi = 1).
    A pair still open after _CF_ITER_MAX iterations raises AccuracyError
    naming the first such pair.
    """
    tiny = 1e-300
    b = chi + 1.0 - a
    c = np.full(b.shape, 1.0 / tiny)
    d = 1.0 / b
    h = d.copy()
    out = np.empty_like(h)
    idx = np.arange(b.size)
    for i in range(1, _CF_ITER_MAX + 1):
        an = -i * (i - a)
        b += 2.0
        d = an * d + b
        d[np.abs(d) < tiny] = tiny
        c = b + an / c
        c[np.abs(c) < tiny] = tiny
        d = 1.0 / d
        delta = d * c
        h *= delta
        done = np.abs(delta - 1.0) < 1e-16
        if done.any():
            # converged pairs leave; the others go on, packed together
            out[idx[done]] = h[done]
            keep = ~done
            idx, a, b, c, d, h = idx[keep], a[keep], b[keep], c[keep], d[keep], h[keep]
            if not idx.size:
                return out
    raise AccuracyError(
        f"incomplete gamma continued fraction did not converge in "
        f"{_CF_ITER_MAX} iterations at (a, chi) = "
        f"({float(a[0])!r}, {float(chi[idx[0]])!r})", value=float(h[0]))


def verify_inc_gamma_bound(grid) -> BoundReport:
    """Check Gamma(a, chi) <= 2 chi^a e^-chi over a grid of (a, chi) pairs.

    Every pair must be two finite real numbers with 0 <= a <= chi and
    1 <= chi <= 700, or DomainError names it before any work.  The ratio
    Gamma(a, chi) / (2 chi^a e^-chi) is h / 2 for h of _legendre_cf, one
    numpy pass over all pairs; a pair where it does not converge raises
    AccuracyError.  Returns the worst ratio as inc_gamma_margin; a ratio
    above one raises BoundViolationError naming its pair.
    """
    a, chi, pairs = _grid_array(grid)
    ratio = 0.5 * _legendre_cf(a, chi)
    at = int(np.argmax(ratio))
    worst = float(ratio[at])
    report = BoundReport(point=None, n=None, rn_bound=None, tail_bound=None,
                         inc_gamma_margin=worst)
    if worst > 1.0:
        raise BoundViolationError(
            f"incomplete-gamma bound violated at (a, chi) = {pairs[at]!r}: "
            f"ratio {worst:.6f}")
    return report
