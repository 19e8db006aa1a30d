"""Brute-force quadrature ground truth.

The wake integral

    F(x, rho, alpha) = int_{-inf}^{inf} exp[-rho/2 cosh(2u - i alpha)]
                       cos(x cosh u) du

and every intermediate integral the expansions approximate are evaluated
here by adaptive Gauss-Kronrod quadrature, so the series machinery can be
checked against something that knows nothing about series.  Every
integral runs on one adaptive loop, _gk21_adaptive, over QUADPACK's
21-point rule (dqk21) in numpy: each pass evaluates every open panel's
nodes as one array, for one integrand or a stack of them on one shared
mesh, and keeps QUADPACK's error estimate and rounding floor per panel.
_integrate adds the panel budget and stall rule that all but the C_k table
share.

The integrand of F is the real part of a single complex exponential
combined with its conjugate, which works out to the real, even function

    exp(-rho/2 cos(alpha) cosh 2u) * cos(rho/2 sin(alpha) sinh 2u)
                                   * cos(x cosh u).

oracle_F takes one path: the even integrand over [0, U], from panels
that each span at most 2 pi of the phase, plus the tails beyond U, either
bounded by the Gaussian-type envelope or, where it dies near
|alpha| = pi/2, integrated along a contour shifted up to Im u = pi/4,
where they decay doubly exponentially.  The error estimate of [0, U] is
QUADPACK's plus a bound on the rounding of the integrand, counted from
the roundings of the envelope's exponent, the phases and the nodes: where
the phase reaches 1e4 and beyond (|alpha| near pi/2 at large M) a few ulps
of it outweigh QUADPACK's floor of 50 ulps of the integral of |f|.

Endpoint singularities are removed by a change of variable before any rule
sees them: tau = p sin(theta) in the branch-cut integral, a power of
p^2 - tau^2 in the moment identity.

The coefficients C_k(x, alpha) of the asymptotic 1/M series are computed
as a whole table, C_0 .. C_30, in one run of the adaptive loop per
(x, |alpha|): the integrals of every k are a stack of 31 moments on one
shared mesh.  Every initial mesh ends in the same 25 panels of width 6
on [4, 154]; their nodes w, moment weights w^2k e^-w and the weights'
integrals are a module constant, computed once at import by the same
expression, so a table's first pass forms only its panels below 4, about
log2(4 / (x c)) + 1 of them.  The constant is no result cache: it does
not depend on x or alpha.
The table is cached under (x, alpha); oracle_Ck looks single
coefficients up in it, and oracle_Ck.cache_clear() empties it.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from functools import lru_cache, partial

import numpy as np

from .errors import AccuracyError, DomainError, RangeOverflowError
from .specfun import _check_finite, _check_int, kummer_1f1, upper_inc_gamma

#: Subdivision budget: at most ~1e6 integrand evaluations per integral
#: (21-point Gauss-Kronrod panels).
MAX_SUBDIVISIONS = 47_000

_HALF_PI = 0.5 * math.pi

#: Largest cut U of oracle_F's u-range: e^2U, and with it cosh 2U, stays
#: within the double range.
_U_MAX = 0.5 * math.log(sys.float_info.max)


@dataclass(frozen=True)
class EvalPoint:
    """Evaluation coordinates (x, rho, alpha) with their derived parameters.

    x     : along-track coordinate, > 0
    rho   : radial coordinate, > 0
    alpha : polar angle in [-pi/2, pi/2]; all derived quantities use |alpha|
            since F is even in alpha.

    Derived: M = x^2/(4 rho), p = 2 rho / x, c = cos(alpha/2),
    s = sin(alpha/2), u0 = c (1 - p^2 tan^2(alpha/2) / 2) and
    xi0 = 2 M u0 / x (the rescaled intercept that ends the Laplace-type
    integral I2).
    """

    x: float
    rho: float
    alpha: float

    def __post_init__(self):
        for name in ("x", "rho", "alpha"):
            object.__setattr__(self, name, _check_finite(getattr(self, name), name))
        if self.x <= 0:
            raise DomainError(f"x must be positive, got {self.x}")
        if self.rho <= 0:
            raise DomainError(f"rho must be positive, got {self.rho}")
        if abs(self.alpha) > _HALF_PI + 4e-16:
            raise DomainError(f"|alpha| must not exceed pi/2, got {self.alpha}")

    @property
    def alpha_abs(self) -> float:
        return abs(self.alpha)

    @property
    def M(self) -> float:
        return self.x * self.x / (4.0 * self.rho)

    @property
    def p(self) -> float:
        return 2.0 * self.rho / self.x

    @property
    def c(self) -> float:
        return math.cos(0.5 * self.alpha_abs)

    @property
    def s(self) -> float:
        return math.sin(0.5 * self.alpha_abs)

    @property
    def u0(self) -> float:
        t = math.tan(0.5 * self.alpha_abs)
        return self.c * (1.0 - 0.5 * self.p * self.p * t * t)

    @property
    def xi0(self) -> float:
        return 2.0 * self.M * self.u0 / self.x


@dataclass(frozen=True)
class QuadResult:
    """Quadrature value with its error estimate and bookkeeping.

    abs_error_estimate includes any truncation tail bound;
    truncation_point is the U at which an infinite range was cut (or the
    finite upper limit when no cut was needed).
    """

    value: float
    abs_error_estimate: float
    evaluations: int
    truncation_point: float


# ---------------------------------------------------------------------------
# Gauss-Kronrod array passes


# 21-point Gauss-Kronrod rule on [-1, 1] (QUADPACK dqk21); the embedded
# 10-point Gauss rule uses every other node.
_GK21_NODES = np.array([
    -0.995657163025808080735527280689003, -0.973906528517171720077964012084452,
    -0.930157491355708226001207180059508, -0.865063366688984510732096688423493,
    -0.780817726586416897063717578345042, -0.679409568299024406234327365114874,
    -0.562757134668604683339000099272694, -0.433395394129247190799265943165784,
    -0.294392862701460198131126603103866, -0.148874338981631210884826001129720,
    0.0,
    0.148874338981631210884826001129720, 0.294392862701460198131126603103866,
    0.433395394129247190799265943165784, 0.562757134668604683339000099272694,
    0.679409568299024406234327365114874, 0.780817726586416897063717578345042,
    0.865063366688984510732096688423493, 0.930157491355708226001207180059508,
    0.973906528517171720077964012084452, 0.995657163025808080735527280689003])
_GK21_KRONROD = np.array([
    0.011694638867371874278064396062192, 0.032558162307964727478818972459390,
    0.054755896574351996031381300244580, 0.075039674810919952767043140916190,
    0.093125454583697605535065465083366, 0.109387158802297641899210590325805,
    0.123491976262065851077958109831074, 0.134709217311473325928054001771707,
    0.142775938577060080797094273138717, 0.147739104901338491374841515972068,
    0.149445554002916905664936468389821,
    0.147739104901338491374841515972068, 0.142775938577060080797094273138717,
    0.134709217311473325928054001771707, 0.123491976262065851077958109831074,
    0.109387158802297641899210590325805, 0.093125454583697605535065465083366,
    0.075039674810919952767043140916190, 0.054755896574351996031381300244580,
    0.032558162307964727478818972459390, 0.011694638867371874278064396062192])
_GK21_GAUSS = np.zeros(21)
_GK21_GAUSS[1::2] = [
    0.066671344308688137593568809893332, 0.149451349150580593145776339657697,
    0.219086362515982043995534934228163, 0.269266719309996355091226921569469,
    0.295524224714752870173892994651338, 0.295524224714752870173892994651338,
    0.269266719309996355091226921569469, 0.219086362515982043995534934228163,
    0.149451349150580593145776339657697, 0.066671344308688137593568809893332]

#: QUADPACK's rounding floor: 50 machine epsilons of the integral of |f|.
_ROUNDING = 50.0 * 2.0 ** -52


def _gk21_rule(f, h):
    """QUADPACK's dqk21 on many panels at once.

    f holds the integrand at the 21 nodes of each panel (last axis), h the
    panels' half-widths.  Returns (value, error, floor), each shaped like
    f without its last axis: the Kronrod value, QUADPACK's error estimate
    from |Kronrod - Gauss| scaled by resasc, and its rounding floor.
    """
    resk = f @ _GK21_KRONROD
    diff = np.abs(resk - f @ _GK21_GAUSS) * h
    # |f - resk/2| and then |f|, in one scratch buffer
    buf = np.subtract(f, 0.5 * resk[..., None])
    resasc = np.abs(buf, out=buf) @ _GK21_KRONROD * h
    with np.errstate(divide="ignore", invalid="ignore"):
        err = np.where(resasc > 0.0,
                       resasc * np.minimum(1.0, (200.0 * diff / resasc) ** 1.5),
                       diff)
    return resk * h, err, _ROUNDING * (np.abs(f, out=buf) @ _GK21_KRONROD) * h


#: Panels evaluated as one array; a larger pass goes in blocks of this
#: many, so a pass at the MAX_SUBDIVISIONS budget holds about 10 MB.
_PANEL_BLOCK = 4096


def _gk21_panels(integrand, a, b):
    """_gk21_rule on the panels [a, b], in blocks of at most _PANEL_BLOCK
    panels: (value, error, floor, rounding bound), one of each per panel.

    integrand(u, du) takes the nodes u, shaped (panels, 21), and a bound du
    on their rounding, shaped (panels, 1); it returns the integrand at u
    and a bound on the rounding error of those values, both shaped like u.
    """
    if len(a) > _PANEL_BLOCK:
        blocks = [_gk21_panels(integrand, a[i:i + _PANEL_BLOCK], b[i:i + _PANEL_BLOCK])
                  for i in range(0, len(a), _PANEL_BLOCK)]
        return tuple(np.concatenate(part, axis=-1) for part in zip(*blocks))
    h = 0.5 * (b - a)
    mid = 0.5 * (a + b)
    u = mid[:, None] + h[:, None] * _GK21_NODES
    f, bound = integrand(u, (2.0 ** -52 * (np.abs(mid) + h))[:, None])
    return (*_gk21_rule(f, h), bound @ _GK21_KRONROD * h)


def _gk21_adaptive(rule, a, b, abs_tol, rel_tol, max_panels):
    """Adaptive GK21 quadrature from the panels [a, b], every open panel of
    a pass evaluated as one array.

    rule(a, b) returns (value, error, floor, noise) on the panels [a, b],
    each shaped (..., panels): one integrand, or a stack of integrands on
    one shared mesh, one per leading index.  Per panel, value and error
    are QUADPACK's Kronrod sum and Kronrod-Gauss estimate, floor its
    rounding floor (see _gk21_rule) and noise a bound on the rounding of
    the integrand's values.

    A component is open while its summed max(error, floor) exceeds its
    tolerance max(abs_tol, rel_tol |value|); abs_tol may be an array of the
    leading shape.  Panels whose error is below their floor, or below an
    ulp of the tolerance, cannot gain from bisection; what they leave of an
    open component's tolerance is shared equally among its other panels,
    and a pass bisects every panel above its share for some open component.
    noise plays no part in refinement.

    Returns (value, error, noise, tol, evaluations, complete): the first
    three summed over the panels (error sums max(error, floor)) and tol the
    last tolerance, each shaped like the leading axes.  complete is False
    when the next pass would hold more than max_panels panels; the sums are
    then the last pass's, or NaN and inf if even the initial panels are too
    many.
    """
    if len(a) > max_panels:
        return math.nan, math.inf, 0.0, math.nan, 0, False
    lo, hi, parts = a, b, rule(a, b)
    evaluations = 21 * len(a)
    # one integrand's sums are scalars; a stack's take a panel axis again to
    # broadcast against its panels
    stacked = parts[0].ndim > 1

    def column(t):
        return t[..., None] if stacked else t

    while True:
        val, err, floor, noise = parts
        e = np.maximum(err, floor)
        value, total = val.sum(axis=-1), e.sum(axis=-1)
        tol = np.maximum(abs_tol, rel_tol * abs(value))
        unfinished = total > tol
        count = 0
        if unfinished.any():
            refinable = err > np.maximum(floor, 2.0 ** -52 * column(tol))
            share = (np.maximum(tol - np.where(refinable, 0.0, e).sum(axis=-1), 0.0)
                     / np.maximum(refinable.sum(axis=-1), 1))
            split = refinable & (e > column(share)) & column(unfinished)
            if stacked:
                split = split.any(axis=tuple(range(split.ndim - 1)))
            count = np.count_nonzero(split)
        # a split panel's two halves replace it
        if not count or len(lo) + count > max_panels:
            return value, total, noise.sum(axis=-1), tol, evaluations, not count
        left, right = lo[split], hi[split]
        mid = 0.5 * (left + right)
        a, b = np.concatenate([left, mid]), np.concatenate([mid, right])
        new = rule(a, b)
        evaluations += 21 * len(a)
        keep = ~split
        lo, hi = np.concatenate([lo[keep], a]), np.concatenate([hi[keep], b])
        if stacked:
            keep = (..., keep)
        parts = [np.concatenate([old[keep], part], axis=-1)
                 for old, part in zip(parts, new)]


# ---------------------------------------------------------------------------
# the defining integral


def _wake_integrand(x, k1, k2):
    """The integrand exp(-k1 cosh 2u) cos(k2 sinh 2u) cos(x cosh u) of F
    as an integrand of _gk21_panels.

    Its rounding bound counts, in units of 4 * 2^-52 as in paris_F, one
    each for the envelope's exponent E = k1 cosh 2u, the phases
    A = k2 sinh 2u and B = x cosh u (the roundings of k1, k2, the
    hyperbolic functions and the products) and the exp, cos and products
    themselves, all times the envelope e^-E: a cos moves by as much as its
    argument.  A node's own rounding du moves the phases by du times their
    slope 2 k1 sinh 2u + 2 k2 cosh 2u + x sinh u.  Where the phase runs
    to 1e4 and beyond, near |alpha| = pi/2 at large M, this is the
    estimate's largest part.
    """
    def f(u, du):
        c2u = np.cosh(2.0 * u)
        s2u = np.sinh(2.0 * u)
        cu = np.cosh(u)
        env = np.exp(-k1 * c2u)
        phase_a = k2 * s2u
        phase_b = x * cu
        value = env * np.cos(phase_a) * np.cos(phase_b)
        slope = 2.0 * abs(k1) * s2u + 2.0 * k2 * c2u + x * np.sinh(u)
        bound = env * (4.0 * 2.0 ** -52 * (1.0 + abs(k1) * c2u + phase_a + phase_b)
                       + du * slope)
        return value, bound
    return f


#: Largest total phase an initial panel of oracle_F spans.
_WAKE_PANEL_PHASE = 2.0 * math.pi


def _wake_edges(x, k1, k2, U):
    """Edges of the initial panels on [0, U]: each spans at most
    _WAKE_PANEL_PHASE of k1 cosh 2u + k2 sinh 2u + x cosh u, the envelope's
    exponent and both phases together, so no panel starts out so wide that
    its Kronrod and Gauss sums agree by chance."""
    u = np.linspace(0.0, U, 257)
    total = k1 * np.cosh(2.0 * u) + k2 * np.sinh(2.0 * u) + x * np.cosh(u)
    span = (total[-1] - total[0]) / _WAKE_PANEL_PHASE
    # _gk21_adaptive refuses more than MAX_SUBDIVISIONS panels before it
    # evaluates any
    if span > MAX_SUBDIVISIONS:
        return np.linspace(0.0, U, MAX_SUBDIVISIONS + 2)
    edges = np.interp(np.linspace(total[0], total[-1], math.ceil(span) + 1), total, u)
    edges[0], edges[-1] = 0.0, U
    return edges


def _integrate(integrand, edges, abs_tol, rel_tol):
    """_gk21_adaptive from the panels between edges, for an integrand of
    _gk21_panels, or a stack of them if its values carry a leading axis
    (abs_tol may then be an array): (value, error, evaluations, problem),
    value and error as floats or lists.  error adds the integrand's rounding
    bound.  problem is None, or why the error cannot be trusted: the
    MAX_SUBDIVISIONS panel budget ran out, or some integrand stalled above
    20 times its tolerance; the caller raises it with its best value.
    Where the initial panels already exceed the budget there is no value,
    and AccuracyError is raised here with none.
    """
    if not (math.isfinite(edges[0]) and math.isfinite(edges[-1]) and edges[0] < edges[-1]):
        raise DomainError(f"need finite a < b, got [{edges[0]}, {edges[-1]}]")
    value, error, noise, tol, evaluations, complete = _gk21_adaptive(
        partial(_gk21_panels, integrand), edges[:-1], edges[1:], abs_tol, rel_tol,
        MAX_SUBDIVISIONS)
    problem = None
    stalled = error > 20.0 * tol
    if not complete:
        problem = f"quadrature needs more than {MAX_SUBDIVISIONS} panels"
        if not evaluations:
            raise AccuracyError(problem)
    elif np.count_nonzero(stalled):
        i = np.argmax(stalled)
        e, t = np.ravel(error)[i], np.ravel(tol)[i]
        problem = f"quadrature stalled: error {e:.3e} against a tolerance of {t:.3e}"
    return np.asarray(value).tolist(), np.asarray(error + noise).tolist(), evaluations, problem


def _plain(f):
    """The numpy function f as an integrand with no rounding bound of its own."""
    return lambda u, du: (f(u), np.zeros_like(u))


def _tail_integrand(x, k1, k2, start, turn):
    """Re h(u) e^{i phi(u)} along u = start + e^{i turn} s (turn 0 or pi/2),
    as an integrand of _gk21_panels in s, for sg = +1, -1 as a stack: with
    E = -k1 cosh 2u + i phi, e^{Re E} cos(Im E + turn) / 2.  The rounding
    bound is _wake_integrand's, (|k1| + k2) cosh(2 Re u) + x cosh(Re u)
    bounding the exponent and the phases, and twice that their slope."""
    step, sg = (1j if turn else 1.0), np.array([1.0, -1.0])[:, None, None]

    def f(s, ds):
        u = start + step * s
        e = -k1 * np.cosh(2.0 * u) + 1j * (k2 * np.sinh(2.0 * u) + sg * x * np.cosh(u))
        env = 0.5 * np.exp(e.real)
        size = (abs(k1) + k2) * np.cosh(2.0 * u.real) + x * np.cosh(u.real)
        return (env * np.cos(e.imag + turn),
                env * (4.0 * 2.0 ** -52 * (2.0 + size) + ds * 2.0 * size))
    return f


def check_abs_tol(abs_tol: float) -> None:
    """Raise DomainError unless 1e-14 <= abs_tol < inf, the tolerances
    oracle_F supports (a NaN fails too)."""
    if not 1e-14 <= abs_tol < math.inf:
        raise DomainError(f"abs_tol must satisfy 1e-14 <= abs_tol < inf, got {abs_tol!r}")


def oracle_F(pt: EvalPoint, abs_tol: float = 1e-12) -> QuadResult:
    """The wake integral F at pt, to absolute tolerance abs_tol (finite, >= 1e-14).

    F is twice the even integrand's integral over [0, U] plus twice its
    tails beyond U.  Off |alpha| = pi/2, U comes from the envelope rule
    rho cos(alpha) cosh(2U) / 2 >= ln(1/abs_tol) + 5, and the tails are
    only bounded, by e^-a / a at a = k1 cosh 2U.  Within 1e-6 of pi/2, where
    the envelope dies, or wherever its [0, U] would hold more than 20000
    oscillations, the tails are integrated instead: beyond U the integrand
    is Re h (e^{i phi_+} + e^{i phi_-}), entire in u, h = exp(-k1 cosh 2u) / 2,
    phi_sg = k2 sinh 2u + sg x cosh u, and each tail runs from U up to
    U + i pi/4, then along Im u = pi/4, where its modulus is
    exp(-k2 cosh 2w - sg x sinh w / sqrt 2) / 2, until below e^-45 abs_tol.
    That U makes x sinh U <= k2 cosh 2U, so both legs decay for both signs.

    The error estimate adds QUADPACK's per-panel estimate, the rounding
    bound of _wake_integrand and the tails'; the rounding bound can exceed
    a tight abs_tol near |alpha| = pi/2 at large M (about 1e-10 at
    M = 1000), where the phases reach 1e4.  Raises AccuracyError, carrying
    the best value and its estimate, when the MAX_SUBDIVISIONS panel budget
    runs out (with neither where the initial panels exceed it already) or
    the quadrature stalls above 20 times the tolerance, and
    RangeOverflowError for a U past _U_MAX (at rho of about 1e-300 and
    below).
    """
    check_abs_tol(abs_tol)
    x, rho, alpha = pt.x, pt.rho, pt.alpha_abs
    cos_a = math.cos(alpha)
    k1 = 0.5 * rho * cos_a
    k2 = 0.5 * rho * math.sin(alpha)
    target = math.log(1.0 / abs_tol) + 5.0

    near = _HALF_PI - alpha <= 1e-6
    # the envelope rule; where rho cos(alpha) underflows to 0 no U meets it
    U = math.inf
    if not near and rho * cos_a:
        U = 0.5 * math.acosh(max(2.0 * target / (rho * cos_a), 2.0))
    # the shifted tails decay only where k2 > 0
    fourier = k2 > 0 and (
        near or (k2 * math.sinh(2.0 * U) + x * math.cosh(U)) / (2.0 * math.pi) > 20_000)
    if fourier:
        U = math.log(max(x / (2.0 * k2), 1.0) + 2.0) + 1.5
        # the minus-phase must be safely increasing and positive at the cut
        while U <= _U_MAX and (
                2.0 * k2 * math.cosh(2.0 * U) - x * math.sinh(U) < k2 * math.cosh(2.0 * U)
                or k2 * math.sinh(2.0 * U) - x * math.cosh(U) < max(2.0, x)):
            U += 0.25
    if not U <= _U_MAX:
        raise RangeOverflowError(f"oracle_F needs the cut U = {U:.6g} beyond {_U_MAX:.6g}, "
                                 f"where e^2U leaves the double range")

    # the integrand is even: twice [0, U]
    half, err, neval, problem = _integrate(
        _wake_integrand(x, k1, k2), _wake_edges(x, k1, k2, U),
        (0.125 if fourier else 0.25) * abs_tol, 1e-13)
    value, err = 2.0 * half, 2.0 * err
    if fourier:
        # both legs decay over about 1 / (k2 cosh 2U) from their start; on
        # the horizontal one the exponent is at least (1 - 1/sqrt 2) k2 cosh 2w
        first, top = 1.0 / (k2 * math.cosh(2.0 * U)), 0.25 * math.pi
        W = 0.5 * math.acosh(max((45.0 + math.log(0.5 / abs_tol)) / (0.29 * k2), 1.0))
        for integrand, edges in [
                (_tail_integrand(x, k1, k2, U, _HALF_PI), _doubling_edges(first, top)),
                (_tail_integrand(x, k1, k2, 1j * top, 0.0),
                 U + _doubling_edges(first, max(W - U, 0.25)))]:
            tails, terr, tneval, tproblem = _integrate(integrand, edges, abs_tol / 16.0, 1e-13)
            value, err = value + 2.0 * sum(tails), err + 2.0 * sum(terr)
            neval, problem = neval + tneval, problem or tproblem
    else:
        aW = k1 * 0.5 * math.exp(2.0 * U)   # ~ k1 cosh(2U)
        err = err + 2.0 * math.exp(-aW) / aW
    if problem:
        raise AccuracyError(problem, value=value, error_estimate=err)
    return QuadResult(value, err, neval, U)


# ---------------------------------------------------------------------------
# branch-cut and imaginary-axis integrals


def oracle_I1_alpha(pt: EvalPoint) -> QuadResult:
    """Branch-cut integral for 0 <= alpha <= pi/2:

        I1 = int_0^p exp(-M tau^2) sin(2 M c tau)
             cos(2 M s sqrt(p^2 - tau^2)) / sqrt(p^2 - tau^2) dtau
           = int_0^(pi/2) exp(-rho sin^2 t) sin(x c sin t) cos(x s cos t) dt,

    by tau = p sin(t), whose Jacobian p cos(t) cancels the root.
    """
    x, rho, c, s = pt.x, pt.rho, pt.c, pt.s

    def f(t):
        sin_t = np.sin(t)
        return np.exp(-rho * sin_t * sin_t) * np.sin(x * c * sin_t) * np.cos(x * s * np.cos(t))

    # each initial panel spans at most 2 pi of the phases and the exponent
    count = min(math.ceil((x * (c + s) + rho) / _WAKE_PANEL_PHASE), MAX_SUBDIVISIONS + 1)
    value, err, neval, problem = _integrate(
        _plain(f), np.linspace(0.0, _HALF_PI, count + 1), 1e-15, 5e-14)
    if problem:
        raise AccuracyError(problem, value=value, error_estimate=err)
    return QuadResult(value, err, neval, pt.p)


def _doubling_edges(first, end):
    """Edges 0, first, 2 first, 4 first, ... and end."""
    pts = [0.0]
    edge = first
    while edge < end:
        pts.append(edge)
        edge *= 2.0
    pts.append(end)
    return np.array(pts)


def oracle_I2(pt: EvalPoint) -> QuadResult:
    """Laplace-type integral along the imaginary axis:

        I2 = int_0^xi0 exp(rho xi^2 - x c xi)
             cos(s x sqrt(1 + xi^2)) / sqrt(1 + xi^2) dxi,

    on panels that double in width from the decay length 1 / (x c).
    """
    x, rho, c, s, xi0 = pt.x, pt.rho, pt.c, pt.s, pt.xi0
    if xi0 <= 0:
        raise DomainError(f"xi0 = {xi0} is not positive at this point")

    def f(xi):
        root = np.sqrt(1.0 + xi * xi)
        return np.exp(rho * xi * xi - x * c * xi) * np.cos(s * x * root) / root

    value, err, neval, problem = _integrate(
        _plain(f), _doubling_edges(1.0 / (x * c), xi0), 1e-16, 5e-14)
    if problem:
        raise AccuracyError(problem, value=value, error_estimate=err)
    return QuadResult(value, err, neval, xi0)


def _tail_cut(k, lam, xi0, log_w):
    """Where the envelope integral of the k-th tail moment (log weight
    log_w) falls below e^-55, or lam U passes 690."""
    U = xi0 + (2 * k + 60.0) / lam
    for _ in range(60):
        if lam * U > 690.0:
            break
        g = upper_inc_gamma(2 * k + 1.0, lam * U)
        if g.value <= 0.0:
            break
        if log_w + math.log(g.value) - (2 * k + 1) * math.log(lam) < -55.0:
            break
        U *= 1.2
    return U


def oracle_I2_tails(pt: EvalPoint, n: int, abs_tol: float) -> list:
    """The tail moments of I2 for k < n, as a list:

        T_k = (rho^k / k!) int_xi0^U xi^2k exp(-x c xi)
              cos(s x sqrt(1 + xi^2)) / sqrt(1 + xi^2) dxi.

    All n are one stack on one mesh, cut at the U of k = n - 1, the largest
    for n < M u0^2, where the envelope tails grow with k.  Each T_k is
    measured to the smaller of abs_tol and 1e-12 of its envelope, (U - xi0)
    times the peak of its weight, or to 5e-14 relative; the quadrature sees
    it over that peak, so nothing overflows.
    """
    x, rho, c, s, xi0 = pt.x, pt.rho, pt.c, pt.s, pt.xi0
    message = f"need an integer n >= 1 and xi0 > 0, got {{!r}} and {xi0}"
    n = _check_int(n, 1, None, message)
    if not xi0 > 0:
        raise DomainError(message.format(n))
    lam = x * c
    k = np.arange(n)
    log_w = k * math.log(rho) - np.array([math.lgamma(j + 1.0) for j in range(n)])
    U = _tail_cut(n - 1, lam, xi0, log_w[-1])
    peak = np.clip(2.0 * k / lam, xi0, U)
    log_peak = 2.0 * k * np.log(peak) - lam * peak
    log_tol = np.minimum(math.log(max(abs_tol, 5e-324)) - log_w - log_peak,
                         math.log(1e-12 * (U - xi0)))
    power, shift = 2.0 * k[:, None, None], log_peak[:, None, None]

    def f(xi):
        root = np.sqrt(1.0 + xi * xi)
        return np.exp(power * np.log(xi) - lam * xi - shift) * np.cos(s * x * root) / root

    value, err, _, problem = _integrate(
        _plain(f), xi0 + _doubling_edges(1.0 / lam, U - xi0), np.exp(log_tol), 5e-14)
    scale = np.exp(log_w + log_peak)
    value, err = (scale * value).tolist(), (scale * err).tolist()
    if problem:
        raise AccuracyError(problem, value=value, error_estimate=err)
    return value


# ---------------------------------------------------------------------------
# coefficient integrals


# In the scaled variable w = x c xi, C_k is (2/pi) c^-2k / (x c) times the
# moment
#
#     int_0^inf w^2k e^-w g(w) dw,   g = cos(s x r) / r,  r = sqrt(1 + (w/(x c))^2),
#
# so one adaptive mesh on [0, W] serves every k.  The envelope of the k-th
# moment is int_0^inf w^2k e^-w dw = (2k)!, independent of x and alpha.
# The substitution t = x xi gives nothing new: its integrand cos(s R)/R,
# R = sqrt(x^2 + (w/c)^2) = x r, is g / x at every node of the same mesh.

#: Largest coefficient index of the quadrature table.
CK_INDEX_MAX = 30

_CK_K_MESSAGE = f"k must be an integer in [0, {CK_INDEX_MAX}], got {{!r}}"

#: Panel budget of one C_k table (21 nodes per panel).
MAX_CK_PANELS = 1000

#: Relative tolerance of every C_k table, next to each moment's absolute
#: tolerance of 1e-15 min(1, x) times its envelope.
CK_REL_TOL = 5e-14

_CK_K = np.arange(CK_INDEX_MAX + 1)
_CK_POWERS = 2.0 * _CK_K
_CK_ENVELOPE = np.array([float(math.factorial(2 * k)) for k in _CK_K])

#: The scaled range is cut at w = W; int_W^inf w^60 e^-w dw < 1e-17 * 60!.
_CK_CUT = 154.0
# envelope tails beyond the cut: |g| <= 1, so the tails are Gamma(2k+1, W)
_CK_TAIL = np.array([upper_inc_gamma(2.0 * k + 1.0, _CK_CUT).value for k in _CK_K])


def _ck_nodes(a, b):
    """GK21 half-widths, nodes w and moment weights w^2k e^-w on the panels
    [a, b]: (h, w, weights), weights shaped (K, panels, 21)."""
    h = 0.5 * (b - a)
    w = (0.5 * (a + b))[:, None] + h[:, None] * _GK21_NODES
    return h, w, w ** _CK_POWERS[:, None, None] * np.exp(-w)


def _ck_mass(h, weights):
    """The weights' integrals over their panels, shaped (K, panels)."""
    return weights @ _GK21_KRONROD * h


#: Every initial mesh ends in the 25 panels of width 6 on [4, W]; their
#: nodes and weights, and the weights' integrals, are the same for every
#: table.
_CK_FAR_EDGES = np.linspace(4.0, _CK_CUT, 26)
_CK_FAR = _ck_nodes(_CK_FAR_EDGES[:-1], _CK_FAR_EDGES[1:])
_CK_FAR_MASS = _ck_mass(_CK_FAR[0], _CK_FAR[2])
for _part in (*_CK_FAR, _CK_FAR_MASS):
    _part.flags.writeable = False


def _ck_gk21(h, w, weights, x, c, s):
    """GK21 on panels given by _ck_nodes, for the moments of
    g = cos(s x r)/r with r = sqrt(1 + (w/(x c))^2).

    Returns (value, error, floor), each shaped (K, panels): error is
    QUADPACK's Kronrod-Gauss estimate, floor its rounding floor.
    """
    r = np.sqrt(1.0 + (w / (x * c)) ** 2)
    return _gk21_rule(weights * (np.cos(s * x * r) / r), h)


def _ck_rule(x, c, s):
    """The panel rule of one C_k table for _gk21_adaptive: _ck_gk21 on the
    panels [a, b] and a rounding bound of the integrand.  The first pass's
    panels end in the 25 panels on [4, W], whose nodes, weights and weight
    integrals come from _CK_FAR and _CK_FAR_MASS.

    The bound counts, in units of 4 * 2^-52 as in _wake_integrand, the
    roundings of the weights (pow, exp), of the root r and of the phase
    s x r, which moves the cos by as much as itself: (1 + s x r) / r times
    the weight.  A node's own rounding du moves the phase by du times its
    slope, at most s/c.  Per panel, r is taken at the left edge, its
    least, and du at the right, its largest.
    """
    first = True

    def rule(a, b):
        nonlocal first
        if first:
            first = False
            near = len(a) - len(_CK_FAR[0])
            h, w, weights = _ck_nodes(a[:near], b[:near])
            mass = np.concatenate([_ck_mass(h, weights), _CK_FAR_MASS], axis=1)
            grid = (np.concatenate([h, _CK_FAR[0]]), np.concatenate([w, _CK_FAR[1]]),
                    np.concatenate([weights, _CK_FAR[2]], axis=1))
        else:
            grid = _ck_nodes(a, b)
            mass = _ck_mass(grid[0], grid[2])
        r = np.sqrt(1.0 + (a / (x * c)) ** 2)
        bound = (4.0 * 2.0 ** -52 * (1.0 + s * x * r) + 2.0 ** -52 * b * s / c) / r
        return (*_ck_gk21(*grid, x, c, s), mass * bound)
    return rule


@lru_cache(maxsize=2048)
def _ck_table(x: float, alpha: float) -> tuple:
    """C_0 .. C_30 at (x, alpha): one QuadResult per k, or for a k whose
    quadrature stalled a callable making the exception to raise."""
    c = math.cos(0.5 * alpha)
    s = math.sin(0.5 * alpha)
    # all 31 moments on one adaptive mesh; the k-th has the absolute
    # tolerance 1e-15 min(1, x) times its envelope (2k)!
    # below 4 the panels double from x c, where the factor
    # 1/sqrt(1 + (w/(x c))^2) turns over
    near = _doubling_edges(x * c, 4.0)
    abs_tol = 1e-15 * min(1.0, x) * _CK_ENVELOPE
    moments, errors, noise, tol, nodes, complete = _gk21_adaptive(
        _ck_rule(x, c, s), np.concatenate([near[:-1], _CK_FAR_EDGES[:-1]]),
        np.concatenate([near[1:], _CK_FAR_EDGES[1:]]), abs_tol, CK_REL_TOL, MAX_CK_PANELS)
    if not complete:
        raise AccuracyError(f"C_k quadrature at (x, c) = ({x}, {c}) needs more than "
                            f"{MAX_CK_PANELS} panels")
    # C_k = (2/pi) x^2k / (x c)^(2k+1) * moment; x^2k / (x c)^(2k+1) is
    # formed as c^-2k / (x c), which stays finite however small x is
    scale = (2.0 / math.pi) * (c ** -_CK_POWERS / (x * c))
    values = (scale * moments).tolist()
    estimates = (scale * (errors + noise + _CK_TAIL)).tolist()
    # as in _integrate: where rounding stops refinement, up to 20 times the
    # tolerance is accepted
    stalled = (errors > 20.0 * tol).tolist()
    return tuple(
        partial(AccuracyError, f"C_{k}({x}, {alpha}): quadrature stalled",
                value=values[k], error_estimate=estimates[k]) if stalled[k]
        else QuadResult(values[k], estimates[k], nodes, _CK_CUT / (x * c))
        for k in range(CK_INDEX_MAX + 1))


def oracle_Ck(k: int, x: float, alpha: float) -> QuadResult:
    """Coefficient C_k(x, alpha) of the asymptotic 1/M series, by quadrature.

    The whole table C_0 .. C_30 for (x, alpha) is computed at once, to
    CK_REL_TOL, by one adaptive Gauss-Kronrod run shared by every k, and
    cached under that key; every k is a lookup into it, so a value never
    depends on which k was asked for first.  Each k keeps its own
    tolerance and error estimate: QUADPACK's, the rounding bound of the
    integrand (see _ck_rule) and the envelope tail beyond the cut.  Raises
    AccuracyError, carrying the value and its estimate, for a k whose
    quadrature stalled above 20 times its tolerance.
    QuadResult.evaluations counts the integrand evaluations of the whole
    table (every node of every panel the mesh held); it is the same for
    every k.  cache_info() and cache_clear() act on the table cache.
    """
    k = _check_int(k, 0, CK_INDEX_MAX, _CK_K_MESSAGE)
    if not 0.0 <= alpha <= _HALF_PI + 4e-16:
        raise DomainError(f"alpha must lie in [0, pi/2], got {alpha}")
    if not (x > 0 and math.isfinite(x)):
        raise DomainError(f"x must be positive and finite, got {x}")
    entry = _ck_table(float(x), float(alpha))[k]
    if not isinstance(entry, QuadResult):
        raise entry()
    return entry


oracle_Ck.cache_info = _ck_table.cache_info
oracle_Ck.cache_clear = _ck_table.cache_clear


# ---------------------------------------------------------------------------
# moment identity


def oracle_moment_identity(k: int, mu: float, M: float, p: float):
    """Both sides of the closed-form moment integral

        int_0^p e^{-M tau^2} tau^{2k+1} (p^2-tau^2)^{mu-1} dtau
            = p^{2k+2mu} k! Gamma(mu) / (2 Gamma(k+mu+1))
              * 1F1(k+1; k+mu+1; -M p^2)

    as (lhs_by_quadrature, rhs_by_series).  Test plumbing only.
    """
    k = _check_int(k, 0, 20, "k must be an integer in [0, 20]")
    if not all(0.0 < v < math.inf for v in (mu, M, p)):
        raise DomainError("mu, M, p must all be positive and finite")
    rho = M * p * p

    # p^2 - tau^2 = p^2 t^q with q = ceil(2 mu) / mu >= 2 turns the weight
    # tau (p^2 - tau^2)^(mu - 1) dtau into (q / 2) p^(2 mu) t^(ceil(2 mu) - 1) dt:
    # the integrand on [0, 1] is bounded and twice differentiable for every mu
    power = math.ceil(2.0 * mu)
    q = power / mu

    def f(t):
        v = 1.0 - t ** q
        return np.exp(-rho * v) * v ** k * t ** (power - 1)

    value, err, _, problem = _integrate(_plain(f), np.array([0.0, 1.0]), 0.0, 5e-15)
    scale = 0.5 * q * p ** (2 * k + 2 * mu)
    if problem:
        raise AccuracyError(problem, value=scale * value, error_estimate=scale * err)
    lhs = scale * value

    pref = (math.exp(math.lgamma(k + 1) + math.lgamma(mu) - math.lgamma(k + mu + 1))
            / 2.0)
    rhs = p ** (2 * k + 2 * mu) * pref * kummer_1f1(k + 1.0, k + mu + 1.0, -rho).value
    return lhs, rhs
