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

oracle_F takes one of two paths.  The envelope path integrates the even
integrand over [0, U], on panels that each span at most 2 pi of the phase,
and bounds the tails beyond U by the Gaussian-type envelope.  Where that
takes too many panels (near |alpha| = pi/2, where the envelope dies, or at
large M), the contour path integrates along straight legs through the
saddle of the minus-phase and out along Im u = pi/4, where no leg
oscillates more than a few times.  Both estimates add to QUADPACK's a
bound on the rounding of the integrand, counted from the roundings of the
exponent's terms, the phases and the nodes.

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
The table is cached under (x, alpha) as one record of floats; oracle_Ck
builds the QuadResult of a single coefficient from it, _ck_values reads a
whole row C_0 .. C_{n-1} at once, and oracle_Ck.cache_clear() empties it.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from functools import lru_cache, partial
from typing import NamedTuple

import numpy as np

from .errors import AccuracyError, DomainError, RangeOverflowError
from .specfun import _check_finite, _check_int, _shown, kummer_1f1, upper_inc_gamma

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
    finite upper limit when no cut was needed), on oracle_F's contour W.
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
#: many, so the buffers of a block, about 86 kB each, stay in cache.
_PANEL_BLOCK = 512


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
    slope 2 k1 sinh 2u + 2 k2 cosh 2u + x sinh u.

    It runs in place, in six buffers shaped like u, with the same float
    operations in the same order as the expressions

        env = exp(-k1 cosh 2u),
        value = env cos(k2 sinh 2u) cos(x cosh u),
        bound = env (4 2^-52 (1 + |k1| cosh 2u + k2 sinh 2u + x cosh u)
                     + du (2 |k1| sinh 2u + 2 k2 cosh 2u + x sinh u)),

    so its values equal theirs bit for bit.
    """
    neg_k1, abs_k1 = -k1, abs(k1)
    twice_k1, twice_k2 = 2.0 * abs_k1, 2.0 * k2

    def f(u, du):
        s2u = np.multiply(u, 2.0)
        c2u = np.cosh(s2u)
        np.sinh(s2u, out=s2u)
        phase_b = np.cosh(u)
        phase_b *= x
        env = np.multiply(c2u, neg_k1)
        np.exp(env, out=env)
        # bound = (4 2^-52 (1 + |k1| c2u + phase_a + phase_b) + du slope) env
        bound = np.multiply(c2u, abs_k1)
        bound += 1.0
        phase_a = np.multiply(s2u, k2)
        bound += phase_a
        bound += phase_b
        bound *= 4.0 * 2.0 ** -52
        s2u *= twice_k1
        c2u *= twice_k2
        s2u += c2u
        slope = np.sinh(u, out=c2u)
        slope *= x
        slope += s2u
        slope *= du
        bound += slope
        bound *= env
        # value = env cos(phase_a) cos(phase_b)
        value = np.cos(phase_a, out=phase_a)
        value *= env
        value *= np.cos(phase_b, out=phase_b)
        return value, bound
    return f


#: Largest total phase an initial panel of oracle_F spans.
_WAKE_PANEL_PHASE = 2.0 * math.pi


def _wake_span(x, k1, k2, U):
    """The rise of k1 cosh 2u + k2 sinh 2u + x cosh u over [0, U], in units
    of _WAKE_PANEL_PHASE: the initial panels _wake_edges lays, unrounded."""
    return (k1 * (math.cosh(2.0 * U) - 1.0) + k2 * math.sinh(2.0 * U)
            + x * (math.cosh(U) - 1.0)) / _WAKE_PANEL_PHASE


def _wake_edges(x, k1, k2, U):
    """Edges of the initial panels on [0, U]: each spans at most
    _WAKE_PANEL_PHASE of k1 cosh 2u + k2 sinh 2u + x cosh u, the envelope's
    exponent and both phases together, so no panel starts out so wide that
    its Kronrod and Gauss sums agree by chance."""
    u = np.linspace(0.0, U, 257)
    total = k1 * np.cosh(2.0 * u) + k2 * np.sinh(2.0 * u) + x * np.cosh(u)
    span = _wake_span(x, k1, k2, U)
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


def _saddle(x, k2):
    """The largest root u* of 2 k2 cosh 2u = x sinh u (x, k2 > 0), the saddle
    of k2 sinh 2u - x cosh u, or None if it has no real root: in sinh u, the
    larger root of 4 k2 s^2 - x s + 2 k2 = 0, a sum of non-negative terms."""
    r = math.sqrt(32.0) * k2
    if not x >= r:
        return None
    return math.asinh((x + math.sqrt((x - r) * (x + r))) / (8.0 * k2))


def _contour(x, k1, k2, abs_tol):
    """oracle_F's contour as (integrand, edges, tolerances, W), or None where W
    would lie past _U_MAX (at alpha so small that u* does).  Each leg runs
    straight, u = a + (b - a) t, t in [0, 1], and the integrand is
    Re e^g(u) du/dt, g = -k1 cosh 2u + i (k2 sinh 2u + sign x cosh u), sign
    +1 on C+ and -1 on C-, as a stack of integrands of _gk21_panels, one per
    leg; see oracle_F.  C-'s leg up to the saddle is run from the saddle
    back, so that every leg's narrowest feature, the saddle's Gaussian or
    the decay away from the axis, lies at t = 0: the initial edges, 8 equal
    panels, are graded there down to the Gaussian's width.  The phases
    reach about 3 M at the saddle, where their rounding, which bisection
    cannot reduce, can exceed abs_tol: the two saddle legs' tolerance is at
    least eight times its bound there.  The rounding
    bound counts, as _wake_integrand's, 4 * 2^-52 for the terms of g,
    bounded together by (|k1| + k2) cosh(2 Re u) + x cosh(Re u), and for
    the exp, cos and products, times the modulus |b - a| e^Re g; and a
    node's move, |b - a| dt plus an ulp of u, times |g'|, which vanishes at
    the saddle.
    """
    q = 0.25 * math.pi
    top = 1j * q
    u = _saddle(x, k2)
    saddle = u is not None and u > q
    # the first point of the grid from the far legs' start where their
    # modulus on C-, exp(-(k2 cosh 2w - x sinh w / sqrt 2)), is below
    # e^-45 abs_tol
    start = u + q if saddle else 0.0
    cut = 45.0 + math.log(1.0 / abs_tol)
    W = start + 0.25
    while W <= _U_MAX and k2 * math.cosh(2.0 * W) - x * math.sinh(W) / math.sqrt(2.0) < cut:
        W += 0.25
    if not W <= _U_MAX:
        return None
    # (a, b, sign, travel): travel -1 runs the leg from b to a
    legs = [(0.0, top, 1.0, 1.0), (top, W + top, 1.0, 1.0)]
    if saddle:
        # below the axis the modulus reaches e^(k2 sin 2d) at depth d
        d = 0.5 * math.asin(min(1.0, 1.0 / k2))
        corner = u - d - 1j * d
        legs += [(0.0, -1j * d, -1.0, 1.0), (-1j * d, corner, -1.0, 1.0),
                 (u, corner, -1.0, -1.0), (u, start + top, -1.0, 1.0),
                 (start + top, W + top, -1.0, 1.0)]
    else:
        legs += [(0.0, top, -1.0, 1.0), (top, W + top, -1.0, 1.0)]
    tol = np.full(len(legs), abs_tol / (2 * len(legs)))
    width = 1.0
    if saddle and k1 * math.cosh(2.0 * u) < cut:
        # the saddle's Gaussian exp(-phi'' r^2 / 2), phi'' the minus-phase's
        # curvature, in t along its legs of length pi/4 sqrt 2; the rounding
        # bound of phases of size over its half, 4 2^-52 size
        # sqrt(pi / 2 phi''), sets the saddle legs' (4 and 5) least tolerance
        curvature = 4.0 * k2 * math.sinh(2.0 * u) - x * math.cosh(u)
        width = 1.0 / (math.sqrt(curvature) * q * math.sqrt(2.0))
        size = (abs(k1) + k2) * math.cosh(2.0 * u) + x * math.cosh(u)
        tol[4:6] = np.maximum(tol[4:6], 8.0 * 4.0 * 2.0 ** -52 * size
                              * math.sqrt(0.5 * math.pi / curvature))
    halvings = max(0, math.ceil(math.log2(0.125 / width)))
    edges = np.concatenate([[0.0], 0.125 * 0.5 ** np.arange(halvings, 0, -1),
                            np.linspace(0.125, 1.0, 8)])
    a, b, sign, travel = (np.array(part)[:, None, None] for part in zip(*legs))
    step = b - a
    length, turn = np.abs(step), np.angle(travel * step)
    a_re, a_im, step_re, step_im = a.real, a.imag, step.real, step.imag
    hx, hsize = 0.5 * sign * x, 0.5 * (abs(k1) + k2)

    def f(t, dt):
        # with u = p + i q, cosh u = ch1 cq + i sh1 sq and cosh 2u = ch2 c2q
        # + i sh2 s2q, formed from c1 = 2 ch1, s1 = 2 sh1, c2 = 2 ch2 and
        # s2 = 2 sh2; c2q, taken directly, stays positive up to |q| = pi/4,
        # so the k1 term cannot turn into growth by rounding
        p = a_re + step_re * t
        q2 = 2.0 * (a_im + step_im * t)
        e = np.exp(p)
        r = 1.0 / e
        c1, s1 = e + r, e - r
        e *= e
        r *= r
        c2, s2 = e + r, e - r
        c2q, s2q = np.cos(q2), np.sin(q2)
        cq = np.sqrt(0.5 + 0.5 * c2q)
        sq = 0.5 * s2q / cq
        decay_c, phase_c = k1 * c2q + k2 * s2q, k2 * c2q - k1 * s2q
        hsq, hcq = hx * sq, hx * cq
        # -Re g, below e^-708 only where the modulus underflows
        decay = 0.5 * decay_c * c2 + hsq * s1
        env = np.exp(-decay, out=np.zeros_like(decay), where=decay <= 708.0)
        env *= length
        # |g'| <= |Re g'| + |Im g'|
        slope = np.abs(decay_c * s2 + hsq * c1) + np.abs(phase_c * c2 + hcq * s1)
        bound = (4.0 * 2.0 ** -52) * (2.0 + hsize * c2 + 0.5 * x * c1)
        bound += (length * dt + 2.0 ** -52 * (np.abs(p) + 0.5 * np.abs(q2))) * slope
        bound *= env
        return env * np.cos(0.5 * phase_c * s2 + hcq * c1 + turn), bound
    return f, edges, tol, W


#: oracle_F's contour runs where the envelope path would need more initial panels.
_CONTOUR_PANELS = 160


def check_abs_tol(abs_tol: float) -> None:
    """Raise DomainError unless 1e-14 <= abs_tol < inf, the tolerances
    oracle_F supports (a NaN fails too)."""
    if not 1e-14 <= abs_tol < math.inf:
        raise DomainError(f"abs_tol must satisfy 1e-14 <= abs_tol < inf, got {abs_tol!r}")


def oracle_F(pt: EvalPoint, abs_tol: float = 1e-12) -> QuadResult:
    """The wake integral F at pt, to absolute tolerance abs_tol (finite, >= 1e-14).

    With k1 = rho cos(alpha) / 2 and k2 = rho sin(alpha) / 2, the envelope
    path takes twice the even integrand's integral over [0, U], where
    rho cos(alpha) cosh(2U) / 2 = ln(1/abs_tol) + 5, and bounds the tails
    beyond by e^-a / a at a = k1 cosh 2U.  Where k2 > 0 and its initial
    panels, 2 pi of phase each, would number more than _CONTOUR_PANELS,
    the contour path runs, if it fits in the double range: the integrand
    is entire, so F = Re[int_C+ e^g+ du + int_C- e^g- du],
    g+- = -k1 cosh 2u + i (k2 sinh 2u +- x cosh u).  C+ runs
    0 -> i pi/4 -> W + i pi/4; C- runs 0 -> -i d -> (u* - d) - i d -> u*
    -> (u* + pi/4) + i pi/4 -> W + i pi/4, crossing the saddle u* of the
    minus-phase (_saddle) on its steepest descent, e^{i pi/4}, with
    d = pi/4, or less where k2 > 1 so the modulus below the axis stays
    below e; where no saddle exceeds pi/4 it takes C+'s path.  W is the
    first point of the grid from the last corner in steps of 0.25 where
    exp(-(k2 cosh 2W - x sinh W / sqrt 2)), g-'s modulus, is below
    e^-45 abs_tol.  The four or seven legs run as one stack on a shared
    t in [0, 1] (_contour), each to abs_tol over twice their number, and
    truncation_point is W.  The phases reach about 3 M at the saddle, and
    their rounding there sets a floor under the two saddle legs' tolerance:
    from M of about 1e5 up the estimate can exceed a tight abs_tol by it
    (about 5e-12 at M = 1e6 and 5e-11 at M = 1e8, for abs_tol = 1e-12),
    and the call returns the value with that estimate rather than raising.

    The error estimate adds QUADPACK's per-panel estimate, the integrand's
    rounding bound and the envelope path's tail bound.  Raises
    AccuracyError, carrying the best value and its estimate, when the
    MAX_SUBDIVISIONS panel budget runs out (with neither where the initial
    panels exceed it) or the quadrature stalls above 20 times the
    tolerance, and RangeOverflowError for a U past _U_MAX (at rho of about
    1e-300 and below).
    """
    check_abs_tol(abs_tol)
    x, rho, alpha = pt.x, pt.rho, pt.alpha_abs
    # past pi/2 by the rounding EvalPoint admits, cos(alpha) counts as 0
    cos_a = max(math.cos(alpha), 0.0)
    k1 = 0.5 * rho * cos_a
    k2 = 0.5 * rho * math.sin(alpha)
    # the envelope rule; where rho cos(alpha) is 0, or underflows to it, no U meets it
    U = math.inf
    if rho * cos_a > 0.0:
        U = 0.5 * math.acosh(max(2.0 * (math.log(1.0 / abs_tol) + 5.0) / (rho * cos_a), 2.0))
    span = _wake_span(x, k1, k2, U) if U <= _U_MAX else math.inf
    contour = _contour(x, k1, k2, abs_tol) if k2 > 0 and span > _CONTOUR_PANELS else None
    if contour:
        integrand, edges, tol, U = contour
        parts, errs, neval, problem = _integrate(integrand, edges, tol, 1e-13)
        value, err = math.fsum(parts), sum(errs)
    else:
        if not U <= _U_MAX:
            raise RangeOverflowError(f"oracle_F needs the cut U = {U:.6g} beyond {_U_MAX:.6g}, "
                                     f"where e^2U leaves the double range")
        # the integrand is even: twice [0, U], and the tails bounded by the envelope
        half, err, neval, problem = _integrate(
            _wake_integrand(x, k1, k2), _wake_edges(x, k1, k2, U), 0.25 * abs_tol, 1e-13)
        aW = k1 * 0.5 * math.exp(2.0 * U)   # ~ k1 cosh(2U)
        value, err = 2.0 * half, 2.0 * err + 2.0 * math.exp(-aW) / aW
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
    it over that peak, so nothing overflows.  n is at most
    CK_INDEX_MAX + 1, the length of the C_k table the tails complete.
    """
    x, rho, c, s, xi0 = pt.x, pt.rho, pt.c, pt.s, pt.xi0
    message = (f"need an integer n in [1, {CK_INDEX_MAX + 1}] and xi0 > 0, "
               f"got {{}} and {xi0}")
    n = _check_int(n, 1, CK_INDEX_MAX + 1, message)
    if not xi0 > 0:
        raise DomainError(message.format(_shown(n)))
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

_CK_K_MESSAGE = f"k must be an integer in [0, {CK_INDEX_MAX}], got {{}}"

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


class _CkRow(NamedTuple):
    """One cached C_k table: C_0 .. C_30 and their error estimates as
    floats, the k whose quadrature stalled (ascending, usually none), the
    integrand evaluations of the whole table and the cut in xi."""

    values: tuple
    estimates: tuple
    stalled: tuple
    evaluations: int
    cut: float


@lru_cache(maxsize=2048)
def _ck_table(x: float, alpha: float) -> _CkRow:
    """C_0 .. C_30 at (x, alpha) as a _CkRow."""
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
    # as in _integrate: where rounding stops refinement, up to 20 times the
    # tolerance is accepted
    stalled = tuple(np.flatnonzero(errors > 20.0 * tol).tolist())
    return _CkRow(tuple((scale * moments).tolist()),
                  tuple((scale * (errors + noise + _CK_TAIL)).tolist()),
                  stalled, nodes, _CK_CUT / (x * c))


def _ck_stalled(row: _CkRow, k: int, x: float, alpha: float) -> AccuracyError:
    """The AccuracyError of the stalled C_k, carrying its value and estimate."""
    return AccuracyError(f"C_{k}({x}, {alpha}): quadrature stalled",
                         value=row.values[k], error_estimate=row.estimates[k])


def _ck_values(n: int, x: float, alpha: float) -> tuple:
    """C_0 .. C_{n-1} at (x, alpha), n in [1, CK_INDEX_MAX + 1], read from
    the cached table in one lookup; raises the AccuracyError oracle_Ck(k)
    raises for the first stalled k < n.  Checks nothing: a caller first
    calls oracle_Ck(0, x, alpha), which validates (x, alpha) and builds the
    table, and passes x and alpha as floats."""
    row = _ck_table(x, alpha)
    if row.stalled and row.stalled[0] < n:
        raise _ck_stalled(row, row.stalled[0], x, alpha)
    return row.values[:n]


def oracle_Ck(k: int, x: float, alpha: float) -> QuadResult:
    """Coefficient C_k(x, alpha) of the asymptotic 1/M series, by quadrature.

    The whole table C_0 .. C_30 for (x, alpha) is computed at once, to
    CK_REL_TOL, by one adaptive Gauss-Kronrod run shared by every k, and
    cached under that key as floats; the QuadResult of k is built from it
    on each call, so a value never depends on which k was asked for first.
    Readers of a whole row (ck_table, verify_remainder) call this once, for
    k = 0, and take the row from _ck_values.  Each k keeps its own
    tolerance and error estimate: QUADPACK's, the rounding bound of the
    integrand (see _ck_rule) and the envelope tail beyond the cut.  Raises
    AccuracyError, carrying the value and its estimate, for a k whose
    quadrature stalled above 20 times its tolerance.
    QuadResult.evaluations counts the integrand evaluations of the whole
    table (every node of every panel the mesh held); it is the same for
    every k.  cache_info() and cache_clear() act on the table cache.
    """
    k = _check_int(k, 0, CK_INDEX_MAX, _CK_K_MESSAGE)
    alpha = _check_finite(alpha, "alpha")
    if not 0.0 <= alpha <= _HALF_PI + 4e-16:
        raise DomainError(f"alpha must lie in [0, pi/2], got {alpha}")
    x = _check_finite(x, "x")
    if not x > 0:
        raise DomainError(f"x must be positive and finite, got {x}")
    row = _ck_table(x, alpha)
    if k in row.stalled:
        raise _ck_stalled(row, k, x, alpha)
    return QuadResult(row.values[k], row.estimates[k], row.evaluations, row.cut)


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
