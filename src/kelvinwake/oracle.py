"""Brute-force quadrature ground truth.

The wake integral

    F(x, rho, alpha) = int_{-inf}^{inf} exp[-rho/2 cosh(2u - i alpha)]
                       cos(x cosh u) du

and every intermediate integral the expansions approximate are evaluated
here by adaptive Gauss-Kronrod quadrature, so the series machinery can be
checked against something that knows nothing about series.  Every
finite-range integral runs on one adaptive loop, _gk21_adaptive, over
QUADPACK's 21-point rule (dqk21) in numpy: each pass evaluates every open
panel's nodes as one array, for one integrand or a stack of them on one
shared mesh, and keeps QUADPACK's error estimate and rounding floor per
panel.  _integrate adds the panel budget and stall rule that all but the
C_k table share.  scipy's QUADPACK is left only for F's Fourier tails.

The integrand of F is the real part of a single complex exponential
combined with its conjugate, which works out to the real, even function

    exp(-rho/2 cos(alpha) cosh 2u) * cos(rho/2 sin(alpha) sinh 2u)
                                   * cos(x cosh u).

The infinite u-range is truncated where the Gaussian-type envelope
guarantees the tail is negligible; close to |alpha| = pi/2 the envelope
dies and the tail is instead integrated as a Fourier integral in the phase
variable (QUADPACK's oscillatory rule with nonlinear phase substitution).
The finite part [0, U] (the integrand is even) starts from panels that
each span at most 2 pi of the phase.  Its error estimate is QUADPACK's plus
a bound on the rounding of the integrand, counted from the roundings of the
envelope's exponent, the phases and the nodes: where the phase reaches 1e4
and beyond (|alpha| near pi/2 at large M) a few ulps of it outweigh
QUADPACK's floor of 50 ulps of the integral of |f|.

Endpoint singularities are removed by a change of variable before any rule
sees them: tau = p sin(theta) in the branch-cut integral, a power of
p^2 - tau^2 in the moment identity.

The coefficients C_k(x, alpha) of the asymptotic 1/M series are computed
as a whole table, C_0 .. C_30, in one run of the adaptive loop per
(x, |alpha|): both integral forms of every k are a stack of 62 moments on
one shared mesh.  Every initial mesh ends in the same 25 panels of width 6
on [4, 154]; their nodes w and moment weights w^2k e^-w are a module
constant, computed once at import by the same expression, so a table's
first pass forms only its panels below 4, about log2(4 / (x c)) + 1 of
them.  The constant is no result cache: it does not depend on x or alpha.
The table is cached under (x, alpha, rel_tol); oracle_Ck looks single
coefficients up in it, and oracle_Ck.cache_clear() empties it.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from functools import lru_cache, partial

import numpy as np
from scipy.integrate import IntegrationWarning, quad

from .errors import AccuracyError, DomainError, InternalConsistencyError
from .specfun import kummer_1f1, upper_inc_gamma

#: Subdivision budget: at most ~1e6 integrand evaluations per integral
#: (21-point Gauss-Kronrod panels).
MAX_SUBDIVISIONS = 47_000

_HALF_PI = 0.5 * math.pi


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
            v = getattr(self, name)
            if not (isinstance(v, (int, float)) and math.isfinite(v)):
                raise DomainError(f"{name} must be finite, got {v!r}")
            object.__setattr__(self, name, float(v))
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


def _phase_oscillations(x, rho, alpha, U):
    """Rough count of integrand oscillations on [0, U]."""
    k2 = 0.5 * rho * math.sin(alpha)
    total = k2 * math.sinh(2.0 * U) + x * math.cosh(U)
    return total / (2.0 * math.pi)


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
    count = math.ceil((total[-1] - total[0]) / _WAKE_PANEL_PHASE)
    edges = np.interp(np.linspace(total[0], total[-1], count + 1), total, u)
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
    elif np.count_nonzero(stalled):
        i = np.argmax(stalled)
        e, t = np.ravel(error)[i], np.ravel(tol)[i]
        problem = f"quadrature stalled: error {e:.3e} against a tolerance of {t:.3e}"
    return np.asarray(value).tolist(), np.asarray(error + noise).tolist(), evaluations, problem


def _plain(f):
    """The numpy function f as an integrand with no rounding bound of its own."""
    return lambda u, du: (f(u), np.zeros_like(u))


def _invert_phase(v, k2, sg, x, lo):
    """Solve k2 sinh 2u + sg x cosh u = v for u >= lo (phase is monotone there)."""
    u = max(lo, 0.5 * math.asinh(max(v, 1.0) / k2)) if k2 > 0 else lo
    for _ in range(100):
        g = k2 * math.sinh(2.0 * u) + sg * x * math.cosh(u) - v
        dg = 2.0 * k2 * math.cosh(2.0 * u) + sg * x * math.sinh(u)
        step = g / dg
        u = min(max(u - step, lo), 90.0)
        if abs(step) <= 1e-15 * max(1.0, abs(u)):
            return u
    return u


def _oscillatory_F(pt: EvalPoint, abs_tol: float):
    """F for |alpha| near pi/2: finite core + Fourier-integral tails.

    Beyond the stationary point of the slow phase, each cosine component
    cos(k2 sinh 2u +/- x cosh u) is rewritten with v = phase(u) so the tail
    becomes int g(v) cos v dv, handled by the QUADPACK Fourier rule.
    """
    x, rho, alpha = pt.x, pt.rho, pt.alpha_abs
    k1 = 0.5 * rho * math.cos(alpha)
    k2 = 0.5 * rho * math.sin(alpha)
    U = math.log(max(x / (2.0 * k2), 1.0) + 2.0) + 1.5
    # the minus-phase must be safely increasing and positive at the cut
    while (2.0 * k2 * math.cosh(2.0 * U) - x * math.sinh(U) < k2 * math.cosh(2.0 * U)
           or k2 * math.sinh(2.0 * U) - x * math.cosh(U) < max(2.0, x)):
        U += 0.25

    def h(u):
        return 0.5 * math.exp(-k1 * math.cosh(2.0 * u))

    # the core h(u) (cos(A + B) + cos(A - B)) = 2 h(u) cos A cos B is even:
    # twice [0, U]
    half, err, neval, problem = _integrate(
        _wake_integrand(x, k1, k2), _wake_edges(x, k1, k2, U), 0.125 * abs_tol, 1e-13)
    value, err = 2.0 * half, 2.0 * err

    for sg in (1.0, -1.0):
        phi_u = k2 * math.sinh(2.0 * U) + sg * x * math.cosh(U)

        def g(v, _sg=sg):
            u = _invert_phase(v, k2, _sg, x, U - 1.0)
            dphi = 2.0 * k2 * math.cosh(2.0 * u) + _sg * x * math.sinh(u)
            return h(u) / dphi

        with warnings.catch_warnings():
            warnings.simplefilter("ignore", IntegrationWarning)
            out = quad(g, phi_u, math.inf, weight="cos", wvar=1.0,
                       epsabs=0.25 * abs_tol, limlst=400, limit=2000,
                       full_output=1)
        tail, terr = out[0], out[1]
        value += 2.0 * tail
        err += 2.0 * terr
        info = out[2] if len(out) > 2 and isinstance(out[2], dict) else {}
        neval += int(info.get("neval", 0))
    if problem:
        raise AccuracyError(problem, value=value, error_estimate=err)
    return QuadResult(value, err, neval, U)


def oracle_F(pt: EvalPoint, abs_tol: float = 1e-12) -> QuadResult:
    """The wake integral F at pt, to absolute tolerance abs_tol (>= 1e-14).

    The two-sided u-range is truncated at U chosen from the envelope rule
    rho cos(alpha) cosh(2U) / 2 >= ln(1/abs_tol) + 5; the residual tail
    bound is folded into the reported error estimate.  Within 1e-6 of
    |alpha| = pi/2 (or whenever the envelope would demand an impractical
    oscillation count) the Fourier-tail path takes over.

    The even integrand is integrated over [0, U] by _gk21_adaptive.  The
    error estimate adds QUADPACK's per-panel estimate, the rounding bound
    of _wake_integrand and any tail; the rounding bound can exceed a tight
    abs_tol near |alpha| = pi/2 at large M (about 1e-10 at M = 1000),
    where the phases reach 1e4.  Raises AccuracyError, carrying the best
    value and its estimate, when the MAX_SUBDIVISIONS panel budget runs out
    or the quadrature stalls above 20 times the tolerance.
    """
    if abs_tol < 1e-14:
        raise DomainError("oracle_F supports abs_tol >= 1e-14")
    x, rho, alpha = pt.x, pt.rho, pt.alpha_abs
    cos_a = math.cos(alpha)
    target = math.log(1.0 / abs_tol) + 5.0

    if _HALF_PI - alpha <= 1e-6:
        return _oscillatory_F(pt, abs_tol)

    arg = 2.0 * target / (rho * cos_a)
    U = 0.5 * math.acosh(max(arg, 2.0))
    if _phase_oscillations(x, rho, alpha, U) > 20_000:
        return _oscillatory_F(pt, abs_tol)

    k1 = 0.5 * rho * cos_a
    k2 = 0.5 * rho * math.sin(alpha)
    # the integrand is even: twice [0, U]
    half, err, neval, problem = _integrate(
        _wake_integrand(x, k1, k2), _wake_edges(x, k1, k2, U), 0.25 * abs_tol, 1e-13)
    aW = k1 * 0.5 * math.exp(2.0 * U)   # ~ k1 cosh(2U)
    tail_bound = 2.0 * math.exp(-aW) / aW
    value, err = 2.0 * half, 2.0 * err + tail_bound
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

    All n are one stack on one mesh, cut at the largest U of the k.  Each
    T_k is measured to the smaller of abs_tol and 1e-12 of its envelope,
    (U - xi0) times the peak of its weight, or to 5e-14 relative; the
    quadrature sees it over that peak, so nothing overflows.
    """
    x, rho, c, s, xi0 = pt.x, pt.rho, pt.c, pt.s, pt.xi0
    if not (isinstance(n, int) and n >= 1 and xi0 > 0):
        raise DomainError(f"need an integer n >= 1 and xi0 > 0, got {n!r} and {xi0}")
    lam = x * c
    k = np.arange(n)
    log_w = k * math.log(rho) - np.array([math.lgamma(j + 1.0) for j in range(n)])
    U = max(_tail_cut(j, lam, xi0, log_w[j]) for j in range(n))
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


# In the scaled variable w = x c xi = c t both forms of C_k become moments
#
#     int_0^inf w^2k e^-w g(w) dw
#
# of one function g written two ways (below), so one adaptive mesh on
# [0, W] serves every k and both forms.  The envelope of the k-th moment is
# int_0^inf w^2k e^-w dw = (2k)!, independent of x and alpha.

#: Largest coefficient index of the quadrature table.
CK_INDEX_MAX = 30

#: Panel budget of one C_k table (21 nodes per panel).
MAX_CK_PANELS = 1000

_CK_K = np.arange(CK_INDEX_MAX + 1)
_CK_POWERS = 2.0 * _CK_K
_CK_ENVELOPE = np.array([float(math.factorial(2 * k)) for k in _CK_K])

#: The scaled range is cut at w = W; int_W^inf w^60 e^-w dw < 1e-17 * 60!.
_CK_CUT = 154.0
# envelope tails beyond the cut: |g| <= 1 in the xi-form and |g| <= c/w in
# the t-form, so the tails are Gamma(2k+1, W) and c Gamma(2k, W)
_CK_TAIL_XI = np.array([upper_inc_gamma(2.0 * k + 1.0, _CK_CUT).value for k in _CK_K])
_CK_TAIL_T = np.array([upper_inc_gamma(2.0 * k, _CK_CUT).value for k in _CK_K])


def _ck_nodes(a, b):
    """GK21 half-widths, nodes w and moment weights w^2k e^-w on the panels
    [a, b]: (h, w, weights), weights shaped (K, panels, 21)."""
    h = 0.5 * (b - a)
    w = (0.5 * (a + b))[:, None] + h[:, None] * _GK21_NODES
    return h, w, w ** _CK_POWERS[:, None, None] * np.exp(-w)


#: Every initial mesh ends in the 25 panels of width 6 on [4, W]; their
#: nodes and weights are the same for every table.
_CK_FAR_EDGES = np.linspace(4.0, _CK_CUT, 26)
_CK_FAR = _ck_nodes(_CK_FAR_EDGES[:-1], _CK_FAR_EDGES[1:])
for _part in _CK_FAR:
    _part.flags.writeable = False


def _ck_gk21(h, w, weights, x, c, s):
    """GK21 on panels given by _ck_nodes, for the moments of both forms of g.

    Returns (value, error, floor), each shaped (2, K, panels): form 0 is
    the xi-form g = cos(s x r)/r with r = sqrt(1 + (w/(x c))^2), form 1 the
    t-form g = cos(s R)/R with R = sqrt(x^2 + (w/c)^2).  error is QUADPACK's
    Kronrod-Gauss estimate, floor its rounding floor.
    """
    r = np.sqrt(1.0 + (w / (x * c)) ** 2)
    R = np.sqrt(x * x + (w / c) ** 2)
    g = np.stack([np.cos(s * x * r) / r, np.cos(s * R) / R])
    return _gk21_rule(weights[None] * g[:, None], h)


def _ck_rule(x, c, s):
    """The panel rule of one C_k table for _gk21_adaptive: _ck_gk21 on the
    panels [a, b], with no rounding bound.  The first pass's panels end in
    the 25 panels on [4, W], whose nodes and weights come from _CK_FAR."""
    first = True

    def rule(a, b):
        nonlocal first
        if first:
            first = False
            near = len(a) - len(_CK_FAR[0])
            h, w, weights = _ck_nodes(a[:near], b[:near])
            grid = (np.concatenate([h, _CK_FAR[0]]), np.concatenate([w, _CK_FAR[1]]),
                    np.concatenate([weights, _CK_FAR[2]], axis=1))
        else:
            grid = _ck_nodes(a, b)
        return (*_ck_gk21(*grid, x, c, s), np.zeros(len(a)))
    return rule


@lru_cache(maxsize=2048)
def _ck_table(x: float, alpha: float, rel_tol: float) -> tuple:
    """C_0 .. C_30 at (x, alpha): one QuadResult per k, or for a k that
    failed its checks a callable making the exception to raise."""
    c = math.cos(0.5 * alpha)
    s = math.sin(0.5 * alpha)
    # all moments of both forms on one adaptive mesh; a (form, k) pair has
    # the absolute tolerance 1e-15 times its envelope, (2k)! for the
    # xi-form and (2k)!/max(x, 1) for the t-form
    # below 4 the panels double from x c, where the factor
    # 1/sqrt(1 + (w/(x c))^2) turns over
    near = _doubling_edges(x * c, 4.0)
    abs_tol = 1e-15 * _CK_ENVELOPE * np.array([[1.0], [1.0 / max(x, 1.0)]])
    moments, errors, _, tol, nodes, complete = _gk21_adaptive(
        _ck_rule(x, c, s), np.concatenate([near[:-1], _CK_FAR_EDGES[:-1]]),
        np.concatenate([near[1:], _CK_FAR_EDGES[1:]]), abs_tol, rel_tol, MAX_CK_PANELS)
    if not complete:
        raise AccuracyError(f"C_k quadrature at (x, c) = ({x}, {c}) needs more than "
                            f"{MAX_CK_PANELS} panels")
    # C_k = (2/pi) x^2k / (x c)^(2k+1) * xi-moment = (2/pi) c^-(2k+1) * t-moment;
    # x^2k / (x c)^(2k+1) is formed as c^-2k / (x c), which stays finite
    # however small x is
    cpow = c ** -_CK_POWERS
    scale = (2.0 / math.pi) * np.array([cpow / (x * c), cpow / c])
    v_xi, v_t = (scale * moments).tolist()
    e_xi, e_t = (scale * (errors + np.array([_CK_TAIL_XI, c * _CK_TAIL_T]))).tolist()
    # as in _integrate: where rounding stops refinement, up to 20 times the
    # tolerance is accepted
    stalled = (errors > 20.0 * tol).any(axis=0).tolist()
    table = []
    for k in range(CK_INDEX_MAX + 1):
        gap = abs(v_xi[k] - v_t[k])
        if stalled[k]:
            table.append(partial(
                AccuracyError, f"C_{k}({x}, {alpha}): quadrature stalled",
                value=v_xi[k], error_estimate=e_xi[k]))
        # the forms must agree to 1e-10 relative; only when oscillatory
        # cancellation leaves both unable to certify that level do we defer
        # to their own (still tiny) error estimates
        elif (gap > 1e-10 * max(abs(v_xi[k]), abs(v_t[k]), 1e-300)
              and gap > 30.0 * (e_xi[k] + e_t[k])):
            table.append(partial(
                InternalConsistencyError,
                f"C_{k}({x}, {alpha}): xi-form {v_xi[k]!r} and t-form "
                f"{v_t[k]!r} disagree beyond 1e-10 relative"))
        else:
            table.append(QuadResult(v_xi[k], e_xi[k] + gap, 2 * nodes,
                                    _CK_CUT / (x * c)))
    return tuple(table)


def oracle_Ck(k: int, x: float, alpha: float, rel_tol: float = 5e-14) -> QuadResult:
    """Coefficient C_k(x, alpha) of the asymptotic 1/M series, by quadrature.

    Both equivalent integral forms (the xi-form and its t = x*xi
    substitution) are evaluated and must agree to 1e-10 relative; their
    agreement is the internal consistency check on the rule.  The whole
    table C_0 .. C_30 for (x, alpha, rel_tol) is computed at once, by one
    adaptive Gauss-Kronrod run shared by every k and both forms, and
    cached under that key; every k is a lookup into it, so a value never
    depends on which k was asked for first.  Each k keeps its own
    tolerance, error estimate (including the envelope tail beyond the cut)
    and consistency check.  QuadResult.evaluations counts the integrand
    evaluations of the whole table (both forms at every node of every panel
    the mesh held); it is the same for every k.  cache_info() and
    cache_clear() act on the table cache.
    """
    if not isinstance(k, int) or k < 0 or k > CK_INDEX_MAX:
        raise DomainError(f"k must be an integer in [0, {CK_INDEX_MAX}], got {k!r}")
    if not 0.0 <= alpha <= _HALF_PI + 4e-16:
        raise DomainError(f"alpha must lie in [0, pi/2], got {alpha}")
    if not (x > 0 and math.isfinite(x)):
        raise DomainError(f"x must be positive and finite, got {x}")
    entry = _ck_table(float(x), float(alpha), float(rel_tol))[k]
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
    if not isinstance(k, int) or k < 0 or k > 20:
        raise DomainError("k must be an integer in [0, 20]")
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
