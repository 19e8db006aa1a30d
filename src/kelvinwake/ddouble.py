"""Double-double (compensated) arithmetic on (hi, lo) float pairs.

A value is carried as an unevaluated sum hi + lo of two doubles, with
|lo| <= 0.5 ulp(hi), giving roughly 32 significant digits.  Only the
operations the series kernels need are provided; everything works on plain
tuples to keep the inner loops cheap.  Every operation but from_float and
from_int also works elementwise on pairs of float64 numpy arrays, with the
same rounding as on floats (numpy's +, -, * and / are the IEEE ones).

Python 3.10 has no math.fma, so products are split Dekker-style; the
split overflows for |a| above about 2^996.

add, add_d, mul, mul_d and div_d run in one Python frame each, with
two_sum, quick_two_sum and two_prod written out inline: the same float
operations in the same order as the composed forms, so the results are
the same bit for bit, on floats and on arrays alike.  The series and
ladders of specfun and expansions run in 34-digit decimal
(specfun._CTX) instead; what runs here is the formulas composed around
them: the first terms of the J, I and Hscal series, Y and K of higher
order, Kscal, 1F1 and the C_k recurrence.
"""

from __future__ import annotations

_SPLITTER = 134217729.0  # 2**27 + 1

# (hi, lo) decompositions of constants the series kernels need.
PI = (3.141592653589793, 1.2246467991473532e-16)
EULER_GAMMA = (0.5772156649015329, -4.942915152430645e-18)
SQRT_PI = (1.772453850905516, -7.666586499825799e-17)

ONE = (1.0, 0.0)
ZERO = (0.0, 0.0)


def two_sum(a: float, b: float):
    """Error-free sum: (s, e) with s + e == a + b exactly."""
    s = a + b
    bb = s - a
    return s, (a - (s - bb)) + (b - bb)


def quick_two_sum(a: float, b: float):
    """Error-free sum assuming |a| >= |b|."""
    s = a + b
    return s, b - (s - a)


def two_prod(a: float, b: float):
    """Error-free product: (p, e) with p + e == a * b exactly."""
    p = a * b
    c = _SPLITTER * a
    ahi = c - (c - a)
    alo = a - ahi
    c = _SPLITTER * b
    bhi = c - (c - b)
    blo = b - bhi
    e = ((ahi * bhi - p) + ahi * blo + alo * bhi) + alo * blo
    return p, e


def add(x, y):
    # two_sum(x0, y0), two_sum(x1, y1) and two quick_two_sums, written out
    xh, xl = x
    yh, yl = y
    s = xh + yh
    bb = s - xh
    e = (xh - (s - bb)) + (yh - bb)
    t = xl + yl
    bb = t - xl
    f = (xl - (t - bb)) + (yl - bb)
    e = e + t
    hi = s + e
    e = e - (hi - s)
    e = e + f
    s = hi + e
    return s, e - (s - hi)


def add_d(x, b: float):
    # two_sum(x0, b) and quick_two_sum, written out
    xh, xl = x
    s = xh + b
    bb = s - xh
    e = (xh - (s - bb)) + (b - bb)
    e = e + xl
    hi = s + e
    return hi, e - (hi - s)


def neg(x):
    return (-x[0], -x[1])


def sub(x, y):
    return add(x, (-y[0], -y[1]))


def mul(x, y):
    # two_prod(x0, y0) and quick_two_sum, written out
    xh, xl = x
    yh, yl = y
    p = xh * yh
    c = _SPLITTER * xh
    ahi = c - (c - xh)
    alo = xh - ahi
    c = _SPLITTER * yh
    bhi = c - (c - yh)
    blo = yh - bhi
    e = ((ahi * bhi - p) + ahi * blo + alo * bhi) + alo * blo
    e = e + (xh * yl + xl * yh)
    hi = p + e
    return hi, e - (hi - p)


def mul_d(x, b: float):
    # two_prod(x0, b) and quick_two_sum, written out
    xh, xl = x
    p = xh * b
    c = _SPLITTER * xh
    ahi = c - (c - xh)
    alo = xh - ahi
    c = _SPLITTER * b
    bhi = c - (c - b)
    blo = b - bhi
    e = ((ahi * bhi - p) + ahi * blo + alo * bhi) + alo * blo
    e = e + xl * b
    hi = p + e
    return hi, e - (hi - p)


def div(x, y):
    q1 = x[0] / y[0]
    r = add(x, neg(mul_d(y, q1)))
    q2 = r[0] / y[0]
    r = add(r, neg(mul_d(y, q2)))
    q3 = r[0] / y[0]
    s, e = quick_two_sum(q1, q2)
    return add_d((s, e), q3)


def div_d(x, b: float):
    # q1 = x0 / b, the remainder x - q1 b by two_prod(q1, b) and
    # two_sum(x0, -p), one refinement step and quick_two_sum, written out
    xh, xl = x
    q1 = xh / b
    p = q1 * b
    c = _SPLITTER * q1
    ahi = c - (c - q1)
    alo = q1 - ahi
    c = _SPLITTER * b
    bhi = c - (c - b)
    blo = b - bhi
    e = ((ahi * bhi - p) + ahi * blo + alo * bhi) + alo * blo
    mp = -p
    s = xh + mp
    bb = s - xh
    f = (xh - (s - bb)) + (mp - bb)
    f = f + (xl - e)
    q2 = (s + f) / b
    hi = q1 + q2
    return hi, q2 - (hi - q1)


def from_float(a: float):
    return (float(a), 0.0)


def from_int(n: int):
    """(hi, lo) for an integer: exact up to ~106 bits, correctly rounded
    to ~1e-32 relative beyond that."""
    hi = float(n)
    lo = float(n - int(hi))
    return quick_two_sum(hi, lo)


def to_float(x) -> float:
    return x[0] + x[1]
