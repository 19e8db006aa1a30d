"""Double-double (compensated) arithmetic on (hi, lo) float pairs.

A value is carried as an unevaluated sum hi + lo of two doubles, with
|lo| <= 0.5 ulp(hi), giving roughly 32 significant digits.  Only the
operations the series kernels need are provided; everything works on plain
tuples to keep the inner loops cheap.  Every operation but from_float and
from_int also works elementwise on pairs of float64 numpy arrays, with the
same rounding as on floats (numpy's +, -, * and / are the IEEE ones), so an
array pass gives the scalar kernels' values bit for bit.

Python 3.10 has no math.fma, so products are split Dekker-style.
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
    s, e = two_sum(x[0], y[0])
    t, f = two_sum(x[1], y[1])
    e += t
    s, e = quick_two_sum(s, e)
    e += f
    return quick_two_sum(s, e)


def add_d(x, b: float):
    s, e = two_sum(x[0], b)
    e += x[1]
    return quick_two_sum(s, e)


def neg(x):
    return (-x[0], -x[1])


def sub(x, y):
    return add(x, (-y[0], -y[1]))


def mul(x, y):
    p, e = two_prod(x[0], y[0])
    e += x[0] * y[1] + x[1] * y[0]
    return quick_two_sum(p, e)


def mul_d(x, b: float):
    p, e = two_prod(x[0], b)
    e += x[1] * b
    return quick_two_sum(p, e)


def div(x, y):
    q1 = x[0] / y[0]
    r = add(x, neg(mul_d(y, q1)))
    q2 = r[0] / y[0]
    r = add(r, neg(mul_d(y, q2)))
    q3 = r[0] / y[0]
    s, e = quick_two_sum(q1, q2)
    return add_d((s, e), q3)


def div_d(x, b: float):
    q1 = x[0] / b
    p, e = two_prod(q1, b)
    # remainder of x - q1*b, then one refinement step
    s, f = two_sum(x[0], -p)
    f += x[1] - e
    q2 = (s + f) / b
    return quick_two_sum(q1, q2)


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
