from fractions import Fraction

from kelvinwake import ddouble as dd


def test_two_sum_is_exact():
    a, b = 1.0, 1e-30
    s, e = dd.two_sum(a, b)
    assert Fraction(s) + Fraction(e) == Fraction(a) + Fraction(b)


def test_two_prod_is_exact():
    a, b = 1.1, 3.7
    p, e = dd.two_prod(a, b)
    assert Fraction(p) + Fraction(e) == Fraction(a) * Fraction(b)


def test_mul_accuracy():
    x = dd.div_d(dd.ONE, 3.0)          # 1/3 to ~32 digits
    y = dd.mul_d(x, 3.0)
    assert abs(dd.to_float(dd.add_d(y, -1.0))) < 1e-31


def test_div_round_trip():
    x = dd.from_float(1.7)
    q = dd.div(x, dd.from_float(0.3))
    back = dd.mul(q, dd.from_float(0.3))
    assert abs(dd.to_float(back) - 1.7) < 1e-30


def test_from_int_exact_within_106_bits():
    v = 1
    for m in range(1, 25):
        v *= 2 * m - 1                 # 47!! ~ 2.7e30, 101 bits
    hi, lo = dd.from_int(v)
    assert int(hi) + int(lo) == v


def test_from_int_correctly_rounded_beyond():
    v = 1
    for m in range(1, 30):
        v *= 2 * m - 1                 # 57!!, 129 bits: inexact but close
    hi, lo = dd.from_int(v)
    assert abs((int(hi) + int(lo)) - v) <= 2 ** (v.bit_length() - 105)


def test_constants_self_consistent():
    two_over_pi = dd.div((2.0, 0.0), dd.PI)
    prod = dd.mul(two_over_pi, dd.PI)
    assert abs(dd.to_float(prod) - 2.0) < 1e-30


def xi(x, i):
    """Element i of an array double-double, as a scalar one."""
    return (float(x[0][i]), float(x[1][i]))


def test_array_operations_equal_scalar_ones_elementwise():
    import numpy as np

    rng = np.random.default_rng(5)
    n = 200
    x = dd.two_prod(rng.uniform(-3, 3, n), rng.uniform(0.1, 2, n))
    y = dd.div_d(dd.two_prod(rng.uniform(-2, 2, n), np.pi), 7.0)
    b = rng.uniform(0.5, 40.0, n)
    results = {
        "add": (dd.add(x, y), lambda i: dd.add(xi(x, i), xi(y, i))),
        "add_d": (dd.add_d(x, b), lambda i: dd.add_d(xi(x, i), b[i])),
        "sub": (dd.sub(x, y), lambda i: dd.sub(xi(x, i), xi(y, i))),
        "neg": (dd.neg(x), lambda i: dd.neg(xi(x, i))),
        "mul": (dd.mul(x, y), lambda i: dd.mul(xi(x, i), xi(y, i))),
        "mul_d": (dd.mul_d(x, b), lambda i: dd.mul_d(xi(x, i), b[i])),
        "div": (dd.div(x, y), lambda i: dd.div(xi(x, i), xi(y, i))),
        "div_d": (dd.div_d(x, b), lambda i: dd.div_d(xi(x, i), b[i])),
        "two_sum": (dd.two_sum(x[0], b), lambda i: dd.two_sum(x[0][i], b[i])),
        "to_float": ((dd.to_float(x), dd.to_float(x)),
                     lambda i: (dd.to_float(xi(x, i)),) * 2),
    }
    for name, (got, scalar) in results.items():
        for i in range(n):
            want = scalar(i)
            assert (float(got[0][i]), float(got[1][i])) == want, (name, i)


# The operations as they were composed from the error-free transformations;
# the flat ones must do the same float operations in the same order.

def _add(x, y):
    s, e = dd.two_sum(x[0], y[0])
    t, f = dd.two_sum(x[1], y[1])
    e += t
    s, e = dd.quick_two_sum(s, e)
    e += f
    return dd.quick_two_sum(s, e)


def _add_d(x, b):
    s, e = dd.two_sum(x[0], b)
    e += x[1]
    return dd.quick_two_sum(s, e)


def _mul(x, y):
    p, e = dd.two_prod(x[0], y[0])
    e += x[0] * y[1] + x[1] * y[0]
    return dd.quick_two_sum(p, e)


def _mul_d(x, b):
    p, e = dd.two_prod(x[0], b)
    e += x[1] * b
    return dd.quick_two_sum(p, e)


def _div_d(x, b):
    q1 = x[0] / b
    p, e = dd.two_prod(q1, b)
    s, f = dd.two_sum(x[0], -p)
    f += x[1] - e
    q2 = (s + f) / b
    return dd.quick_two_sum(q1, q2)


COMPOSED = {"add": (dd.add, _add, True), "add_d": (dd.add_d, _add_d, False),
            "mul": (dd.mul, _mul, True), "mul_d": (dd.mul_d, _mul_d, False),
            "div_d": (dd.div_d, _div_d, False)}


def _operands(rng, n):
    """n seeded doubles: signed zeros, 1e+-300, and magnitudes in between
    with mixed signs."""
    import numpy as np

    special = np.array([0.0, -0.0, 1e300, -1e300, 1e-300, -1e-300, 1.0, -1.0])
    mags = 10.0 ** rng.uniform(-300, 300, n) * rng.choice([-1.0, 1.0], n)
    small = rng.uniform(-4, 4, n)
    pick = rng.integers(0, 3, n)
    return np.where(pick == 0, mags, np.where(pick == 1, small, rng.choice(special, n)))


def _dd_operands(rng, n):
    hi = _operands(rng, n)
    lo = hi * rng.uniform(-1.1e-16, 1.1e-16, n)
    lo[rng.integers(0, 4, n) == 0] = 0.0
    return hi, lo


def _bits(v):
    import numpy as np

    return np.asarray(v, dtype=float).view(np.uint64)


def _scalar(f, x, other):
    """f's result as bit patterns, or the name of the exception it raised
    (a float division by zero raises where numpy gives inf or nan)."""
    try:
        return tuple(_bits(f(x, other)))
    except ZeroDivisionError as exc:
        return type(exc).__name__


def test_flat_operations_equal_composed_ones_bit_for_bit():
    import numpy as np

    rng = np.random.default_rng(19)
    n = 12000
    x, y = _dd_operands(rng, n), _dd_operands(rng, n)
    b = _operands(rng, n)
    with np.errstate(all="ignore"):
        for name, (flat, composed, pair) in COMPOSED.items():
            other = y if pair else b
            # on arrays, and on every element as Python floats
            got, want = flat(x, other), composed(x, other)
            for g, w in zip(got, want):
                assert np.array_equal(_bits(g), _bits(w)), name
            xs = list(zip(x[0].tolist(), x[1].tolist()))
            others = list(zip(y[0].tolist(), y[1].tolist())) if pair else b.tolist()
            for i in range(n):
                g, w = _scalar(flat, xs[i], others[i]), _scalar(composed, xs[i], others[i])
                assert g == w, (name, xs[i], others[i])
                if g != "ZeroDivisionError":
                    assert g == tuple(_bits((got[0][i], got[1][i]))), name
