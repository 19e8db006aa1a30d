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
