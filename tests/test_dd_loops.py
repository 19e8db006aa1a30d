"""The decimal loops of specfun and expansions against double-double
references.

Each reference below is the loop as it reads when built from the ddouble
operations (dd.add, mul, mul_d, div_d, sub), one call per operation.  It
carries about 32 digits, as the loops' 34-digit decimal does, so every
value is compared within 2^-100 relative (to the sum of the terms' sizes
where a sum cancels), and every stopping point, count and double exactly,
on seeded inputs and at the edges of each loop.  A double the loops round
from a decimal is compared as the rounding of the reference.
"""

import decimal
import itertools
import math
import random
from decimal import Decimal
from fractions import Fraction

import pytest

from kelvinwake import ddouble as dd
from kelvinwake import expansions, specfun
from kelvinwake.errors import AccuracyError
from kelvinwake.expansions import BESSHO_WINDOW, HSCAL_WINDOW, MAX_TERMS
from kelvinwake.oracle import EvalPoint
from kelvinwake.specfun import _CTX, _SERIES_MAX, _STRUVE_GAMMAS, ORDER_CAP

#: The stop of the Bessel product factors' series, as expansions._FACTOR_REL.
_FACTOR_REL = 1e-33

# ---------------------------------------------------------------------------
# composed references


def _series_ref(t, q, a, b, rel):
    s = t
    for k in range(_SERIES_MAX):
        t = dd.div_d(dd.mul(t, q), (k + a) * (k + b))
        if abs(t[0]) <= rel * abs(s[0]):
            return s, abs(t[0]), k + 2
        s = dd.add(s, t)
    raise AccuracyError("ascending series did not converge", value=dd.to_float(s))


def _ascending_ref(n, x, sign):
    h = 0.5 * x
    t = dd.ONE
    for i in range(1, n + 1):
        t = dd.div_d(dd.mul_d(t, h), float(i))
    return _series_ref(t, dd.two_prod(h, sign * h), 1.0, n + 1.0, 1e-21)


def _log_series_ref(x, sign):
    q = dd.two_prod(0.5 * x, 0.5 * x)
    f0, _, t0 = _ascending_ref(0, x, sign)
    f1, _, t1 = _ascending_ref(1, x, sign)
    lg = specfun._log_half_plus_gamma(x)
    s0 = dd.ZERO
    s1 = dd.ONE
    h = dd.ZERO
    t = dd.ONE
    u = dd.ONE
    k = 1
    while k < _SERIES_MAX:
        t = dd.div_d(dd.mul(t, q), float(k * k))
        u = dd.div_d(dd.mul(u, q), float(k * (k + 1)))
        h = dd.add(h, dd.div_d(dd.ONE, float(k)))
        hsum = dd.add(dd.mul_d(h, 2.0), dd.div_d(dd.ONE, float(k + 1)))
        term0 = dd.mul(t, h)
        term1 = dd.mul(u, hsum)
        if sign < 0:
            if k % 2 == 0:
                term0 = dd.neg(term0)
            else:
                term1 = dd.neg(term1)
        s0 = dd.add(s0, term0)
        s1 = dd.add(s1, term1)
        if abs(term0[0]) + abs(term1[0]) <= 1e-21 * (abs(s0[0]) + abs(s1[0]) + 1e-30):
            break
        k += 1
    return f0, f1, lg, s0, s1, t0 + t1 + k


def _struve_h_series_ref(order, x, shift):
    h = 0.5 * x
    t0 = dd.div(dd.from_float(math.ldexp(h, shift)), _STRUVE_GAMMAS[order])
    return _series_ref(t0, dd.two_prod(h, -h), 1.5, order + 1.5, 1e-17)


def _hscal_window_ref(x, j0, j1):
    h = 0.5 * x
    minus_w = dd.two_prod(h, -h)
    k = -math.frexp(h)[1]
    upper = _struve_h_series_ref(j1 + 1, x, k)[0]
    f = _struve_h_series_ref(j1, x, k)[0]
    inh = dd.div(dd.from_float(math.ldexp(h, k - 1)), _STRUVE_GAMMAS[j1])
    out = [f]
    for v in range(j1, j0, -1):
        upper, f = f, dd.add(dd.add(dd.mul_d(f, float(v)), dd.mul(minus_w, upper)), inh)
        inh = dd.mul_d(inh, v + 0.5)
        out.append(f)
    out.reverse()
    return [(Fraction(hi) + Fraction(lo)) / 2 ** k for hi, lo in out]


def _jhat_window_ref(minus_w, m0, m1):
    upper = _series_ref(dd.ONE, minus_w, 1.0, 2.0 * m1 + 2.0, _FACTOR_REL)[0]
    f = _series_ref(dd.ONE, minus_w, 1.0, 2.0 * m1 + 1.0, _FACTOR_REL)[0]
    out = [f]
    for n in range(2 * m1, 2 * m0, -1):
        upper, f = f, dd.add(f, dd.div_d(dd.mul(minus_w, upper), float(n * (n + 1))))
        if n % 2:
            out.append(f)
    out.reverse()
    return out


def _cos_ladder_ref(alpha):
    cos_a = _series_ref(dd.ONE, dd.two_prod(0.5 * alpha, -0.5 * alpha), 0.5, 1.0,
                        _FACTOR_REL)[0]
    step = (-2.0 * cos_a[0], -2.0 * cos_a[1])
    prev, cur = (2.0, 0.0), step
    while True:
        yield cur
        prev, cur = cur, dd.sub(dd.mul(step, cur), prev)


def _bessel_products_ref(x, rho, jhats):
    w = dd.two_prod(0.5 * x, 0.5 * x)
    ww = dd.mul(w, w)
    m_dd = dd.div_d(dd.two_prod(x, x), 4.0 * rho)
    k0, k1, _ = specfun._k01_dd(0.5 * rho)
    kap_prev = k0
    kap_cur = dd.div_d(dd.mul(k1, w), 2.0)
    yield dd.mul(kap_prev, next(jhats))
    for m, jh in enumerate(jhats, 1):
        if m > 1:
            a = dd.div_d(dd.mul_d(m_dd, 4.0 * (m - 1)), float((2 * m) * (2 * m - 1)))
            b = dd.div_d(ww, float((2 * m) * (2 * m - 1) * (2 * m - 2) * (2 * m - 3)))
            kap = dd.add(dd.mul(kap_cur, a), dd.mul(kap_prev, b))
            kap_prev, kap_cur = kap_cur, kap
        if not math.isfinite(kap_cur[0]):
            yield None
            return
        yield dd.mul(kap_cur, jh)


def _bessho_sum_ref(ladder, products):
    total = next(products)
    peak = abs_sum = last = abs(total[0])
    small = 0
    m = 0
    for prod, coef in zip(products, ladder):
        m += 1
        if prod is None:
            return total, peak, abs_sum, last, m, "overflow"
        term = dd.mul(prod, coef)
        total = dd.add(total, term)
        peak = max(peak, abs(total[0]))
        abs_sum += abs(term[0])
        last = abs(term[0])
        if last <= expansions.SERIES_REL_TOL * abs(total[0]):
            small += 1
            if small >= 3:
                return total, peak, abs_sum, last, m, None
        else:
            small = 0
    return total, peak, abs_sum, last, m, "max_terms"


def _jhats_ref(x):
    minus_w = dd.neg(dd.two_prod(0.5 * x, 0.5 * x))
    yield _series_ref(dd.ONE, minus_w, 1.0, 1.0, _FACTOR_REL)[0]
    for m0 in range(1, MAX_TERMS + 1, BESSHO_WINDOW):
        yield from _jhat_window_ref(minus_w, m0, min(m0 + BESSHO_WINDOW - 1, MAX_TERMS))


# ---------------------------------------------------------------------------
# comparisons

#: The agreement required of the two precisions.
_TOL = Fraction(1, 2 ** 100)


def _exact(v):
    """A Decimal, a double, a double-double or a Fraction as a Fraction."""
    if isinstance(v, tuple):
        return Fraction(v[0]) + Fraction(v[1])
    return Fraction(v)


def _close(got, want, scale=None):
    """got within 2^-100 of want, relative to |want| or to scale."""
    want = _exact(want)
    size = abs(want) if scale is None else abs(_exact(scale))
    return abs(_exact(got) - want) <= _TOL * size


def _rounds(got, want):
    """The double got is want rounded to double, up to 2^-100 of want."""
    want = _exact(want)
    return abs(Fraction(got) - want) <= Fraction(math.ulp(got)) / 2 + _TOL * abs(want)


def _minus_w(x):
    """-(x/2)^2 as the Bessel product ladders form it, and as a double-double."""
    h = Decimal(0.5 * x)
    return _CTX.minus(_CTX.multiply(h, h)), dd.neg(dd.two_prod(0.5 * x, 0.5 * x))


def _seeded(seed, n, lo, hi):
    rng = random.Random(seed)
    return [math.exp(rng.uniform(math.log(lo), math.log(hi))) for _ in range(n)]


class TestSeries:
    def test_seeded_series(self):
        # an alternating sum cancels: it is compared relative to the sum
        # of its terms' sizes, the series with |t| and |q|
        rng = random.Random(2801)
        for _ in range(200):
            x = math.exp(rng.uniform(math.log(1e-3), math.log(10.0)))
            sign = rng.choice([-1.0, 1.0])
            t = (rng.uniform(-2.0, 2.0), rng.uniform(-1e-17, 1e-17))
            q = dd.two_prod(0.5 * x, sign * 0.5 * x)
            a, b = rng.choice([(1.0, 1.0), (1.5, 2.5), (0.5, 1.0)])
            b += rng.randrange(0, 60)
            rel = rng.choice([1e-17, 1e-21, 1e-33])
            got = specfun._series_dd(t, q, a, b, rel)
            want = _series_ref(t, q, a, b, rel)
            sizes = _series_ref(dd.mul_d(t, math.copysign(1.0, t[0])),
                                dd.two_prod(0.5 * x, 0.5 * x), a, b, rel)[0]
            assert _close(got[0], want[0], sizes)
            assert got[1:] == want[1:]

    def test_stopped_by_a_zero_term(self):
        # at x = 0 the first term after t_0 is 0, which stops the sum
        for t in [(1.0, 0.0), (0.25, -1e-18)]:
            got = specfun._series_dd(t, dd.two_prod(0.0, -0.0), 1.0, 1.0, 1e-21)
            assert got == _series_ref(t, dd.two_prod(0.0, -0.0), 1.0, 1.0, 1e-21)
            assert got[1:] == (0.0, 2)

    def test_no_convergence_raises_the_same_error(self):
        args = ((1.0, 0.0), (1e10, 0.0), 1e5, 1e5, 1e-40)
        with pytest.raises(AccuracyError) as got:
            specfun._series_dd(*args)
        with pytest.raises(AccuracyError) as want:
            _series_ref(*args)
        assert str(got.value) == str(want.value)
        assert got.value.value == want.value.value

    @pytest.mark.parametrize("sign", [-1, 1])
    def test_log_series(self, sign):
        # each sum against the reference, relative to its sign = +1
        # counterpart, the sum of its terms' sizes
        for x in _seeded(2802 + sign, 60, 1e-6, 20.0) + [1e-300, 2.404825557695773]:
            got = specfun._log_series(x, sign)
            want = _log_series_ref(x, sign)
            sizes = _log_series_ref(x, +1)
            for i in (0, 1, 3, 4):
                assert _close(got[i], want[i], sizes[i]), (x, i)
            assert got[2] == want[2] and got[5] == want[5]


class TestHscalWindow:
    def test_seeded_windows(self):
        rng = random.Random(2803)
        for xc in _seeded(2804, 40, 1e-3, 3.5):
            j0 = rng.randrange(0, ORDER_CAP - HSCAL_WINDOW + 1, HSCAL_WINDOW)
            j1 = j0 + HSCAL_WINDOW - 1
            got = map(float, specfun._hscal_window(xc, j0, j1))
            assert all(map(_rounds, got, _hscal_window_ref(xc, j0, j1))), xc

    @pytest.mark.parametrize("xc", [1e-300, 1e-10, 0.7, 3.0, 10.0])
    def test_edges(self, xc):
        # the first windows, a window off the ladder's grid and the last
        # window, up to ORDER_CAP - 1
        last = ORDER_CAP - 1
        for j0, j1 in [(0, 0), (0, HSCAL_WINDOW - 1), (150, 155),
                       (last - HSCAL_WINDOW + 1, last), (last, last)]:
            got = [float(v) for v in specfun._hscal_window(xc, j0, j1)]
            want = _hscal_window_ref(xc, j0, j1)
            assert len(got) == len(want) and all(map(_rounds, got, want)), (j0, j1)

    def test_whole_ladders(self):
        for xc in (1e-300, 0.31, 2.9):
            got = list(expansions._hscals(xc))
            want = [v for j0 in range(0, ORDER_CAP, HSCAL_WINDOW)
                    for v in _hscal_window_ref(xc, j0, min(j0 + HSCAL_WINDOW, ORDER_CAP) - 1)]
            assert len(got) == len(want) and all(map(_rounds, got, want))

    def test_the_rescaled_reference_rounds_twice(self):
        # at x c = 1e-300 the reference's low half, scaled back by 2^-k,
        # falls onto the subnormal grid and rounds before the sum does:
        # Hscal_10 comes out an ulp above the value the window rounds once,
        # 0x1.10bffd62d48f5p-1021 (40-digit mpmath gives the same)
        got = float(specfun._hscal_window(1e-300, 0, 15)[10])
        assert got.hex() == "0x1.10bffd62d48f5p-1021"
        h = 5e-301
        k = -math.frexp(h)[1]
        hi, lo = _struve_h_series_ref(10, 1e-300, k)[0]
        assert math.ldexp(hi, -k) + math.ldexp(lo, -k) == math.nextafter(got, 1.0)


class TestBesselProductLadders:
    def test_jhat_windows(self):
        # seeded windows, the windows either side of m = 24/25 and the last
        # window, capped at MAX_TERMS
        rng = random.Random(2805)
        for x in _seeded(2806, 30, 1e-4, 3.5) + [1e-8, 3.0]:
            minus_w, minus_w_dd = _minus_w(x)
            m0 = rng.randrange(1, MAX_TERMS - 40)
            last0 = 1 + BESSHO_WINDOW * ((MAX_TERMS - 1) // BESSHO_WINDOW)
            for lo, hi in [(m0, m0 + rng.randrange(0, 40)), (1, BESSHO_WINDOW),
                           (BESSHO_WINDOW + 1, 2 * BESSHO_WINDOW), (20, 30),
                           (last0, MAX_TERMS), (MAX_TERMS, MAX_TERMS)]:
                got = expansions._jhat_window(minus_w, lo, hi)
                want = _jhat_window_ref(minus_w_dd, lo, hi)
                assert len(got) == len(want) and all(map(_close, got, want)), (x, lo, hi)

    @pytest.mark.parametrize("alpha", [0.0, 1e-9, 0.3, 1.0, 0.5 * math.pi])
    def test_cos_ladder(self, alpha):
        # |c_m| <= 2, and both ladders' rounding grows with m: c_m is
        # compared relative to 2 (m + 1)
        got = itertools.islice(expansions._cos_ladder(alpha), MAX_TERMS)
        want = itertools.islice(_cos_ladder_ref(alpha), MAX_TERMS)
        for m, (g, w) in enumerate(zip(got, want), 1):
            assert _close(g, w, 2 * (m + 1)), m

    def test_products(self):
        # seeded (x, rho) over M from 0.02 to 60, and x = 3, rho = 5e-4
        # (M = 4500), whose ladder ends in None where kappa_m overflows
        rng = random.Random(2807)
        cases = [(3.0, 5e-4)]
        for _ in range(12):
            x = rng.uniform(0.1, 3.5)
            cases.append((x, x * x / (4.0 * math.exp(rng.uniform(math.log(0.02),
                                                                 math.log(60.0))))))
        for x, rho in cases:
            got = list(expansions._bessel_products(x, rho, expansions._jhats(x)))
            want = list(_bessel_products_ref(x, rho, _jhats_ref(x)))
            # each step of either recurrence rounds, so product m is
            # compared relative to (m + 1) |product|; the reference keeps its
            # 32 digits down to 2^-969, where its low half leaves the normal
            # range, while the decimal goes on below
            for m, (g, w) in enumerate(zip(got, want)):
                if w is None or not math.isfinite(w[0]):
                    break
                if abs(w[0]) >= 2.0 ** -960:
                    assert _close(g, w, (m + 1) * _exact(w)), (x, rho, m)
                else:
                    assert abs(g) < 2 ** -950, (x, rho, m)
            assert (got[-1] is None) == (want[-1] is None), (x, rho)
        # the reference's Dekker split overflows from kappa_m near 1.3e300,
        # a NaN product and then None; the decimal ladder ends at the double
        # range, DBL_MAX, later
        ended = list(expansions._bessel_products(3.0, 5e-4, expansions._jhats(3.0)))
        assert ended[-1] is None and len(ended) < MAX_TERMS + 1
        want = list(_bessel_products_ref(3.0, 5e-4, _jhats_ref(3.0)))
        assert math.isnan(want[-2][0]) and len(want) < len(ended)

    def test_sums(self):
        # every stop of the sum: converged, the overflow that ends the
        # products and the cap on terms.  The total, which cancels, is
        # compared relative to its peak; peak, abs_sum, last, the count and
        # the stop are the same, but where the products overflow, which
        # the decimal ladder does later
        rng = random.Random(2808)
        cases = [(3.0, 5e-4, 0.2), (3.0, 3.0 * 3.0 / (4.0 * 300.0), 0.0)]
        for _ in range(12):
            x = rng.uniform(0.1, 3.5)
            M = math.exp(rng.uniform(math.log(0.02), math.log(30.0)))
            cases.append((x, x * x / (4.0 * M), rng.uniform(0.0, 0.5 * math.pi)))
        stops = set()
        for x, rho, alpha in cases:
            got = expansions._bessho_sum(
                expansions._cos_ladder(alpha),
                expansions._bessel_products(x, rho, expansions._jhats(x)))
            want = _bessho_sum_ref(_cos_ladder_ref(alpha),
                                   _bessel_products_ref(x, rho, _jhats_ref(x)))
            stops.add(got[-1])
            assert got[-1] == want[-1], (x, rho, alpha)
            if got[-1] == "overflow":
                assert got[4] > want[4]
                continue
            assert _close(got[0], want[0], got[1]), (x, rho, alpha)
            assert got[1:] == want[1:], (x, rho, alpha)
        assert stops == {None, "overflow", "max_terms"}


class TestAmbientContext:
    """The loops enter specfun._CTX themselves: a caller's decimal context,
    here one of 5 digits, changes none of their results, nor does reading
    two ladders in turn."""

    @staticmethod
    def _outcomes():
        x, rho, alpha = 1.3, 0.02, 0.3
        minus_w = _minus_w(x)[0]
        products = expansions._bessel_products(x, rho, expansions._jhats(x))
        ladder = expansions._cos_ladder(alpha)
        firsts = [next(products), next(ladder)]
        return [
            specfun._series(Decimal(1), Decimal(-2), 0.5, 1.0, Decimal(1e-33)),
            specfun._series_dd((1.0, 0.0), dd.two_prod(0.65, -0.65), 1.0, 4.0, 1e-21),
            specfun._log_series(0.7, -1), specfun._log_series(0.7, +1),
            specfun._hscal_window(x, 0, HSCAL_WINDOW - 1),
            list(itertools.islice(expansions._hscals(x), 40)),
            expansions._jhat0(minus_w), expansions._jhat_window(minus_w, 1, BESSHO_WINDOW),
            list(itertools.islice(expansions._jhats(x), 60)),
            list(itertools.islice(expansions._cos_ladder(alpha), 60)),
            firsts + [next(products), next(ladder)],
            list(itertools.islice(expansions._bessel_products(
                x, rho, expansions._jhats(x)), 60)),
            expansions._bessho_sum(expansions._cos_ladder(alpha), expansions._bessel_products(
                x, rho, expansions._jhats(x))),
            expansions.bessho_F(EvalPoint(x, rho, alpha)),
            expansions.paris_F(EvalPoint(x, rho, alpha)),
            expansions.ursell_F(EvalPoint(2.0, 0.1, alpha)),
            specfun.bessel_y(3, x), specfun.bessel_k(2, 0.4), specfun.struve_k_scaled(4, x),
        ]

    def test_a_low_precision_context_changes_nothing(self):
        want = self._outcomes()
        with decimal.localcontext() as ctx:
            ctx.prec = 5
            ctx.rounding = decimal.ROUND_DOWN
            got = self._outcomes()
            assert decimal.getcontext().prec == 5
        assert got == want


class TestPinned:
    """Values of the parent of the written-out loops, as hex."""

    @pytest.mark.parametrize("point,value,estimate,terms", [
        ((1.0, 0.1, 0.2), "0x1.1c59a065f78e4p-4", "0x1.d656a68f29e23p-49", 30),
        ((3.0, 0.1, 0.3 * math.pi), "-0x1.2ba4c64d63b2ap+0", "0x1.4ee4f4907cb1dp-22", 91),
        ((0.5, 0.5, 0.5 * math.pi), "0x1.6fc0bbde6ae35p+0", "0x1.824d5bb1f7006p-52", 14),
    ])
    def test_bessho_F(self, point, value, estimate, terms):
        # the estimate has since gained the rounding of the double log in
        # the K seeds, and nothing else
        got = expansions.bessho_F(EvalPoint(*point))
        assert got.value.hex() == value
        rho = point[1]
        assert got.internal_error_estimate == (
            float.fromhex(estimate) + 2.0 * math.exp(0.5 * rho) * specfun._log_rounding(0.5 * rho))
        assert got.terms_used == terms

    @pytest.mark.parametrize("point,value", [
        ((1.3, 0.02, 0.3), "0x1.5b1b2960bd5dbp-1"),
        ((2.0, 0.05, 0.0), "0x1.9d55a4ffe832dp-1"),
        ((0.7, 0.01, -1.2), "0x1.6280491d3095bp-2"),
    ])
    def test_struve_double_sum(self, point, value):
        assert expansions.struve_double_sum(EvalPoint(*point)).hex() == value
