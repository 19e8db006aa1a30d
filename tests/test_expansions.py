"""Expansion-layer checks: each series against the quadrature oracle,
the coefficient engines against each other, and the assembled methods
against their stored components."""

import itertools
import math
import random
import sys
import time
import warnings
from decimal import Decimal
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from kelvinwake import ddouble as dd
from kelvinwake import expansions, specfun
from kelvinwake.errors import AccuracyError, DomainError, RegimeError
from kelvinwake.expansions import (
    CK_MAX,
    Method,
    TruncationPolicy,
    asymptotic_sum,
    bessho_F,
    ck_recurrence,
    ck_symbolic_coefficients,
    ck_table,
    curly_F_residual,
    field_route,
    paris_F,
    saddle_term,
    struve_double_sum,
    ursell_F,
)
from kelvinwake.oracle import (
    EvalPoint,
    oracle_Ck,
    oracle_F,
    oracle_I1_alpha,
    oracle_I2,
)
from kelvinwake.table1 import TABLE1_ROWS, row_is_defective

# e^-8 / (8 (1 + 0.05^2)^1.5) at 40 digits, the midplane saddle value for
# M = 8, p = 0.05 (i.e. x = 0.8, rho = 0.02)
SADDLE_M8_P005 = 4.1776070352087506e-05


class TestTruncationPolicy:
    def test_auto_resolution(self, pt_m8):
        n = TruncationPolicy().resolve_n(pt_m8)
        assert n == 7                     # floor(8) - 1
        assert n < pt_m8.M * pt_m8.c ** 2

    def test_auto_respects_ck_cap(self):
        pt = EvalPoint(3.0, 0.005, 0.0)   # M = 450
        assert TruncationPolicy().resolve_n(pt) == CK_MAX

    def test_auto_regime_error(self):
        pt = EvalPoint(0.1, 0.005, 0.0)   # M = 0.5
        with pytest.raises(RegimeError, match="bessho"):
            TruncationPolicy().resolve_n(pt)

    def test_explicit_n_warns_beyond_theorem_range(self, pt_m8):
        with pytest.warns(RuntimeWarning):
            TruncationPolicy(n=9).resolve_n(pt_m8)

    def test_bad_n(self):
        with pytest.raises(DomainError):
            TruncationPolicy(n=0)


class TestBessho:
    @pytest.mark.parametrize("x,rho", [(0.4, 0.005), (1.0, 0.02)])
    @pytest.mark.parametrize("frac", [0.0, 0.25])
    def test_against_oracle(self, x, rho, frac):
        pt = EvalPoint(x, rho, frac * math.pi)
        got = bessho_F(pt)
        ref = oracle_F(pt, abs_tol=1e-12)
        assert abs(got.value - ref.value) <= 1e-9

    def test_even_in_alpha_exactly(self):
        a = bessho_F(EvalPoint(1.0, 0.02, 0.3))
        b = bessho_F(EvalPoint(1.0, 0.02, -0.3))
        assert a.value == b.value

    def test_accuracy_error_carries_partial(self, pt_m8, monkeypatch):
        monkeypatch.setattr(expansions, "MAX_TERMS", 5)
        with pytest.raises(AccuracyError) as exc:
            bessho_F(pt_m8)
        assert exc.value.value is not None
        assert exc.value.terms_used == 5

    def test_term_overflow_regime(self):
        # M = 4500: terms reach e^M-scale long before convergence
        with pytest.raises(AccuracyError):
            bessho_F(EvalPoint(3.0, 0.0005, 0.0))

    @pytest.mark.parametrize("x,rho", [(0.5, 40.0), (0.5, 100.0),
                                       (1.0, math.nextafter(2.0 * specfun.ARG_MAX, math.inf))])
    def test_refused_past_the_seeds_regime(self, x, rho):
        # the K seeds come from the log series at rho/2: at rho = 40 the sum
        # came out as -8.91e-9 with an estimate of 2.0e-24, against the
        # oracle's 5.05e-10; at rho = 100 as 54244.6 against 3.0e-23
        with pytest.raises(RegimeError, match="rho/2"):
            bessho_F(EvalPoint(x, rho, 0.3))

    @pytest.mark.parametrize("rho", [3.0, 6.0, 7.9])
    def test_estimate_counts_the_rounding_of_the_log(self, rho):
        # the double ln(rho/4) in the K seeds: without it the estimate was
        # 1.19 times short at rho = 3, 2.61 at rho = 6 and 102 at rho = 8
        for x in (0.1, 0.5, 1.0, 2.0, 3.0):
            for alpha in (0.0, 0.7, 1.5):
                pt = EvalPoint(x, rho, alpha)
                got = bessho_F(pt)
                err = abs(got.value - float(_mp_bessel_product(pt, 40)))
                assert err <= got.internal_error_estimate, (x, alpha)

    def test_result_fields(self, pt_m8):
        r = bessho_F(pt_m8)
        assert r.method is Method.BESSHO
        assert r.components is None
        assert r.saddle_term == 0.0
        assert r.internal_error_estimate > 0


def _outcome(f, pt, **kwargs):
    """f's result fields, or its exception's type, value and terms_used."""
    try:
        r = f(pt, **kwargs)
    except AccuracyError as exc:
        return ("raised", repr(exc.value), exc.terms_used, repr(exc.error_estimate),
                type(exc).__name__, str(exc))
    return ("ok", r.value, r.internal_error_estimate, r.terms_used, r.n_used,
            r.components)


def _check_group(pts, routes=("bessho", "paris")):
    """Every point's outcome by the route field_route gives it, on one
    Ladders for the group as `field` makes, equals a fresh call's bit for
    bit; returns the outcomes."""
    ladders = expansions.Ladders()
    got = []
    for pt in pts:
        if field_route(pt) not in routes:
            continue
        f = paris_F if field_route(pt) == "paris" else bessho_F
        o = _outcome(f, pt, ladders=ladders)
        assert o == _outcome(f, pt), pt
        got.append(o)
    return got


def _count_calls(monkeypatch, names):
    """{name: the first two arguments of each call} for the ladder makers
    of expansions named, counted from now on."""
    calls = {name: [] for name in names}

    def counted(name):
        make = getattr(expansions, name)

        def wrapper(*args):
            calls[name].append(args[:2])
            return make(*args)
        return wrapper

    for name in names:
        monkeypatch.setattr(expansions, name, counted(name))
    return calls


def _rising(a, n):
    """The Pochhammer symbol (a)_n of a rational a."""
    out = Fraction(1)
    for i in range(n):
        out *= a + i
    return out


def _mp_struve_double_sum(pt, dps=40):
    """S1 at pt as the (r, m) double sum in mpmath at dps digits, every
    term with its own rho^r / r!, (m + 1/2)_r / m! and mpmath's Struve
    H_{m+r}: sum_{r,m} (rho^r/r!) ((-1)^m (m+1/2)_r / m!) (xs/2)^2m
    Hscal_{m+r}(xc), summed over r + m = 0, 1, ... until two orders add
    less than 10^-dps of the sum."""
    mp = pytest.importorskip("mpmath")
    with mp.workdps(dps):
        x, rho = mp.mpf(pt.x), mp.mpf(pt.rho)
        xc, y = x * mp.mpf(pt.c), (x * mp.mpf(pt.s) / 2) ** 2
        total, j, quiet = mp.mpf(0), 0, 0
        while quiet < 2:
            hscal = mp.struveh(j, xc) / (xc / 2) ** j
            part = mp.fsum(rho ** r / mp.factorial(r) * (-1) ** (j - r)
                           * mp.rf(j - r + mp.mpf(0.5), r) / mp.factorial(j - r)
                           * y ** (j - r) for r in range(j + 1)) * hscal
            total += part
            quiet = quiet + 1 if abs(part) <= mp.mpf(10) ** -dps * abs(total) else 0
            j += 1
        return total


def _mp_bessel_product(pt, dps):
    """F at pt by the Bessel product series in mpmath at dps digits; its
    terms peak near e^M / M, so about dps - M / ln 10 digits are right."""
    mp = pytest.importorskip("mpmath")
    with mp.workdps(dps):
        x, z, alpha = mp.mpf(pt.x), mp.mpf(pt.rho) / 2, mp.mpf(pt.alpha)
        k_prev, k_cur = mp.besselk(0, z), mp.besselk(1, z)
        want = k_prev * mp.besselj(0, x)
        m = 1
        while True:
            term = 2 * (-1) ** m * mp.cos(m * alpha) * k_cur * mp.besselj(2 * m, x)
            want += term
            if m > pt.M + 10 and abs(term) < mp.mpf(10) ** -40:
                break
            k_prev, k_cur = k_cur, k_prev + (2 * m / z) * k_cur
            m += 1
    return want


class TestBesshoFactors:
    """The decimal factors of the Bessel product series against mpmath,
    and the sum where it cancels most."""

    @pytest.mark.parametrize("x", [1e-3, 0.5, 2.404825557695773, 3.0])
    def test_jhat_against_mpmath(self, x):
        # 2.404825557695773 is a zero of J_0; jhat_0 keeps its own series
        mp = pytest.importorskip("mpmath")
        h = Decimal(0.5 * x)
        minus_w = specfun._CTX.minus(specfun._CTX.multiply(h, h))
        window = expansions.BESSHO_WINDOW
        windows = [expansions._jhat_window(minus_w, m0, m0 + window - 1)
                   for m0 in range(1, 101, window)]
        one_window = expansions._jhat_window(minus_w, 1, 100)
        with mp.workdps(50):
            w = (mp.mpf(x) / 2) ** 2
            j0 = expansions._jhat0(minus_w)
            assert abs(mp.mpf(str(j0)) - mp.besselj(0, x)) <= 1e-30
            for got in (sum(windows, [])[:100], one_window):
                assert len(got) == 100
                for m, jhat in enumerate(got, 1):
                    want = mp.hyp0f1(2 * m + 1, -w)
                    assert abs(mp.mpf(str(jhat)) - want) <= 1e-25 * want, m

    @pytest.mark.parametrize("alpha", [0.0, 1e-8, 0.3 * math.pi, 0.5 * math.pi])
    def test_cos_ladder_against_mpmath(self, alpha):
        mp = pytest.importorskip("mpmath")
        ladder = expansions._cos_ladder(alpha)
        with mp.workdps(50):
            for m in range(1, expansions.MAX_TERMS + 1):
                want = mp.cos(m * mp.mpf(alpha))
                assert abs((-1) ** m * mp.mpf(str(next(ladder))) / 2 - want) <= 1e-27, m

    @pytest.mark.parametrize("x,M,alpha", [
        (0.44, 24.0, 0.25 * math.pi),                # 3.3e-6 off, estimate 1.4e-6
        (1.560727317734223, 19.989777550886878, 0.5 * math.pi),
        (0.1402058156452941, 19.97937645850596, 0.5 * math.pi),
        (1.0, 12.0, 0.5 * math.pi),
        (2.0, 25.0, -0.5 * math.pi),
    ])
    def test_estimate_holds_where_the_terms_cancel(self, x, M, alpha):
        # with a double cos(m alpha) these were up to 7.6x outside their
        # estimates: the terms cancel from e^M / M down to the result
        pt = EvalPoint(x, x * x / (4.0 * M), alpha)
        r = bessho_F(pt)
        want = _mp_bessel_product(pt, 60)
        assert abs(r.value - want) <= r.internal_error_estimate
        assert abs(r.value - want) <= 1e-13

    @pytest.mark.parametrize("x,M,alpha,m_last", [
        (0.4, 2.0, 0.25 * math.pi, 24),               # ends on a window's top
        (0.4, 2.0, 0.0, 25),                          # one m into the next
        (0.4, 8.5, 0.25 * math.pi, 48),               # ends on the second's top
    ])
    def test_block_equals_scalar_at_window_edges(self, x, M, alpha, m_last):
        pt = EvalPoint(x, x * x / (4.0 * M), alpha)
        assert bessho_F(pt).terms_used == m_last + 1
        pts = [pt, EvalPoint(x, pt.rho, 0.1 * math.pi), EvalPoint(1.0, 0.02, alpha)]
        # twice over: the second pass reads ladders the first formed
        ladders = expansions.Ladders()
        for p in pts + pts:
            assert _outcome(bessho_F, p, ladders=ladders) == _outcome(bessho_F, p)


class TestKernelMemo:
    """The convergent sums of a `field` group, run by paris_F and bessho_F
    on the ladders of one Ladders shared across the group, against fresh
    calls."""

    ALPHAS = [f * math.pi for f in (0.0, 0.1, -0.1, 0.25, 0.37, 0.5, -0.5, 0.03)]

    @pytest.mark.parametrize("x,rho", [
        (0.4, 0.005),                  # M = 8
        (1.0, 0.02),                   # M = 12.5
        (0.3, 0.9),                    # M = 0.025
        (1.25, 0.012328467394420659),  # M = 31.7: the cancellation refusal
        (1.0, 0.0078),                 # M = 32
        (3.0, 0.0005),                 # M = 4500: the terms overflow
    ])
    def test_shared_bessho_ladder_equals_fresh_calls(self, x, rho):
        pts = [EvalPoint(x, rho, a) for a in self.ALPHAS]
        ladders = expansions.Ladders()
        for pt in pts:
            assert _outcome(bessho_F, pt, ladders=ladders) == _outcome(bessho_F, pt)

    @pytest.mark.parametrize("alpha", [0.0, 0.25 * math.pi, -0.5 * math.pi,
                                       0.5 * math.pi + 4e-16])
    def test_route_switches_at_m_6(self, alpha):
        # c^2 >= 1/2 in the box, so paris_F's AUTO truncation resolves from
        # M = 6 on, at every alpha
        x = 1.0
        below, at = (EvalPoint(x, x * x / (4.0 * M), alpha) for M in (5.999, 6.0))
        assert (field_route(below), field_route(at)) == ("bessho", "paris")
        assert at.M * at.c ** 2 > 2.99
        assert TruncationPolicy().resolve_n(at) >= 1

    def test_one_memo_over_several_columns(self):
        # all-bessho (x = 0.4), mixed (x = 1) and all-paris (x = 2.75)
        # columns
        pts = [EvalPoint(x, rho, a) for x in (0.4, 1.0, 2.75)
               for rho in (0.01, 0.05, 0.15) for a in self.ALPHAS]
        got = _check_group(pts)
        assert {o[0] for o in got} == {"ok"}
        assert [sorted({field_route(p) for p in pts if p.x == x}) for x in (0.4, 1.0, 2.75)] \
            == [["bessho"], ["bessho", "paris"], ["paris"]]

    def test_refusals_come_out_with_a_shared_ladder(self):
        pts = [EvalPoint(x, rho, a) for x, rho in [(1.0, 0.0078), (3.0, 0.0005)]
               for a in self.ALPHAS]
        ladders = expansions.Ladders()
        outcomes = [_outcome(bessho_F, pt, ladders=ladders) for pt in pts]
        assert outcomes == [_outcome(bessho_F, pt) for pt in pts]
        assert any("cancellation" in o[-1] for o in outcomes[:8])
        assert all("overflow" in o[-1] for o in outcomes[8:])

    def test_bessho_parts_formed_once_per_distinct_value(self, monkeypatch):
        # one jhat ladder per distinct x, one product ladder per distinct
        # (x, rho) and one cos ladder per distinct |alpha| serve a whole
        # group: +-alpha interleaved, several pairs, a cancellation refusal
        # (x = 1, M = 32) and an overflow (x = 3, M = 4500).  The ladders
        # are formed as the points read them, so they are counted after
        calls = _count_calls(monkeypatch, ["_jhats", "_bessel_products", "_cos_ladder"])
        pairs = [(0.4, 0.01), (1.0, 0.0078), (0.3, 0.9), (3.0, 0.0005), (0.4, 0.05)]
        pts = [EvalPoint(x, rho, a) for a in self.ALPHAS for x, rho in pairs]
        ladders = expansions.Ladders()
        outcomes = [_outcome(bessho_F, pt, ladders=ladders) for pt in pts]
        assert sorted(calls["_jhats"]) == sorted({(x,) for x, _ in pairs})
        assert sorted(calls["_bessel_products"]) == sorted(pairs)
        assert sorted(calls["_cos_ladder"]) == sorted({(abs(a),) for a in self.ALPHAS})
        assert outcomes == [_outcome(bessho_F, pt) for pt in pts]
        refusals = [o[-1] for o in outcomes if o[0] == "raised"]
        assert any("cancellation" in r for r in refusals)
        assert any("overflow" in r for r in refusals)
        assert len(refusals) < len(outcomes)

    def test_max_terms_with_a_shared_ladder(self, monkeypatch):
        # both series run out of MAX_TERMS: the Bessel product series and
        # the Struve sum, which these points need 7 to 20 orders of
        pts = [EvalPoint(x, rho, a) for x in (0.4, 1.5, 2.75)
               for rho in (0.005, 0.05) for a in self.ALPHAS]
        for max_terms in (2, 5, 10):
            monkeypatch.setattr(expansions, "MAX_TERMS", max_terms)
            raised = [o for o in _check_group(pts) if o[0] == "raised"]
            assert {o[-1].split()[0] for o in raised} == {"Bessel", "Struve"}
            assert all(o[2] == max_terms for o in raised)

    def test_struve_ladder_formed_once_per_distinct_xc(self, monkeypatch):
        # one Hscal ladder per distinct x c serves a whole group: +-alpha
        # interleaved, two rho a column, and a sum refused past MAX_TERMS
        make = expansions._hscals
        calls = _count_calls(monkeypatch, ["_hscals"])["_hscals"]
        monkeypatch.setattr(expansions, "MAX_TERMS", 12)
        pts = [EvalPoint(x, rho, a) for a in self.ALPHAS for x in (1.5, 2.75)
               for rho in (0.01, 0.03)]
        ladders = expansions.Ladders()
        outcomes = [_outcome(paris_F, pt, ladders=ladders) for pt in pts]
        assert sorted(calls) == sorted({(p.x * p.c,) for p in pts})
        assert outcomes == [_outcome(paris_F, pt) for pt in pts]
        assert ([expansions._struve_series(pt, ladders.hscals(pt.x * pt.c)) for pt in pts]
                == [expansions._struve_series(pt, make(pt.x * pt.c)) for pt in pts])
        assert {o[0] for o in outcomes} == {"ok", "raised"}

    @pytest.mark.parametrize("x,route", [(0.4, "bessho"), (2.75, "paris")])
    def test_a_group_forms_only_its_routes_ladders(self, monkeypatch, x, route):
        # a bessho-only group forms no Hscal ladder, a paris-only group no
        # J_2m, product or cos ladder
        calls = _count_calls(monkeypatch,
                             ["_hscals", "_jhats", "_bessel_products", "_cos_ladder"])
        pts = [EvalPoint(x, rho, a) for rho in (0.01, 0.05) for a in self.ALPHAS]
        assert {field_route(p) for p in pts} == {route}
        _check_group(pts)
        assert {name for name, made in calls.items() if made} == (
            {"_hscals"} if route == "paris"
            else {"_jhats", "_bessel_products", "_cos_ladder"})

    @pytest.mark.parametrize("order", [0, 3, 9])
    def test_struve_orders_past_the_first_window(self, monkeypatch, order):
        # the sums need orders up to about 20 at these points; the orders
        # past a window come from the next one
        monkeypatch.setattr(expansions, "HSCAL_WINDOW", order + 1)
        pts = [EvalPoint(x, rho, a) for x in (0.8, 3.0) for rho in (0.001, 0.02)
               for a in self.ALPHAS]
        assert any(o[3] > order + 1 for o in _check_group(pts, routes=("paris",)))

    @pytest.mark.parametrize("window", [1, 3])
    def test_window_sizes_give_the_same_sums(self, monkeypatch, window):
        # a sum that runs past its window carries on in the next one
        monkeypatch.setattr(expansions, "BESSHO_WINDOW", window)
        pts = [EvalPoint(x, rho, a) for x in (0.4, 1.0, 2.0)
               for rho in (0.0078, 0.05) for a in self.ALPHAS[:5]]
        _check_group(pts)

    def test_passes_in_chunks_give_the_same_sums(self):
        # one Ladders over a group, and one per x column taken as a group
        # of its own, as `field` takes a grid in groups
        pts = [EvalPoint(x, rho, a) for x in (0.4, 1.0, 2.0)
               for rho in (0.005, 0.05) for a in self.ALPHAS]
        whole = _check_group(pts)
        parts = []
        for x in (0.4, 1.0, 2.0):
            parts += _check_group([p for p in pts if p.x == x])
        assert parts == whole
        assert len(whole) == len(pts)


class TestUrsell:
    def test_cutoff_is_floor_M(self, pt_m8):
        r = ursell_F(pt_m8)
        assert r.n_used == 8              # m = 0..8 at M = 8
        assert r.terms_used == 9

    def test_saddle_field_vanishes_at_alpha0(self, pt_m8):
        assert ursell_F(pt_m8).saddle_term == 0.0

    def test_envelope_at_m8(self):
        pt = EvalPoint(0.4, 0.005, 0.1 * math.pi)
        got = ursell_F(pt)
        ref = oracle_F(pt, abs_tol=1e-12)
        assert abs(got.value - ref.value) <= 50.0 * math.exp(-pt.M)

    def test_envelope_at_m125(self):
        pt = EvalPoint(1.0, 0.02, 0.3 * math.pi)
        got = ursell_F(pt)
        ref = oracle_F(pt, abs_tol=1e-12)
        assert abs(got.value - ref.value) <= 50.0 * math.exp(-pt.M)

    def test_regime(self):
        with pytest.raises(DomainError):
            ursell_F(EvalPoint(0.1, 0.005, 0.0))

    @pytest.mark.parametrize("x,rho", [(60.0, 2.0), (40.0, 1.0),
                                       (math.nextafter(specfun.ARG_MAX, math.inf), 1.0)])
    def test_refused_past_the_seeds_regime(self, x, rho):
        # the Y0, Y1 seeds come from the log series at x: at (60, 2, 0) the
        # value was 7.6e-9 from oracle_F with an estimate of 4.4e-15
        with pytest.raises(RegimeError, match="ursell_F needs x <= ARG_MAX"):
            ursell_F(EvalPoint(x, rho, 0.0))
        assert ursell_F(EvalPoint(specfun.ARG_MAX, rho, 0.0)).terms_used > 0

    def test_work_is_bounded_at_huge_M(self):
        # M = 1e9: the terms fall below 1e-16 of the sum after a few
        # steps, long before m = floor(M)
        pt = EvalPoint(2.0, 1e-9, 0.3 * math.pi)
        start = time.perf_counter()
        got = ursell_F(pt)
        assert time.perf_counter() - start < 1.0
        assert got.terms_used < 10
        ref = paris_F(pt)
        assert (abs(got.value - ref.value)
                <= got.internal_error_estimate + ref.internal_error_estimate)

    def test_estimate_counts_the_rounding_of_the_log(self):
        # M = 1178: the double ln(x/2) in Y0 and Y1 is all of ursell_F's
        # error, 3.3e-17 from the same truncated series in mpmath
        mp = pytest.importorskip("mpmath")
        pt = EvalPoint(0.895592479689432, 0.0001702389739513427, 1.3245308952493715)
        got = ursell_F(pt)
        with mp.workdps(40):
            x, z, a = mp.mpf(pt.x), mp.mpf(pt.rho) / 2, mp.mpf(pt.alpha)
            series = mp.besseli(0, z) * mp.bessely(0, x) + 2 * mp.fsum(
                mp.cos(m * a) * mp.besseli(m, z) * mp.bessely(2 * m, x)
                for m in range(1, got.n_used + 1))
            want = -mp.pi * series + got.saddle_term
            assert abs(got.value - want) <= got.internal_error_estimate

    @pytest.mark.parametrize("frac", [0.0, 0.45, 0.5])
    def test_estimate_covers_error_at_m1000(self, frac):
        # at M = 1000 e^-M underflows and the last term is zero, so the
        # estimate rests on the saddle defect 2 amp / M, which dominates at
        # pi/2, and on the rounding floor.  The oracle's own error, up to
        # 2e-14 at 0.45 pi, is larger than ursell_F's (at most 2.2e-16 at
        # 0 and 0.45 pi against the Bessel product series at 470 digits),
        # so it is allowed for.
        pt = EvalPoint(2.0, 0.001, frac * math.pi)
        got = ursell_F(pt)
        ref = oracle_F(pt)
        assert got.internal_error_estimate > 0.0
        assert (abs(got.value - ref.value)
                <= got.internal_error_estimate + ref.abs_error_estimate)


class TestHscalLadder:
    """_hscals, the one source of the Hscal_j(x c) that S1 reads, against
    the scalar kernel and mpmath."""

    @pytest.mark.parametrize("window", [1, 7, expansions.HSCAL_WINDOW])
    def test_within_one_ulp_of_the_kernel(self, monkeypatch, window):
        # a window of one order is the kernel itself
        monkeypatch.setattr(expansions, "HSCAL_WINDOW", window)
        rng = random.Random(11)
        xcs = [1e-40, 1e-8, 1e-6, 1e-3, 3.0] + [rng.uniform(0.0, 3.0) or 1.5
                                                for _ in range(24)]
        for xc in xcs:
            for j, got in zip(range(144), expansions._hscals(xc)):
                want = specfun.struve_h_scaled(j, xc).value
                assert abs(got - want) <= math.ulp(want), (xc, j)
                assert window > 1 or got == want

    @pytest.mark.parametrize("xc", [1e-300, 0.3, 1.7, 3.0])
    def test_against_mpmath(self, xc):
        # at x c = 1e-300 the values from order 12 on are subnormal as
        # doubles; the decimal seeds and recurrence keep their digits
        mp = pytest.importorskip("mpmath")
        with mp.workdps(40):
            for j, got in zip(range(60), expansions._hscals(xc)):
                want = mp.struveh(j, xc) / (mp.mpf(xc) / 2) ** j
                if want >= sys.float_info.min:
                    assert abs(got - want) <= 2.3e-16 * abs(want), (xc, j)

    @pytest.mark.parametrize("x", [0.5, 1.0, 3.0])
    def test_top_window(self, x):
        # the ladder holds ORDER_CAP orders; its top window, seeded at
        # orders ORDER_CAP - 1 and ORDER_CAP, is within an ulp of the series
        ladder = list(expansions._hscals(x))
        assert len(ladder) == specfun.ORDER_CAP
        for j in range(specfun.ORDER_CAP - expansions.HSCAL_WINDOW, specfun.ORDER_CAP):
            want = dd.to_float(specfun._struve_h_series(j, x)[0])
            assert want >= sys.float_info.min
            assert abs(ladder[j] - want) <= math.ulp(want), (x, j)

    def test_a_sum_that_runs_out_of_the_ladder_is_refused(self):
        assert len(list(expansions._hscals(1.0))) == specfun.ORDER_CAP
        pt = EvalPoint(1.0, 0.02, 0.3)
        value, terms, refused = expansions._struve_series(
            pt, itertools.islice(expansions._hscals(pt.x * pt.c), 3))
        assert (terms, refused) == (3, True)
        assert struve_double_sum(pt) != value


class TestStruveSums:
    def test_rho_to_zero_collapses_to_first_term(self):
        pt = EvalPoint(0.4, 1e-30, 0.0)
        want = specfun.struve_h_scaled(0, 0.4).value
        assert struve_double_sum(pt) == pytest.approx(want, rel=1e-15)

    @pytest.mark.parametrize("x,rho", [(0.4, 0.005), (1.0, 0.02)])
    def test_matches_branch_cut_integral_midplane(self, x, rho):
        pt = EvalPoint(x, rho, 0.0)
        s = struve_double_sum(pt)
        i1 = oracle_I1_alpha(pt).value
        assert abs(0.5 * math.pi * math.exp(-rho) * s - i1) <= 1e-12

    @pytest.mark.parametrize("x,rho", [(0.4, 0.005), (1.0, 0.02)])
    @pytest.mark.parametrize("frac", [0.1, 0.2, 0.4])
    def test_matches_branch_cut_integral_oblique(self, x, rho, frac):
        pt = EvalPoint(x, rho, frac * math.pi)
        s = struve_double_sum(pt)
        i1 = oracle_I1_alpha(pt).value
        assert abs(0.5 * math.pi * math.exp(-rho) * s - i1) <= 1e-11

    def test_max_terms_exhaustion(self, pt_m125, monkeypatch):
        monkeypatch.setattr(expansions, "MAX_TERMS", 2)
        with pytest.raises(AccuracyError):
            struve_double_sum(pt_m125)

    @pytest.mark.parametrize("x,alpha", [(40.0, 0.0), (60.0, 1.0),
                                         (math.nextafter(specfun.ARG_MAX, math.inf), 0.0)])
    def test_refused_past_the_kernels_regime(self, x, alpha):
        # the Hscal ladder at x c past ARG_MAX: paris_F at (40, 1, 0) was
        # 4.5e-11 from oracle_F with an estimate of 6.0e-16, and at
        # (60, 1, 1.0) 2.3e-7 against 2.2e-16
        pt = EvalPoint(x, 1.0, alpha)
        for route in (struve_double_sum, paris_F, lambda p: curly_F_residual(p, 1)):
            with pytest.raises(RegimeError, match="x c"):
                route(pt)

    def test_refused_where_the_sum_leaves_double_range(self):
        # at rho = 150 the terms grow past the double range before they
        # fall; a shared Ladders, read a second time, refuses it at the
        # same order
        pt = EvalPoint(3.0, 150.0, 0.0)
        with pytest.raises(AccuracyError, match="not converged") as exc:
            struve_double_sum(pt)
        assert exc.value.terms_used < expansions.MAX_TERMS
        ladders = expansions.Ladders()
        for _ in range(2):
            with pytest.raises(AccuracyError, match="not converged") as shared:
                expansions._struve_value(pt, ladders)
            assert ((repr(shared.value.value), shared.value.terms_used)
                    == (repr(exc.value.value), exc.value.terms_used))

    @settings(max_examples=25, derandomize=True, database=None, deadline=None)
    @given(x=st.floats(1e-6, 3.0), rho_exp=st.floats(-30.0, 0.0),
           alpha=st.floats(-0.5 * math.pi, 0.5 * math.pi))
    @example(x=3.0, rho_exp=-30.0, alpha=0.0)
    @example(x=3.0, rho_exp=-30.0, alpha=0.5 * math.pi)
    @example(x=3.0, rho_exp=-30.0, alpha=-0.5 * math.pi)
    @example(x=3.0, rho_exp=0.0, alpha=0.0)
    @example(x=3.0, rho_exp=0.0, alpha=0.5 * math.pi)
    @example(x=3.0, rho_exp=0.0, alpha=-0.5 * math.pi)
    def test_against_the_double_sum_in_mpmath(self, x, rho_exp, alpha):
        pt = EvalPoint(x, 10.0 ** rho_exp, alpha)
        want = _mp_struve_double_sum(pt)
        assert abs(struve_double_sum(pt) - want) <= 1e-15 * abs(want)

    @pytest.mark.parametrize("xs,rho", [(0.3, 1e-3), (2.1, 0.05), (2.1, 1.0), (0.02, 0.7)])
    def test_coefficients_equal_the_finite_sums(self, xs, rho):
        # a_j against (-1)^j (1/2)_j p_2j, p_2j the finite sum of the
        # Taylor coefficients of e^(xs z) e^(-rho z^2), and that against
        # S1's (r, m) terms with r + m = j, in exact rationals
        X, R = Fraction(xs), Fraction(rho)
        half = Fraction(1)                     # (1/2)_j
        for j, got in zip(range(21), expansions._struve_coefficients(xs, rho)):
            if j:
                half *= Fraction(2 * j - 1, 2)
            p2j = sum(X ** (2 * j - 2 * k) * (-R) ** k
                      / (math.factorial(2 * j - 2 * k) * math.factorial(k))
                      for k in range(j + 1))
            pairs = sum(R ** r / math.factorial(r) * (-1) ** (j - r)
                        * _rising(Fraction(2 * (j - r) + 1, 2), r)
                        / math.factorial(j - r) * (X / 2) ** (2 * (j - r))
                        for r in range(j + 1))
            assert (-1) ** j * half * p2j == pairs
            envelope = half * sum(X ** (2 * j - 2 * k) * R ** k
                                  / (math.factorial(2 * j - 2 * k) * math.factorial(k))
                                  for k in range(j + 1))
            assert abs(Fraction(got) - pairs) <= Fraction(2.3e-16) * (j + 1) * envelope

    @pytest.mark.parametrize("rho", [1e-3, 0.37, 1.0, 2.5])
    def test_midplane_coefficients_are_the_running_products(self, rho):
        # at alpha = 0 xs is 0 and a_j is (1/2)_j rho^j / j! bit for bit
        # as the midplane sum's running products form it
        half, power = 1.0, 1.0
        for j, got in zip(range(41), expansions._struve_coefficients(0.0, rho)):
            if j:
                half *= j - 0.5
                power = power * rho / j
            assert got == half * power


PRINTED_CK_ROWS = [
    [1],
    [-1, 1],
    [1, -2, 3],
    [-1, 3, -9, 15],
    [1, -4, 18, -60, 105],
]


class TestCoefficients:
    def test_symbolic_rows_match_printed_table(self):
        assert ck_symbolic_coefficients(5) == PRINTED_CK_ROWS

    def test_c0_is_struve_combination(self):
        tab = ck_recurrence(1, 0.7)
        assert tab.values[0] == pytest.approx(
            specfun.struve_k_scaled(0, 0.7).value, rel=1e-14)

    def test_c1_closed_form(self):
        x = 0.9
        tab = ck_recurrence(2, x)
        want = (specfun.struve_k_scaled(1, x).value
                - x * x * specfun.struve_k_scaled(0, x).value)
        assert tab.values[1] == pytest.approx(want, rel=1e-13)

    def test_c4_closed_form(self):
        x = 1.1
        tab = ck_recurrence(5, x)
        ks = [specfun.struve_k_scaled(m, x).value for m in range(5)]
        want = (105 * ks[4] - 60 * x ** 2 * ks[3] + 18 * x ** 4 * ks[2]
                - 4 * x ** 6 * ks[1] + x ** 8 * ks[0])
        assert tab.values[4] == pytest.approx(want, rel=1e-12)

    @pytest.mark.parametrize("x", [0.4, 1.0, 2.0])
    def test_recurrence_matches_quadrature(self, x):
        tab = ck_recurrence(7, x)
        for k in range(7):
            q = oracle_Ck(k, x, 0.0).value
            assert abs(tab.values[k] - q) <= 1e-9 * abs(q)

    def test_no_cancellation_flags_in_box(self):
        # the recurrence loses no digits to cancellation in the box: every
        # entry it gives agrees with the quadrature table to rounding
        for x in (0.4, 1.0, 2.0, 3.0):
            rec = ck_recurrence(8, x)
            tab = ck_table(8, x, 0.0)
            for k in range(8):
                assert abs(rec.values[k] - tab.values[k]) <= 1e-14 * abs(tab.values[k])

    def test_table_alpha0_equals_recurrence(self):
        # the quadrature table stands in for the recurrence at alpha = 0:
        # every coefficient the expansion can use, across the x range
        for x in (0.05, 0.4, 0.7, 1.0, 2.0, 3.0):
            tab = ck_table(CK_MAX, x, 0.0)
            rec = ck_recurrence(CK_MAX, x)
            for k in range(CK_MAX):
                assert tab.values[k] == oracle_Ck(k, x, 0.0).value
                assert abs(tab.values[k] - rec.values[k]) <= 1e-14 * abs(rec.values[k])

    def test_table_oblique_is_quadrature(self):
        tab = ck_table(4, 1.0, math.pi / 6)
        assert len(tab) == 4
        for k in range(4):
            assert tab.values[k] == oracle_Ck(k, 1.0, math.pi / 6).value

    def test_caps(self):
        with pytest.raises(DomainError):
            ck_recurrence(31, 1.0)
        with pytest.raises(DomainError):
            ck_table(0, 1.0, 0.0)
        with pytest.raises(DomainError, match="alpha"):
            ck_table(3, 1.0, -0.1)
        with pytest.raises(DomainError, match="x must be"):
            ck_table(3, -1.0, 0.1)
        # numbers past the double range or too long to print
        with pytest.raises(DomainError, match="x must be finite"):
            ck_table(3, 10 ** 400, 0.2)
        with pytest.raises(DomainError, match="alpha must be finite"):
            ck_table(3, 1.0, 10 ** 5000)
        # ck_recurrence checks x finite and real before its sign
        for x in (10 ** 400, "1", math.nan, math.inf):
            with pytest.raises(DomainError, match="x must be finite"):
                ck_recurrence(3, x)

    @pytest.mark.parametrize("x,alpha", [(0.05, 0.0), (1.1, 0.5), (2.7, 0.5 * math.pi)])
    def test_table_is_the_coefficients_bit_for_bit(self, x, alpha):
        # the one read of the cached row gives every n what oracle_Ck gives
        # each k
        want = tuple(oracle_Ck(k, x, alpha).value for k in range(CK_MAX))
        for n in range(1, CK_MAX + 1):
            assert ck_table(n, x, alpha).values == want[:n]

    def test_table_raises_the_first_failing_coefficient(self, ck_stalled_from_c4):
        got = ck_table(4, 1.1, 0.5).values
        assert got == tuple(oracle_Ck(k, 1.1, 0.5).value for k in range(4))
        with pytest.raises(AccuracyError, match="C_4.*quadrature stalled") as exc:
            ck_table(9, 1.1, 0.5)
        with pytest.raises(AccuracyError) as want:
            oracle_Ck(4, 1.1, 0.5)
        assert str(exc.value) == str(want.value)
        assert exc.value.value == want.value.value
        assert exc.value.error_estimate == want.value.error_estimate


class TestAsymptoticSum:
    def test_n1_returns_c0(self, pt_m8):
        tab = ck_table(1, pt_m8.x, 0.0)
        assert asymptotic_sum(pt_m8, tab) == tab.values[0]

    def test_terms_decrease_at_m8(self, pt_m8):
        from kelvinwake.expansions import _asymptotic_terms

        tab = ck_table(8, pt_m8.x, 0.0)
        terms = _asymptotic_terms(pt_m8, tab)
        mags = [abs(t) for t in terms]
        assert all(mags[i + 1] < mags[i] for i in range(len(mags) - 1))

    def test_partial_sums_approach_i2(self, pt_m125):
        i2 = oracle_I2(pt_m125).value
        errs = []
        for n in (1, 4, 8, 12):
            tab = ck_table(n, pt_m125.x, 0.0)
            errs.append(abs(0.5 * math.pi * asymptotic_sum(pt_m125, tab) - i2))
        assert all(b < a for a, b in zip(errs, errs[1:]))

    def test_mismatched_table_rejected(self, pt_m8):
        tab = ck_table(3, 1.0, 0.0)
        with pytest.raises(DomainError):
            asymptotic_sum(pt_m8, tab)


class TestSaddleTerm:
    def test_midplane_value(self):
        pt = EvalPoint(0.8, 0.02, 0.0)     # M = 8, p = 0.05
        assert saddle_term(pt) == pytest.approx(SADDLE_M8_P005, rel=5e-14)

    def test_halfpi_is_not_exponentially_small(self):
        pt = EvalPoint(1.0, 0.02, 0.5 * math.pi)
        s = saddle_term(pt)
        assert abs(s) <= math.sqrt(math.pi / pt.M)
        assert abs(s) > 1e-3               # only algebraically small

    def test_switch_selects_branch(self):
        lo = EvalPoint(0.8, 0.02, 0.01)
        hi = EvalPoint(0.8, 0.02, 0.05)
        assert saddle_term(lo) == saddle_term(EvalPoint(0.8, 0.02, 0.0))
        assert saddle_term(hi) != saddle_term(EvalPoint(0.8, 0.02, 0.0))

    def test_regime(self):
        with pytest.raises(DomainError):
            saddle_term(EvalPoint(0.1, 0.005, 0.0))


class TestParis:
    def test_components_reproduce_value_exactly(self, pt_m125):
        r = paris_F(pt_m125, TruncationPolicy(n=10))
        c = r.components
        rebuilt = (-math.pi * math.exp(-0.5 * pt_m125.rho) * c.struve_sum
                   + math.pi * math.exp(0.5 * pt_m125.rho) * c.asymptotic_sum
                   + c.saddle)
        assert rebuilt == r.value
        assert c.saddle == r.saddle_term

    def test_even_in_alpha_exactly(self):
        a = paris_F(EvalPoint(1.0, 0.02, 0.3), TruncationPolicy(n=8))
        b = paris_F(EvalPoint(1.0, 0.02, -0.3), TruncationPolicy(n=8))
        assert a.value == b.value

    def test_low_m_warns(self):
        with pytest.warns(RuntimeWarning):
            paris_F(EvalPoint(0.4, 0.02, 0.0), TruncationPolicy(n=1))

    def test_reads_its_coefficients_in_one_call(self, monkeypatch):
        # whatever n is, the row C_0 .. C_{n-1} comes from the cached table
        # after one validated oracle_Ck call
        calls = []
        read = expansions.oracle_Ck

        def counted(*args):
            calls.append(args)
            return read(*args)

        monkeypatch.setattr(expansions, "oracle_Ck", counted)
        r = paris_F(EvalPoint(1.3, 0.02, -0.3))
        assert r.n_used > 1
        assert calls == [(0, 1.3, 0.3)]

    def test_estimate_covers_rounding_of_the_three_part_sum(self):
        # M = 75: the Struve and asymptotic parts are each about 1.5 while F
        # is 0.44, so the sum rounds at a few ulps of the parts, not of F.
        # Reference: the Bessel product series in mpmath at 60 digits (its
        # terms peak near e^M / M ~ 1e31, leaving about 28 correct digits)
        pt = EvalPoint(0.75, 0.001873817422860383, 0.3 * math.pi)
        want = _mp_bessel_product(pt, 60)
        r = paris_F(pt)
        c = r.components
        parts = (abs(math.pi * math.exp(-0.5 * pt.rho) * c.struve_sum)
                 + abs(math.pi * math.exp(0.5 * pt.rho) * c.asymptotic_sum)
                 + abs(c.saddle))
        assert r.internal_error_estimate >= 4.0 * 2.0 ** -52 * parts
        assert abs(r.value - float(want)) <= r.internal_error_estimate

    @pytest.mark.parametrize("x,M,alpha,err", [
        (2.75, 14.7, 0.04 * math.pi, 1.6e-7),   # the old estimate was 3.5e-8
        (3.0, 7.90, 0.0, 2.4e-4),               # the old estimate was 2.2e-4
        # seeded random points outside the benchmark's pool, on which the
        # defect's constant was fitted: the worst one found (M sin^2 alpha
        # = 0.19, error 0.74 of the estimate) and one at M sin^2 alpha = 59
        (2.99695787619737, 19.736070179523104, -0.09893551188978388, 9.43e-10),
        (0.11996596805726308, 58.86157723605807, 1.5533361950837565, 6.98e-4),
    ])
    def test_estimate_covers_the_saddle_defect(self, x, M, alpha, err):
        # where M sin^2 alpha is small the saddle form is off by a sizeable
        # part of its amplitude, not by O(1/M) of it
        pt = EvalPoint(x, x * x / (4.0 * M), alpha)
        r = paris_F(pt)
        actual = abs(r.value - float(_mp_bessel_product(pt, 60)))
        assert actual == pytest.approx(err, rel=0.05)
        assert actual <= r.internal_error_estimate
        assert r.internal_error_estimate <= 20.0 * actual

    @pytest.mark.parametrize("row", TABLE1_ROWS,
                             ids=lambda r: f"a{r.alpha_over_pi}-M{r.M}")
    def test_oracle_agreement_within_reference_envelope(self, row):
        # |paris - oracle| <= 10 x the tabulated residual; the two rows
        # whose printed residuals are known-defective (too small by far)
        # cannot satisfy this as printed
        if row_is_defective(row) and row.alpha_over_pi in (0.10, 0.20):
            pytest.xfail("printed residual is mistranscribed (see table1 module)")
        pt = row.point()
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            got = paris_F(pt, TruncationPolicy(n=row.n_terms))
        ref = oracle_F(pt, abs_tol=1e-12)
        assert abs(got.value - ref.value) <= 10.0 * row.residual_abs


# regression pins for the computed residuals (this library's own values,
# frozen at 1e-6 relative; the acceptance suite compares against the printed
# reference instead)
COMPUTED_RESIDUALS = {
    (0.00, 0.40): 6.3679902355673335e-06,
    (0.00, 1.00): 2.6081838777614053e-07,
    (0.10, 0.40): 2.8960876233163901e-05,
    (0.10, 1.00): 1.9884547231008298e-06,
    (0.20, 0.40): 8.3247581456502573e-04,
    (0.20, 1.00): 1.8988068153591442e-05,
    (0.25, 0.40): 4.6872928694030591e-04,
    (0.25, 1.00): 1.4283246851043430e-05,
    (0.30, 0.40): 2.9761965810113367e-03,
    (0.30, 1.00): 2.8845467727456331e-04,
    (0.40, 0.40): 4.3259421983396162e-02,
    (0.40, 1.00): 7.9280387060221003e-04,
}


@pytest.mark.parametrize("row", TABLE1_ROWS,
                         ids=lambda r: f"a{r.alpha_over_pi}-M{r.M}")
def test_residual_regression(row):
    got = abs(curly_F_residual(row.point(), row.n_terms))
    want = COMPUTED_RESIDUALS[(row.alpha_over_pi, row.x)]
    assert got == pytest.approx(want, rel=1e-6)


def test_concurrent_evaluation_is_deterministic(pt_m125):
    # pure functions: eight threads hammering the same points must agree
    # with the serial results bit for bit
    from concurrent.futures import ThreadPoolExecutor

    pts = [EvalPoint(1.0, 0.02, f * math.pi) for f in (0.0, 0.1, 0.2, 0.3)] * 4
    serial = [bessho_F(p).value for p in pts]
    with ThreadPoolExecutor(max_workers=8) as ex:
        threaded = list(ex.map(lambda p: bessho_F(p).value, pts))
    assert serial == threaded


def test_residual_defect_evidence():
    """The three defective reference rows, pinned to what the data shows:
    the 0.10 row's printed value appears exactly one index later, and the
    0.25 row's printed value is ten times the computed one."""
    pt = EvalPoint(0.4, 0.005, 0.1 * math.pi)
    assert abs(curly_F_residual(pt, 7)) == pytest.approx(3.146e-6, rel=1e-3)

    pt = EvalPoint(0.4, 0.005, 0.25 * math.pi)
    assert 10.0 * abs(curly_F_residual(pt, 6)) == pytest.approx(4.687e-3, rel=1e-3)

    # no truncation at the 0.20 point comes near the printed 3.146e-6; the
    # best over n = 1..11 is ~8.7e-5, a factor ~27 above it
    pt = EvalPoint(0.4, 0.005, 0.2 * math.pi)
    best = min(abs(curly_F_residual(pt, n)) for n in range(1, 12))
    assert best > 20.0 * 3.146e-6
