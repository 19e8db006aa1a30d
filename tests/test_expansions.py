"""Expansion-layer checks: each series against the quadrature oracle,
the coefficient engines against each other, and the assembled methods
against their stored components."""

import math
import warnings

import pytest

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
    oracle_I1_alpha0,
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

    def test_result_fields(self, pt_m8):
        r = bessho_F(pt_m8)
        assert r.method is Method.BESSHO
        assert r.components is None
        assert r.saddle_term == 0.0
        assert r.internal_error_estimate > 0


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


class TestStruveSums:
    def test_rho_to_zero_collapses_to_first_term(self):
        pt = EvalPoint(0.4, 1e-30, 0.0)
        want = specfun.struve_h_scaled(0, 0.4).value
        assert struve_double_sum(pt) == pytest.approx(want, rel=1e-15)

    @pytest.mark.parametrize("x,rho", [(0.4, 0.005), (1.0, 0.02)])
    def test_matches_branch_cut_integral_midplane(self, x, rho):
        pt = EvalPoint(x, rho, 0.0)
        s = struve_double_sum(pt)
        i1 = oracle_I1_alpha0(pt).value
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

    def test_estimate_covers_rounding_of_the_three_part_sum(self):
        # M = 75: the Struve and asymptotic parts are each about 1.5 while F
        # is 0.44, so the sum rounds at a few ulps of the parts, not of F.
        # Reference: the Bessel product series in mpmath at 60 digits (its
        # terms peak near e^M / M ~ 1e31, leaving about 28 correct digits)
        mp = pytest.importorskip("mpmath")
        pt = EvalPoint(0.75, 0.001873817422860383, 0.3 * math.pi)
        with mp.workdps(60):
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
        r = paris_F(pt)
        c = r.components
        parts = (abs(math.pi * math.exp(-0.5 * pt.rho) * c.struve_sum)
                 + abs(math.pi * math.exp(0.5 * pt.rho) * c.asymptotic_sum)
                 + abs(c.saddle))
        assert r.internal_error_estimate >= 4.0 * 2.0 ** -52 * parts
        assert abs(r.value - float(want)) <= r.internal_error_estimate

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
