"""Quadrature-layer checks: the adaptive rule itself, the geometry of
EvalPoint, and the exact decomposition identities that connect the wake
integral to its branch-cut, imaginary-axis and saddle parts."""

import gzip
import json
import math
import pathlib
import random

import numpy as np
import pytest
from scipy.integrate import quad

from kelvinwake import oracle, specfun
from kelvinwake.errors import AccuracyError, DomainError, KelvinWakeError
from kelvinwake.oracle import (
    EvalPoint,
    oracle_Ck,
    oracle_F,
    oracle_I1_alpha,
    oracle_I2,
    oracle_moment_identity,
)


class TestIntegrateAdaptive:
    """oracle._integrate, the adaptive loop with its budget and stall rule,
    on which every finite-range integral of the library runs."""

    @staticmethod
    def integrate(f, a, b, abs_tol=1e-12, rel_tol=1e-12):
        return oracle._integrate(oracle._plain(f), np.array([a, b]), abs_tol, rel_tol)

    def test_unit(self):
        value, est, evaluations, problem = self.integrate(np.ones_like, 0.0, 1.0)
        assert value == pytest.approx(1.0, abs=1e-15)
        assert evaluations == 21 and problem is None
        assert isinstance(value, float) and isinstance(est, float)

    def test_exponential_tail(self):
        value, est, _, problem = self.integrate(np.exp, -40.0, 0.0)
        assert problem is None
        assert abs(value - 1.0) <= 1e-15

    def test_bad_interval(self):
        for a, b in [(1.0, 0.0), (0.0, 0.0), (0.0, math.inf), (math.nan, 1.0)]:
            with pytest.raises(DomainError):
                self.integrate(np.ones_like, a, b)

    def test_budget_exhaustion_carries_best_estimate(self, monkeypatch):
        monkeypatch.setattr(oracle, "MAX_SUBDIVISIONS", 10)
        value, est, evaluations, problem = self.integrate(
            lambda t: np.cos(3e4 * t * t), 0.0, 1.0, 1e-14, 1e-14)
        assert problem == "quadrature needs more than 10 panels"
        assert math.isfinite(value) and est > 0 and evaluations > 21

    def test_stall_names_the_stalled_integrand(self):
        # a tolerance far below the rounding floor of the second integrand
        # of a stack: the first meets its own, the second stalls
        def f(t):
            return np.stack([np.exp(t), np.exp(t)])

        value, est, _, problem = oracle._integrate(
            oracle._plain(f), np.array([0.0, 1.0]), np.array([1e-12, 1e-300]), 0.0)
        assert len(value) == len(est) == 2
        assert problem.startswith("quadrature stalled: error")
        assert f"{est[1]:.3e}" in problem and "1.000e-300" in problem
        assert abs(value[0] - math.expm1(1.0)) <= est[0] <= 1e-12

    @pytest.mark.parametrize("integral", [oracle_I1_alpha, oracle_I2])
    def test_callers_raise_with_their_best_value(self, monkeypatch, integral):
        # a budget of just the initial panels: the first bisection exceeds it
        pt = EvalPoint(3.0, 0.01, 0.45 * math.pi)
        passes = []
        panels = oracle._gk21_panels

        def recording(integrand, a, b):
            passes.append(len(a))
            return panels(integrand, a, b)

        monkeypatch.setattr(oracle, "_gk21_panels", recording)
        want = integral(pt).value
        assert len(passes) > 1
        monkeypatch.setattr(oracle, "MAX_SUBDIVISIONS", passes[0])
        with pytest.raises(AccuracyError, match=f"more than {passes[0]} panels") as exc:
            integral(pt)
        assert abs(exc.value.value - want) <= exc.value.error_estimate


class TestEvalPoint:
    def test_derived_consistency(self, pt_m8):
        assert pt_m8.M * pt_m8.p ** 2 == pytest.approx(pt_m8.rho, rel=1e-14)
        assert 2.0 * pt_m8.M * pt_m8.p == pytest.approx(pt_m8.x, rel=1e-14)

    @pytest.mark.parametrize("alpha", [0.0, 0.1, 0.5, 1.0, 0.5 * math.pi])
    def test_u0_below_c(self, alpha):
        pt = EvalPoint(0.4, 0.005, alpha)
        assert pt.u0 <= pt.c
        assert 0.0 <= pt.s <= pt.c or alpha > 0.5 * math.pi

    def test_half_angle_ranges(self):
        pt = EvalPoint(1.0, 0.02, 0.5 * math.pi)
        assert pt.s == pytest.approx(math.sin(math.pi / 4), rel=1e-15)
        assert pt.c == pytest.approx(math.cos(math.pi / 4), rel=1e-15)

    def test_validation(self):
        with pytest.raises(DomainError):
            EvalPoint(0.0, 0.01, 0.0)
        with pytest.raises(DomainError):
            EvalPoint(1.0, 0.0, 0.0)
        with pytest.raises(DomainError):
            EvalPoint(1.0, 0.01, 2.0)
        with pytest.raises(DomainError):
            EvalPoint(math.nan, 0.01, 0.0)

    def test_numpy_scalars_are_real_numbers(self):
        # numpy integers and float32 are real numbers: they give the point
        # of the equal Python floats; NaN, inf and non-numbers stay refused
        want = EvalPoint(1.0, 0.125, 0.0)
        for args in [(np.int64(1), 0.125, 0), (np.float32(1.0), np.float32(0.125), np.int32(0)),
                     (np.float64(1.0), 0.125, np.float16(0.0)), (1, 0.125, False)]:
            got = EvalPoint(*args)
            assert got == want
            assert all(type(v) is float for v in (got.x, got.rho, got.alpha))
        for bad in [np.float64(math.nan), np.float32(math.inf), -math.inf, "1", None, 1j,
                    np.array([1.0, 2.0])]:
            with pytest.raises(DomainError, match="x must be finite"):
                EvalPoint(bad, 0.125, 0.0)

    def test_ints_past_the_double_range_are_refused(self):
        # float() of such an int overflows; it is not finite as a double
        for args in [(10 ** 400, 0.1, 0), (1.0, -10 ** 400, 0), (1.0, 0.1, 10 ** 5000)]:
            with pytest.raises(DomainError, match="must be finite"):
                EvalPoint(*args)
        assert EvalPoint(2 ** 53 + 1, 0.1, 0).x == 2.0 ** 53


def _near_half_pi_points():
    """Six seeded draws: x in [0.2, 3], log10 M in [-1.3, 1.5] and alpha
    at +-pi/2 (even draws) or with |alpha| / pi in [0.49, 0.5)."""
    rng = random.Random(2026)
    pts = []
    for i in range(6):
        x = rng.uniform(0.2, 3.0)
        M = 10.0 ** rng.uniform(-1.3, 1.5)
        alpha = 0.5 * math.pi if i % 2 == 0 else rng.uniform(0.49, 0.5) * math.pi
        pts.append((x, x * x / (4.0 * M), alpha if rng.random() < 0.5 else -alpha))
    return pts


_REFERENCE = pathlib.Path(__file__).resolve().parents[1] / "bench" / "data" / "reference.json.gz"


def _near_half_pi_references():
    """Seeded members of the benchmark pool's two near-pi/2 strata, |alpha|
    = pi/2 and |alpha| / pi in [0.49, 0.5), four of each per decade of M
    from 0.02 to 2000: (x, rho, alpha, hi, lo, err), F = hi + lo within
    err by the Bessel product series in mpmath (bench/reference.py)."""
    with gzip.open(_REFERENCE, "rt", encoding="utf-8") as fh:
        pool = json.load(fh)["pool"]
    strata = {}
    for r in pool:
        a = abs(r["alpha"]) / math.pi
        if a >= 0.49:
            M = r["x"] ** 2 / (4.0 * r["rho"])
            strata.setdefault((a == 0.5, math.floor(math.log10(M / 0.02))), []).append(r)
    rng = random.Random(3132)
    return [(r["x"], r["rho"], r["alpha"], r["hi"], r["lo"], r["err"])
            for key in sorted(strata) for r in rng.sample(strata[key], 4)]


class TestOracleF:
    def test_tolerance_floor(self, pt_m8):
        for abs_tol in (1e-15, math.nan, math.inf, -1.0):
            with pytest.raises(DomainError, match="abs_tol"):
                oracle_F(pt_m8, abs_tol=abs_tol)

    @pytest.mark.parametrize("alpha", [0.1, 0.25 * math.pi, 0.4 * math.pi])
    def test_even_in_alpha(self, alpha):
        plus = oracle_F(EvalPoint(1.0, 0.02, alpha), abs_tol=1e-12)
        minus = oracle_F(EvalPoint(1.0, 0.02, -alpha), abs_tol=1e-12)
        assert abs(plus.value - minus.value) <= 2e-12

    def test_stability_under_tolerance_halving(self, pt_m8):
        loose = oracle_F(pt_m8, abs_tol=2e-12)
        tight = oracle_F(pt_m8, abs_tol=1e-12)
        assert abs(loose.value - tight.value) <= loose.abs_error_estimate

    def test_error_estimate_fields(self, pt_m8):
        r = oracle_F(pt_m8)
        assert r.abs_error_estimate >= 0 and math.isfinite(r.abs_error_estimate)
        assert r.evaluations > 0
        assert r.truncation_point > 0

    def test_near_halfpi_matches_series(self):
        # the contour at alpha = pi/2 against the convergent series
        from kelvinwake.expansions import bessho_F

        for (x, rho) in [(0.4, 0.005), (1.0, 0.02)]:
            pt = EvalPoint(x, rho, 0.5 * math.pi)
            got = oracle_F(pt, abs_tol=1e-12)
            ref = bessho_F(pt)
            assert abs(got.value - ref.value) <= 1e-9

    @pytest.mark.parametrize("x,rho,alpha", _near_half_pi_points() + [
        # estimate 1.9e-13 against an error of 2.35e-13 with a floor of
        # one ulp of the phases
        (0.22781442319369094, 0.11273240057488171, -1.5524557923653826),
        # 5.0e-10 and 1.3e-11 from the reference with estimates of about
        # 5e-13 when the core was integrated by QAGS
        (0.27094578808647374, 0.2683677242334037, 1.5502350885554999),
        (0.3007461145101703, 0.0035502373152201065, -1.5438143838267466),
        # M = 14.3: from one initial panel rather than panels of 2 pi of
        # phase, 3.0e-11 from the reference with an estimate of 1.1e-12
        (0.2377375910226187, 0.0009876714904896776, -1.5644247249063796),
        # x below 0.1 at M = 0.03, 1.2e-6 below pi/2 and at pi/2
        (0.09690709022087807, 0.08020389554167652, -1.570575555952955),
        (0.059024830461159805, 0.03559978721721959, -0.5 * math.pi),
    ])
    def test_estimate_covers_error_near_half_pi(self, x, rho, alpha):
        from test_expansions import _mp_bessel_product

        pt = EvalPoint(x, rho, alpha)
        got = oracle_F(pt)
        want = _mp_bessel_product(pt, 60)
        assert abs(got.value - float(want)) <= got.abs_error_estimate

    def test_estimate_covers_the_pool_near_half_pi(self):
        # the contour's estimate at every tolerance oracle_F takes
        refs = _near_half_pi_references()
        assert len(refs) == 40
        for abs_tol in (1e-12, 1e-13, 1e-14):
            for x, rho, alpha, hi, lo, err in refs:
                got = oracle_F(EvalPoint(x, rho, alpha), abs_tol=abs_tol)
                assert abs((got.value - hi) - lo) <= got.abs_error_estimate + err

    def test_estimate_counts_the_rounding_of_the_phases(self):
        # at pi/2 and M = 1000 the contour crosses the saddle u* = 8.29,
        # where the phases k2 sinh 2u and x cosh u are 1e3 and 2e3, on a
        # Gaussian of width 1/sqrt(2 M): their ulps are worth about 2e-13
        # of F
        pt = EvalPoint(1.0, 0.00025, 0.5 * math.pi)
        got = oracle_F(pt)
        assert 1e-13 < got.abs_error_estimate < 4e-13

    def test_tight_tolerance_ends_within_the_panel_budget(self):
        # F = -0.22220307416678721580... by the Bessel product series in
        # mpmath at 480 digits.  On the contour the phases stay near 3 M,
        # so the requested 1e-13 is met without running into
        # MAX_SUBDIVISIONS
        want = -0.22220307416678722
        got = oracle_F(EvalPoint(1.0, 0.00025, 0.5 * math.pi), abs_tol=1e-13)
        assert abs(got.value - want) <= got.abs_error_estimate

    @pytest.mark.parametrize("alpha", [0.0, 0.499 * math.pi, 0.5 * math.pi])
    def test_panel_budget_raises_with_best_value(self, monkeypatch, alpha):
        # a budget of just the initial panels: the first bisection exceeds
        # it.  Near pi/2 the contour needs a second pass only at larger M
        pt = EvalPoint(1.0, 0.02 if alpha == 0.0 else 0.00025, alpha)
        passes = []
        panels = oracle._gk21_panels

        def recording(integrand, a, b):
            passes.append(len(a))
            return panels(integrand, a, b)

        monkeypatch.setattr(oracle, "_gk21_panels", recording)
        want = oracle_F(pt).value
        assert len(passes) > 1
        monkeypatch.setattr(oracle, "MAX_SUBDIVISIONS", passes[0])
        with pytest.raises(AccuracyError, match=f"more than {passes[0]} panels") as exc:
            oracle_F(pt)
        assert abs(exc.value.value - want) <= exc.value.error_estimate
        monkeypatch.setattr(oracle, "MAX_SUBDIVISIONS", passes[0] - 1)
        with pytest.raises(AccuracyError, match="panels"):
            oracle_F(pt)

    @pytest.mark.parametrize("x,rho,alpha,match", [
        # M = 2.5e11 at alpha = 0, where the contour has nothing to decay
        # by: 2e12 initial panels, refused before any is evaluated
        (1.0, 1e-12, 0.0, "more than 47000 panels"),
        (3.0, 1e-9, 0.0, "more than 47000 panels"),
        (1.0, 1e-300, 0.0, "more than 47000 panels"),
        # the contour's far end, or the envelope's cut, beyond the double
        # range
        (1.0, 1e-300, 0.5 * math.pi, "double range"),
        (1.0, 1e-320, 0.5 * math.pi, "double range"),
        (1.0, 1e-320, 0.0, "double range"),
        (3.0, 1e-320, 1.0, "double range"),
    ])
    def test_work_beyond_the_budget_is_refused(self, x, rho, alpha, match):
        import warnings

        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(KelvinWakeError, match=match):
                oracle_F(EvalPoint(x, rho, alpha))

    @pytest.mark.parametrize("integral,pt", [
        (oracle_F, EvalPoint(1.0, 1e-12, 0.0)),
        (oracle_I1_alpha, EvalPoint(1e6, 0.5, 0.3)),
    ])
    def test_refused_initial_panels_carry_no_value(self, integral, pt):
        # the initial panels alone exceed the budget: nothing is evaluated
        with pytest.raises(AccuracyError,
                           match=f"more than {oracle.MAX_SUBDIVISIONS} panels") as exc:
            integral(pt)
        assert exc.value.value is None and exc.value.error_estimate is None

    def test_alpha_zero_past_20000_oscillations(self):
        # k2 = 0 gives the contour's far legs nothing to decay by: the
        # envelope path integrates all 3.2e4 oscillations
        from kelvinwake.expansions import paris_F

        pt = EvalPoint(1.0, 1e-9, 0.0)
        got = oracle_F(pt)
        ref = paris_F(pt)
        assert (abs(got.value - ref.value)
                <= got.abs_error_estimate + ref.internal_error_estimate)

    def test_saddle_is_the_largest_root_of_its_equation(self):
        # u* against the root of 2 k2 cosh 2u = x sinh u that mpmath's
        # findroot reaches from it at 40 digits: within 4 ulps, and the
        # largest root, where the difference turns positive; with no real
        # root, where x < sqrt(32) k2, there is no saddle
        mp = pytest.importorskip("mpmath")
        rng = random.Random(3131)
        for _ in range(24):
            x = rng.uniform(0.05, 3.5)
            k2 = x / 10.0 ** rng.uniform(0.9, 6.0)
            got = oracle._saddle(x, k2)
            with mp.workdps(40):
                want = mp.findroot(lambda u: 2 * k2 * mp.cosh(2 * u) - x * mp.sinh(u), got)
                slope = 4 * k2 * mp.sinh(2 * want) - x * mp.cosh(want)
            assert abs(got - want) <= 4.0 * math.ulp(got) and slope > 0
        for x, k2 in [(1.0, 1.0), (0.3, 0.3 / math.sqrt(32.0) * (1.0 + 1e-15)), (3.0, 5.0)]:
            assert oracle._saddle(x, k2) is None

    def test_contour_far_end_is_the_first_grid_point_that_holds(self):
        # W steps by 0.25 from the contour's last corner, u* + pi/4 past a
        # saddle beyond pi/4 and 0 otherwise, to the first point where the
        # far leg's modulus exp(-(k2 cosh 2W - x sinh W / sqrt 2)) is below
        # e^-45 abs_tol; one step less is not below it
        def below(x, k2, W):
            exponent = k2 * math.cosh(2.0 * W) - x * math.sinh(W) / math.sqrt(2.0)
            return exponent >= 45.0 + math.log(1e12)

        rng = random.Random(3030)
        for i in range(24):
            x = rng.uniform(0.05, 3.5)
            rho = min(x * x / (4.0 * 10.0 ** rng.uniform(-1.7, 3.3)), 2.0)
            alpha = 0.5 * math.pi - (0.0 if i % 2 else rng.uniform(0.0, 0.01))
            k2 = 0.5 * rho * math.sin(alpha)
            u = oracle._saddle(x, k2)
            start = u + 0.25 * math.pi if u is not None and u > 0.25 * math.pi else 0.0
            W = oracle_F(EvalPoint(x, rho, alpha)).truncation_point
            steps = (W - start) / 0.25
            assert abs(steps - round(steps)) < 1e-9 and steps > 0.5
            assert below(x, k2, W) and (steps < 1.5 or not below(x, k2, W - 0.25))

    @pytest.mark.parametrize("x,rho,alpha", [
        (1.0, 1e-12, 1.0),
        (3.0, 1e-9, 0.3 * math.pi),
        (1.0, 1e-9, 1e-3),
        (2.0, 1e-8, 0.5 * math.pi),
    ])
    def test_contour_past_the_envelope_budget(self, x, rho, alpha):
        # M = 1e8 to 2.5e11: the envelope path would need more than
        # MAX_SUBDIVISIONS initial panels; the contour's work does not grow
        # with M, down to alpha = 1e-3, and it agrees with the 1/M series.
        # At pi/2 the saddle's Gaussian is 1e-4 wide, and the mesh must
        # resolve it: missed, it leaves F 7e-5 off
        from kelvinwake.expansions import paris_F

        pt = EvalPoint(x, rho, alpha)
        got = oracle_F(pt)
        ref = paris_F(pt)
        assert got.evaluations < 1000
        assert (abs(got.value - ref.value)
                <= got.abs_error_estimate + ref.internal_error_estimate)

    def test_past_the_old_panel_budget(self):
        # M = 24769 at pi/2: with the cut's grid started 1.5 further out,
        # the core's bisection ran past MAX_SUBDIVISIONS and raised
        # AccuracyError.
        # F = -0.62252538287501009269... by the Bessel product series in
        # mpmath at 10837 digits (the J_2m by Miller's backward recurrence,
        # the K_m by the forward one; the terms peak near 1e10757)
        want = -0.6225253828750101
        got = oracle_F(EvalPoint(3.4689672504416738, 1.2145971838498043e-4, 0.5 * math.pi))
        assert abs(got.value - want) <= got.abs_error_estimate
        assert got.evaluations < 1000

    def test_small_x_past_the_old_panel_budget(self):
        # M = 23794 at pi/2 and x = 0.335, where the integrand's real-axis
        # oscillations would need more than MAX_SUBDIVISIONS panels.
        # F = 2.28920520546385402218... by the Bessel product series in
        # mpmath at 10400 and at 10440 digits (the J_2m by Miller's backward
        # recurrence, normalised by J_0 + 2 sum J_2m = 1; the K_m by the
        # forward one from K_0 and K_1, which come from their ascending
        # series and the Wronskian; cos(m alpha) by its Chebyshev
        # recurrence; the terms peak near 1e10329)
        want = 2.289205205463854
        got = oracle_F(EvalPoint(0.3354042256919964, 1.182015882807431e-6, 0.5 * math.pi))
        assert abs(got.value - want) <= got.abs_error_estimate
        assert got.evaluations < 1000

    def test_work_and_estimate_stay_flat_in_M(self):
        # M = 2000 at pi/2: the contour crosses the saddle in a few hundred
        # evaluations, and the phases' ulps stay below 1e-12 of F
        got = oracle_F(EvalPoint(2.0, 5e-4, 0.5 * math.pi))
        assert got.evaluations < 1000 and got.abs_error_estimate <= 1e-12

    @pytest.mark.parametrize("x,rho", [(1.0, 0.02), (2.0, 5e-4), (0.5, 3.0)])
    def test_alpha_rounded_past_half_pi(self, x, rho):
        # EvalPoint admits |alpha| up to pi/2 + 4e-16, where cos(alpha) is
        # -3.8e-16: taken as it is, the envelope rule cut the growing
        # integrand at U = 0.66 and returned a wrong value with a negative
        # estimate
        at = oracle_F(EvalPoint(x, rho, 0.5 * math.pi))
        past = oracle_F(EvalPoint(x, rho, 0.5 * math.pi + 4e-16))
        assert 0.0 <= past.abs_error_estimate <= 1e-12
        assert abs(past.value - at.value) <= past.abs_error_estimate + at.abs_error_estimate


def _wake_integrand_ref(x, k1, k2):
    """_wake_integrand as the composed expressions its docstring names."""
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


class TestWakeIntegrand:
    @pytest.mark.parametrize("seed", range(4))
    def test_equals_the_composed_expressions(self, seed):
        # GK21 nodes of panels over [0, U], U up to where the phase
        # k2 sinh 2U reaches 1e5 (and the exponent k1 cosh 2U 700), with
        # k1 = 0, with k2 = 0 (alpha = 0) and with alpha in between
        rng = np.random.default_rng(seed)
        for i in range(12):
            x = rng.uniform(0.05, 3.5)
            rho = x * x / (4.0 * 10.0 ** rng.uniform(-1.7, 3.3))
            alpha = (0.5 * math.pi, 0.0, rng.uniform(0.0, 0.5) * math.pi)[i % 3]
            k1 = 0.0 if i % 3 == 0 else 0.5 * rho * math.cos(alpha)
            k2 = 0.0 if i % 3 == 1 else 0.5 * rho * math.sin(alpha)
            U = 0.5 * math.asinh(10.0 ** rng.uniform(0.0, 5.0) / max(k2, 1e-300))
            U = min(U, 0.5 * math.acosh(700.0 / k1) if k1 else U, 30.0)
            edges = np.sort(rng.uniform(0.0, U, size=rng.choice([3, 40, 700])))
            a, b = edges[:-1], edges[1:]
            h, mid = 0.5 * (b - a), 0.5 * (a + b)
            u = mid[:, None] + h[:, None] * oracle._GK21_NODES
            du = (2.0 ** -52 * (np.abs(mid) + h))[:, None]
            got = oracle._wake_integrand(x, k1, k2)(u, du)
            want = _wake_integrand_ref(x, k1, k2)(u, du)
            for g, w in zip(got, want):
                assert g.shape == w.shape
                assert np.array_equal(g.view(np.int64), w.view(np.int64))


def _panel_rule(*fs):
    """A panel rule of oracle._gk21_adaptive for the numpy functions fs:
    one integrand, or a stack of them when there are several."""
    def rule(a, b):
        h = 0.5 * (b - a)
        u = (0.5 * (a + b))[:, None] + h[:, None] * oracle._GK21_NODES
        f = fs[0](u) if len(fs) == 1 else np.stack([g(u) for g in fs])
        return (*oracle._gk21_rule(f, h), np.zeros(len(a)))
    return rule


@pytest.mark.filterwarnings("ignore::scipy.integrate.IntegrationWarning")
class TestArrayPass:
    """oracle._gk21_adaptive against QAGS (scipy.integrate.quad)."""

    CASES = [
        (np.exp, math.exp, 0.0, 5.0),
        (lambda u: 1.0 / (1.0 + u * u), lambda t: 1.0 / (1.0 + t * t), -3.0, 3.0),
        (lambda u: np.exp(-u) * np.cos(20.0 * u),
         lambda t: math.exp(-t) * math.cos(20.0 * t), 0.0, 4.0),
        (lambda u: np.sqrt(1.0 + u), lambda t: math.sqrt(1.0 + t), 0.0, 10.0),
    ]

    @pytest.mark.parametrize("f,g,a,b", CASES)
    def test_agrees_with_qags(self, f, g, a, b):
        got, est, noise, tol, evaluations, complete = oracle._gk21_adaptive(
            _panel_rule(f), np.array([a]), np.array([b]), 1e-13, 1e-13, 100)
        ref, ref_err = quad(g, a, b, epsabs=1e-13, epsrel=1e-13)
        assert complete and est <= 20.0 * tol and evaluations % 21 == 0
        assert noise == 0.0
        assert abs(got - ref) <= est + ref_err

    def test_stacked_integrands_meet_their_own_tolerances(self):
        # three integrands on one mesh, each with its own absolute tolerance:
        # every component comes out within its estimate of QAGS, and the
        # mesh refines until the tightest is met
        fs = [np.exp, lambda u: np.exp(-u) * np.cos(20.0 * u),
              lambda u: np.sqrt(1.0 + u)]
        gs = [math.exp, lambda t: math.exp(-t) * math.cos(20.0 * t),
              lambda t: math.sqrt(1.0 + t)]
        abs_tol = np.array([1e-6, 1e-13, 1e-9])
        value, est, _, tol, evaluations, complete = oracle._gk21_adaptive(
            _panel_rule(*fs), np.array([0.0]), np.array([4.0]), abs_tol, 0.0, 100)
        assert complete and value.shape == est.shape == tol.shape == (3,)
        assert list(tol) == list(abs_tol)
        assert np.all(est <= 20.0 * tol)
        for g, v, e in zip(gs, value, est):
            ref, ref_err = quad(g, 0.0, 4.0, epsabs=1e-14, epsrel=1e-14)
            assert abs(v - ref) <= e + ref_err
        # alone, the loosest integrand needs fewer panels than the stack
        alone = oracle._gk21_adaptive(_panel_rule(fs[0]), np.array([0.0]),
                                      np.array([4.0]), 1e-6, 0.0, 100)
        assert alone[4] < evaluations

    def test_panel_budget(self):
        value, est, _, _, evaluations, complete = oracle._gk21_adaptive(
            _panel_rule(lambda u: np.cos(300.0 * u)), np.array([0.0]),
            np.array([1.0]), 1e-13, 1e-13, 3)
        assert not complete
        assert evaluations == 21 * 3 and math.isfinite(value)
        assert abs(value - math.sin(300.0) / 300.0) <= est
        value, est, _, _, evaluations, complete = oracle._gk21_adaptive(
            _panel_rule(np.cos), np.linspace(0.0, 1.0, 5)[:-1],
            np.linspace(0.0, 1.0, 5)[1:], 1e-13, 1e-13, 3)
        assert not complete and evaluations == 0
        assert math.isnan(value) and est == math.inf


@pytest.mark.parametrize("x,rho", [(0.4, 0.005), (1.0, 0.02)])
def test_midplane_decomposition(x, rho):
    """exp(-rho/2) F = -2 I1 + 2 I2 + Is: the leftover saddle part must sit
    inside 3 e^-M / M."""
    pt = EvalPoint(x, rho, 0.0)
    f = oracle_F(pt, abs_tol=1e-13).value
    i1 = oracle_I1_alpha(pt).value
    i2 = oracle_I2(pt).value
    saddle_resid = math.exp(-0.5 * rho) * f + 2.0 * i1 - 2.0 * i2
    assert abs(saddle_resid) <= 3.0 * math.exp(-pt.M) / pt.M


@pytest.mark.parametrize("x,rho", [(0.4, 0.005), (1.0, 0.02)])
@pytest.mark.parametrize("frac", [0.1, 0.25, 0.4])
def test_oblique_decomposition(x, rho, frac):
    """Same split for alpha > 0; the saddle part obeys the oscillatory
    envelope sqrt(pi/M) e^{-(M - rho/2) cos alpha} within a factor 3."""
    alpha = frac * math.pi
    pt = EvalPoint(x, rho, alpha)
    f = oracle_F(pt, abs_tol=1e-13).value
    i1 = oracle_I1_alpha(pt).value
    i2 = oracle_I2(pt).value
    saddle_resid = math.exp(-0.5 * rho) * f + 2.0 * i1 - 2.0 * i2
    envelope = math.sqrt(math.pi / pt.M) * math.exp(
        -(pt.M - 0.5 * rho) * math.cos(alpha))
    assert abs(math.exp(0.5 * rho) * saddle_resid) <= 3.0 * envelope


# (x, M, alpha / pi); the first is where the QAGS version of oracle_I1_alpha
# was off by 8.9e-14 against an estimate of 9.9e-15
MP_POINTS = [(1.0, 100.0, 0.0), (0.4, 8.0, 0.25), (3.0, 4.5, 0.3),
             (2.7, 48.24, 0.5), (1.063, 424.1, 0.129)]


def _mp_geometry(x, M, alpha_over_pi):
    mp = pytest.importorskip("mpmath")
    x, M = mp.mpf(x), mp.mpf(M)
    alpha = mp.pi * mp.mpf(alpha_over_pi)
    return mp, x, x * x / (4 * M), mp.cos(alpha / 2), mp.sin(alpha / 2), mp.tan(alpha / 2)


def _mp_i1(x, M, alpha_over_pi):
    # the branch-cut integral in theta (tau = p sin theta) at 30 digits
    mp, x, rho, c, s, _ = _mp_geometry(x, M, alpha_over_pi)
    with mp.workdps(30):
        return mp.quad(lambda t: mp.exp(-rho * mp.sin(t) ** 2) * mp.sin(x * c * mp.sin(t))
                       * mp.cos(x * s * mp.cos(t)), mp.linspace(0, mp.pi / 2, 5))


def _mp_i2(x, M, alpha_over_pi):
    # the imaginary-axis integral at 30 digits, split where its panels double
    mp, x, rho, c, s, t = _mp_geometry(x, M, alpha_over_pi)
    with mp.workdps(30):
        p = 2 * rho / x
        xi0 = 2 * M * c * (1 - p * p * t * t / 2) / x
        edges, edge = [mp.mpf(0)], 1 / (x * c)
        while edge < xi0:
            edges.append(edge)
            edge *= 2
        return mp.quad(lambda xi: mp.exp(rho * xi * xi - x * c * xi)
                       * mp.cos(s * x * mp.sqrt(1 + xi * xi)) / mp.sqrt(1 + xi * xi),
                       edges + [xi0])


@pytest.mark.parametrize("integral,reference", [(oracle_I1_alpha, _mp_i1),
                                                (oracle_I2, _mp_i2)])
@pytest.mark.parametrize("x,M,alpha_over_pi", MP_POINTS)
def test_i1_and_i2_within_their_estimates_of_mpmath(integral, reference, x, M,
                                                    alpha_over_pi):
    got = integral(EvalPoint(x, x * x / (4.0 * M), alpha_over_pi * math.pi))
    want = float(reference(x, M, alpha_over_pi))
    assert abs(got.value - want) <= got.abs_error_estimate


def test_i2_small_rho_limit():
    # as rho -> 0 with x fixed (alpha = 0), I2 -> (pi/2) Kscal_0(x) with a
    # relative defect of order 1/M
    x = 0.4
    M = 50.0
    pt = EvalPoint(x, x * x / (4.0 * M), 0.0)
    i2 = oracle_I2(pt).value
    limit = 0.5 * math.pi * specfun.struve_k_scaled(0, x).value
    assert abs(i2 / limit - 1.0) <= 1.0 / M


def test_i1_degenerate_integrand_is_zero():
    # for x -> 0 the sine factor kills the integrand; at tiny x the integral
    # scale follows x
    pt = EvalPoint(1e-8, 0.005, 0.0)
    assert abs(oracle_I1_alpha(pt).value) <= 1e-8


class TestOracleCk:
    def test_table_entry_runs(self):
        r = oracle_Ck(2, 0.7, 0.25 * math.pi)
        assert math.isfinite(r.value)
        assert r.evaluations > 0

    def test_reduces_to_midplane_at_alpha0(self):
        # with s = 0, c = 1 the cosine factor is 1 and C_k(x, 0) = C_k(x)
        got = oracle_Ck(0, 1.0, 0.0).value
        want = specfun.struve_k_scaled(0, 1.0).value
        assert abs(got - want) <= 1e-12

    def test_small_x_log_growth(self):
        # C_0(x, 0) ~ -(2/pi) ln x as x -> 0
        c_a = oracle_Ck(0, 1e-2, 0.0).value
        c_b = oracle_Ck(0, 1e-3, 0.0).value
        got = c_b - c_a
        want = (2.0 / math.pi) * math.log(10.0)
        assert abs(got / want - 1.0) <= 0.10

    @pytest.mark.parametrize("x", [0.05, 1.0, 2.9])
    @pytest.mark.parametrize("alpha_over_pi", [0.2, 0.5])
    @pytest.mark.parametrize("k", [0, 7, 29, 30])
    def test_oblique_against_mpmath(self, k, x, alpha_over_pi):
        # the t-form at 20 digits by mpmath's tanh-sinh rule, split where
        # the integrand turns over near t = x and along the moment bump
        mp = pytest.importorskip("mpmath")
        alpha = alpha_over_pi * math.pi
        with mp.workdps(20):
            X, A = mp.mpf(x), mp.mpf(alpha)
            c, s = mp.cos(A / 2), mp.sin(A / 2)

            def f(t):
                root = mp.sqrt(X * X + t * t)
                return t ** (2 * k) * mp.exp(-c * t) * mp.cos(s * root) / root

            cuts = [mp.mpf(0), X / 4, X, 4 * X] + [
                mp.mpf(w) / c for w in (16, 40, 80, 130)] + [mp.inf]
            want = 2 / mp.pi * mp.quad(f, sorted(cuts))
        c = math.cos(0.5 * alpha)
        envelope = (2.0 / math.pi) * math.factorial(2 * k) / (x * c ** (2 * k + 1))
        got = oracle_Ck(k, x, alpha)
        assert abs(got.value - float(want)) <= 1e-14 * envelope
        # the estimate, rounding bound included, covers the error; 1e-18 of
        # the envelope is slack for the 20-digit reference
        assert abs(got.value - float(want)) <= got.abs_error_estimate + 1e-18 * envelope

    @pytest.mark.parametrize("x,alpha_over_pi,nodes,pinned", [
        (0.01, 0.0, 735, ["0x1.8183602509091p+1", "0x1.45e15c695da00p-1",
                          "0x1.d8931abb44889p+31", "0x1.c853564e7c857p+253",
                          "0x1.7d3c9fc18e2bep+265"]),
        (0.01, 0.5, 798, ["0x1.814646adff424p+1", "-0x1.3bc63391cf5c5p-13",
                          "0x1.15f145133c044p+13", "-0x1.6f02a957b9752p+231",
                          "-0x1.7d3c9a463395dp+265"]),
        (0.37, 0.45, 672, ["0x1.ac990c30f7400p-1", "0x1.56f6ad33e90f9p-5",
                           "-0x1.a551c5c762104p+31", "-0x1.c2e3ea463fcb6p+253",
                           "0x1.cefdbbdb1b4c8p+254"]),
        (1.0, 0.2, 609, ["0x1.cc473c8ac5f9dp-2", "0x1.6f27f80b13c4bp-2",
                         "-0x1.1882d9bdfe6a9p+30", "0x1.722725087ce7bp+253",
                         "0x1.7d7fbf5153384p+265"]),
        (3.0, 0.0, 567, ["0x1.9463e25460f56p-3", "0x1.3c9ef91843ae9p-2",
                         "0x1.cbb462bdaa62bp+31", "0x1.c7af05f89d9a0p+253",
                         "0x1.7cbc8dfc38a2fp+265"]),
        (3.0, 0.45, 651, ["-0x1.04573cd42a598p-3", "-0x1.aa3ae17a80300p-2",
                          "-0x1.a69b2d2dd22d5p+31", "-0x1.ce7bfa8a86cf2p+253",
                          "0x1.eb25013d781f5p+260"]),
    ])
    def test_coefficients_pinned(self, x, alpha_over_pi, nodes, pinned):
        # C_0, C_1, C_7, C_29 and C_30 and the node count as the table gave
        # them when it also integrated the t-form on the same mesh (whose
        # evaluations counted both forms, twice these): the table now
        # integrates one form and must reproduce them bit for bit
        oracle_Ck.cache_clear()
        got = [oracle_Ck(k, x, alpha_over_pi * math.pi) for k in (0, 1, 7, 29, 30)]
        assert [r.value.hex() for r in got] == pinned
        assert {r.evaluations for r in got} == {nodes}

    @pytest.mark.parametrize("x,alpha", [(1.0, 0.0), (0.01, 0.45 * math.pi),
                                         (3.0, 0.5 * math.pi)])
    def test_rounding_bound_covers_the_integrand(self, x, alpha):
        # per panel of the initial mesh, the rule's rounding bound against
        # the Kronrod sum of |integrand in doubles - integrand at 30 digits|
        # at the same (double) nodes
        mp = pytest.importorskip("mpmath")
        c, s = math.cos(0.5 * alpha), math.sin(0.5 * alpha)
        near = oracle._doubling_edges(x * c, 4.0)
        a = np.concatenate([near[:-1], oracle._CK_FAR_EDGES[:-1]])
        b = np.concatenate([near[1:], oracle._CK_FAR_EDGES[1:]])
        ks = [0, 1, 7, 30]
        h, w, weights = oracle._ck_nodes(a, b)
        weights = weights[ks]
        r = np.sqrt(1.0 + (w / (x * c)) ** 2)
        f = weights * (np.cos(s * x * r) / r)
        noise = oracle._ck_rule(x, c, s)(a, b)[3][ks]
        exact = np.empty_like(f)
        with mp.workdps(30):
            X, C, S = mp.mpf(x), mp.mpf(c), mp.mpf(s)
            for (p, i), wv in np.ndenumerate(w):
                W = mp.mpf(wv)
                R = mp.sqrt(1 + (W / (X * C)) ** 2)
                g, log_w = mp.cos(S * X * R) / R, mp.log(W)
                for j, k in enumerate(ks):
                    exact[j, p, i] = float(mp.exp(2 * k * log_w - W) * g)
        deviation = np.abs(f - exact) @ oracle._GK21_KRONROD * h
        assert (deviation <= noise).all()
        assert (noise <= 1e-12 * oracle._ck_mass(h, weights)).all()

    def test_value_independent_of_request_order(self):
        x, alpha = 0.83, 0.37 * math.pi
        oracle_Ck.cache_clear()
        last_first = [oracle_Ck(k, x, alpha).value for k in range(30, -1, -1)][::-1]
        oracle_Ck.cache_clear()
        first_first = [oracle_Ck(k, x, alpha).value for k in range(31)]
        oracle_Ck.cache_clear()
        again = [oracle_Ck(k, x, alpha).value for k in range(31)]
        assert last_first == first_first == again

    def test_cache_clear_empties_the_table_cache(self):
        oracle_Ck(3, 0.91, 0.2)
        assert oracle_Ck.cache_info().currsize > 0
        oracle_Ck.cache_clear()
        assert oracle_Ck.cache_info().currsize == 0

    def test_top_coefficient_finite_at_small_x(self):
        r = oracle_Ck(30, 1e-3, 0.0)
        assert math.isfinite(r.value) and math.isfinite(r.abs_error_estimate)

    def test_one_table_serves_every_k(self):
        oracle_Ck.cache_clear()
        results = [oracle_Ck(k, 1.7, 0.4) for k in range(31)]
        info = oracle_Ck.cache_info()
        assert (info.misses, info.hits) == (1, 30)
        assert len({r.evaluations for r in results}) == 1

    def test_panel_cap_raises(self, monkeypatch):
        monkeypatch.setattr(oracle, "MAX_CK_PANELS", 20)
        oracle_Ck.cache_clear()
        with pytest.raises(AccuracyError, match="panels"):
            oracle_Ck(0, 1.3, 0.6)
        assert oracle_Ck.cache_info().currsize == 0

    def test_stalled_coefficient_raises(self, monkeypatch):
        gk21 = oracle._ck_gk21

        def stalling(*args):
            value, err, floor = gk21(*args)
            floor[4] *= 1e6     # rounding no bisection can lower, C_4 only
            return value, err, floor

        monkeypatch.setattr(oracle, "_ck_gk21", stalling)
        oracle_Ck.cache_clear()
        try:
            assert math.isfinite(oracle_Ck(3, 1.1, 0.5).value)
            with pytest.raises(AccuracyError, match="C_4.*quadrature stalled") as exc:
                oracle_Ck(4, 1.1, 0.5)
            assert math.isfinite(exc.value.value) and exc.value.error_estimate > 0.0
        finally:
            oracle_Ck.cache_clear()

    @pytest.mark.parametrize("x,alpha", [(1.1, 0.5), (0.01, 1.5), (3.0, 0.0)])
    def test_first_pass_nodes_equal_the_inline_mesh(self, monkeypatch, x, alpha):
        # the constant block of the panels on [4, W] and the panels below 4
        # together give the nodes and weights of the whole initial mesh,
        # formed inline, bit for bit
        lam = x * math.cos(0.5 * alpha)
        edges = [0.0]
        while lam < 4.0:
            edges.append(lam)
            lam *= 2.0
        edges = np.array(edges + list(np.linspace(4.0, oracle._CK_CUT, 26)))
        a, b = edges[:-1], edges[1:]
        h = 0.5 * (b - a)
        w = (0.5 * (a + b))[:, None] + h[:, None] * oracle._GK21_NODES
        want = (h, w, w ** oracle._CK_POWERS[:, None, None] * np.exp(-w))
        seen = []
        gk21 = oracle._ck_gk21

        def recording(*args):
            seen.append(args[:3])
            return gk21(*args)

        monkeypatch.setattr(oracle, "_ck_gk21", recording)
        oracle_Ck.cache_clear()
        try:
            oracle_Ck(0, x, alpha)
        finally:
            oracle_Ck.cache_clear()
        for got, ref in zip(seen[0], want):
            assert got.shape == ref.shape
            assert got.tobytes() == ref.tobytes()

    def test_validation(self):
        with pytest.raises(DomainError):
            oracle_Ck(31, 1.0, 0.0)
        with pytest.raises(DomainError):
            oracle_Ck(0, -1.0, 0.0)
        with pytest.raises(DomainError):
            oracle_Ck(0, 1.0, -0.1)
        # numbers past the double range or too long to print, and NaN
        for args, match in [((0, 10 ** 400, 0.2), "x must be finite"),
                            ((0, 1.0, 10 ** 5000), "alpha must be finite"),
                            ((0, 1.0, math.nan), "alpha must be finite"),
                            ((0, math.inf, 0.2), "x must be finite")]:
            with pytest.raises(DomainError, match=match):
                oracle_Ck(*args)


class TestMomentIdentity:
    def test_closed_form_case(self):
        # k=0, mu=1, M=1, p=1: both sides are (1 - e^-1)/2
        lhs, rhs = oracle_moment_identity(0, 1.0, 1.0, 1.0)
        want = 0.5 * (1.0 - math.exp(-1.0))
        assert lhs == pytest.approx(want, rel=1e-13)
        assert rhs == pytest.approx(want, rel=1e-13)

    @pytest.mark.parametrize("k,mu,M,p", [
        (1, 0.5, 8.0, 0.05),
        (3, 2.5, 12.5, 0.04),
        (1, 0.25, 8.0, 0.05),
        (0, 0.01, 5.0, 1.0),
    ])
    def test_quadrature_matches_series(self, k, mu, M, p):
        lhs, rhs = oracle_moment_identity(k, mu, M, p)
        assert abs(lhs - rhs) <= 1e-12 * abs(rhs)

    def test_validation(self):
        with pytest.raises(DomainError):
            oracle_moment_identity(21, 1.0, 1.0, 1.0)
        with pytest.raises(DomainError):
            oracle_moment_identity(0, 0.0, 1.0, 1.0)
        with pytest.raises(DomainError):
            oracle_moment_identity(0, math.nan, 1.0, 1.0)
