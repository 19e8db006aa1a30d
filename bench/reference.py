"""Independent reference values for the benchmark, computed with mpmath.

Nothing here imports kelvinwake.  Two methods evaluate F(x, rho, alpha):

* the Bessel product series K0(rho/2) J0(x) + 2 sum (-1)^m cos(m alpha)
  K_m(rho/2) J_2m(x), summed at a working precision of log10(peak term)
  + GUARD digits, so its e^M/M cancellation costs nothing.  K_m comes from
  the stable upward recurrence, J_n from Miller's backward recurrence
  normalised by J0 + 2 sum J_2k = 1.  The products do not depend on
  alpha, so each (x, rho) pair pays for them once;
* direct quadrature of the defining integral, used to cross-check the
  first on points away from |alpha| = pi/2.

For the certification workload it also computes the residual table
(F + pi e^-rho/2 S1 - pi e^rho/2 sum_k M^-k/(4^k k!) C_k, with C_k and the
Struve sum S1 from their integral and series definitions) and the worst
ratio Gamma(a, chi) / (2 chi^a e^-chi) over the bounds grid.

Regenerate the committed data/reference.json.gz (about 3 minutes on one
core):

    python3 bench/reference.py

and then the pool curation, which does run the program:

    python3 bench/curate.py
"""

from __future__ import annotations

import gzip
import json
import math
import os
import sys
import time

import mpmath as mp

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import inputs  # noqa: E402

GUARD = 35
DATA = os.path.join(os.path.dirname(os.path.abspath(__file__)), "data")


def _log10_term(m, M):
    """log10 of the size of the m-th product term, from the leading
    behaviour K_m(z) ~ (m-1)!/2 (2/z)^m and J_2m(x) ~ (x/2)^2m/(2m)!."""
    if m == 0:
        return 0.0
    return (math.lgamma(m) - math.lgamma(2 * m + 1) + m * math.log(4.0 * M)
            - math.log(2.0)) / math.log(10.0)


def _plan(M, digits, guard):
    """(terms N, working decimal digits) for a product series at this M."""
    peak = 0.0
    m = 1
    while True:
        lt = _log10_term(m, M)
        peak = max(peak, lt)
        if m > M + 10 and lt < -(digits + 5):
            return m + 10, int(peak) + guard
        m += 1


def _k01(z):
    """(K0(z), K1(z)) from the ascending series of I0, I1 and K0 and the
    Wronskian I0 K1 + I1 K0 = 1/z (mpmath's besselk spends seconds on
    Bernoulli numbers at a thousand digits)."""
    q = z * z / 4
    eps = mp.mpf(2) ** (-mp.mp.prec - 10)
    t = mp.mpf(1)           # q^k / k!^2
    harmonic = mp.mpf(0)
    i0 = mp.mpf(1)
    i1 = mp.mpf(1)          # sum q^k / (k! (k+1)!), times z/2 below
    s = mp.mpf(0)
    k = 0
    while True:
        k += 1
        t = t * q / (k * k)
        harmonic += mp.mpf(1) / k
        i0 += t
        i1 += t / (k + 1)
        s += harmonic * t
        if t < eps:
            break
    i1 *= z / 2
    k0 = -(mp.log(z / 2) + mp.euler) * i0 + s
    return k0, (1 / z - i1 * k0) / i0


def bessho_products(x, rho, digits=30, guard=GUARD):
    """Terms P_0 = K0 J0 and P_m = 2 (-1)^m K_m(rho/2) J_2m(x), with the
    working precision they were computed at."""
    M = x * x / (4.0 * rho)
    N, dps = _plan(M, digits, guard)
    with mp.workdps(dps):
        X = mp.mpf(x)
        z = mp.mpf(rho) / 2
        top = 2 * N + 60
        jn1, jn = mp.mpf(0), mp.mpf(1)
        J = [None] * (2 * N + 1)
        tox = 2 / X
        nn = mp.mpf(top)
        for n in range(top, 0, -1):
            jm = nn * tox * jn - jn1
            jn1, jn = jn, jm
            nn -= 1
            if n - 1 <= 2 * N:
                J[n - 1] = jm
        norm = J[0] + 2 * mp.fsum(J[2::2])
        inv = 1 / norm
        kprev, kcur = _k01(z)
        P = [kprev * J[0] * inv]
        two_over_z = 2 / z
        mm = mp.mpf(0)
        for m in range(1, N + 1):
            if m > 1:
                kprev, kcur = kcur, kprev + mm * two_over_z * kcur
            mm += 1
            t = 2 * kcur * J[2 * m] * inv
            P.append(-t if m % 2 else t)
    return P, dps


def bessho_sum(P, dps, alpha):
    """(value, uncertainty) of F from the products at one alpha."""
    with mp.workdps(dps):
        A = mp.mpf(alpha)
        ca = mp.cos(A)
        two_ca = 2 * ca
        c_prev, c = mp.mpf(1), ca
        total = P[0]
        size = abs(P[0])
        for m in range(1, len(P)):
            if m > 1:
                c_prev, c = c, two_ca * c - c_prev
            t = c * P[m]
            total += t
            size += abs(t)
        n = len(P)
        # rounding in the recurrences and the sum, plus the omitted tail
        err = size * mp.mpf(10) ** (-dps) * n * n + 10 * abs(P[-1])
        return total, err


def quad_F(x, rho, alpha, dps=30):
    """F by quadrature of the defining integral (cross-check only; slow
    near |alpha| = pi/2, where the envelope no longer decays)."""
    with mp.workdps(dps):
        X, R, A = mp.mpf(x), mp.mpf(rho), mp.mpf(alpha)
        k1 = R / 2 * mp.cos(A)
        k2 = R / 2 * mp.sin(A)
        U = mp.acosh(max(2 * (dps * mp.log(10) + 10) / k1, 2)) / 2

        def f(u):
            return (mp.exp(-k1 * mp.cosh(2 * u)) * mp.cos(k2 * mp.sinh(2 * u))
                    * mp.cos(X * mp.cosh(u)))

        # split at every half period of the faster phase
        phase = k2 * mp.sinh(2 * U) + X * mp.cosh(U)
        pieces = max(8, int(phase / mp.pi) + 8)
        nodes = [U * i / pieces for i in range(pieces + 1)]
        return 2 * mp.quad(f, nodes)


def _hi_lo(v):
    hi = float(v)
    lo = float(v - hi)
    return hi, lo


def _record(x, rho, alpha, value, err):
    hi, lo = _hi_lo(value)
    return {"x": x, "rho": rho, "alpha": alpha, "hi": hi, "lo": lo,
            "err": float(err)}


def reference_points(groups, log=None):
    """groups: [(x, rho, [alphas])] -> [record], one per alpha."""
    out = []
    for i, (x, rho, alphas) in enumerate(groups):
        P, dps = bessho_products(x, rho)
        seen = {}
        for a in alphas:
            if abs(a) not in seen:
                seen[abs(a)] = bessho_sum(P, dps, abs(a))
            v, e = seen[abs(a)]
            out.append(_record(x, rho, a, v, e))
        if log and i % 50 == 0:
            log(f"  {i}/{len(groups)} M={x * x / (4 * rho):.4g}")
    return out


# ---------------------------------------------------------------------------
# certification references


def ck_ref(k, x, alpha, dps=30):
    """C_k(x, alpha) = (2/pi) x^2k int_0^inf xi^2k e^(-x c xi)
    cos(s x sqrt(1+xi^2)) / sqrt(1+xi^2) dxi."""
    with mp.workdps(dps):
        X = mp.mpf(x)
        c = mp.cos(mp.mpf(alpha) / 2)
        s = mp.sin(mp.mpf(alpha) / 2)
        lam = X * c

        def f(xi):
            r = mp.sqrt(1 + xi * xi)
            return xi ** (2 * k) * mp.exp(-lam * xi) * mp.cos(s * X * r) / r

        peak = 2 * k / lam
        nodes = [0] + [peak * j / 2 for j in range(1, 7) if k] + [mp.inf]
        return 2 / mp.pi * X ** (2 * k) * mp.quad(f, nodes)


def struve_s1_ref(x, rho, alpha, dps=30):
    """S1 = sum_r (rho^r/r!) sum_m ((-1)^m (m+1/2)_r / m!) (xs/2)^2m
    Hscal_{m+r}(xc), Hscal_j(y) = (y/2)^-j H_j(y)."""
    with mp.workdps(dps):
        X, R = mp.mpf(x), mp.mpf(rho)
        c = mp.cos(mp.mpf(alpha) / 2)
        s = mp.sin(mp.mpf(alpha) / 2)
        y = X * c
        h = {}

        def hscal(j):
            if j not in h:
                h[j] = (y / 2) ** (-j) * mp.struveh(j, y)
            return h[j]

        total = mp.mpf(0)
        for r in range(200):
            block = mp.mpf(0)
            for m in range(200):
                t = (R ** r / mp.factorial(r) * (-1) ** m * mp.rf(m + 0.5, r)
                     / mp.factorial(m) * (X * s / 2) ** (2 * m) * hscal(m + r))
                block += t
                if m > 2 and abs(t) < mp.mpf(10) ** (-dps):
                    break
            total += block
            if r > 2 and abs(block) < mp.mpf(10) ** (-dps):
                return total
        raise RuntimeError("S1 did not converge")


def table_refs():
    rows = []
    for a_pi, x, rho, printed, idx in inputs.TABLE1:
        alpha = a_pi * math.pi
        M = x * x / (4.0 * rho)
        P, dps = bessho_products(x, rho)
        F, ferr = bessho_sum(P, dps, alpha)
        with mp.workdps(30):
            s1 = struve_s1_ref(x, rho, alpha)
            asym = mp.fsum(mp.mpf(M) ** (-k) / (4 ** k * mp.factorial(k))
                           * ck_ref(k, x, alpha) for k in range(idx + 1))
            R = mp.mpf(rho)
            res = F + mp.pi * mp.exp(-R / 2) * s1 - mp.pi * mp.exp(R / 2) * asym
        rows.append({"alpha_over_pi": a_pi, "x": x, "rho": rho,
                     "n_terms": idx + 1, "residual": float(res),
                     "err": float(ferr) + 1e-25})
    return rows


def inc_gamma_ref():
    worst = mp.mpf(0)
    with mp.workdps(25):
        for a, chi in inputs.inc_gamma_grid():
            A, C = mp.mpf(a), mp.mpf(chi)
            r = mp.gammainc(A, C) / (2 * C ** A * mp.exp(-C))
            worst = max(worst, r)
    return float(worst)


# ---------------------------------------------------------------------------


def cross_check(log):
    """Bessel products against direct quadrature on pool points with
    M <= 200 and |alpha| <= 0.45 pi, and against a second run at +20 digits.
    Returns the worst differences seen."""
    fams = [f for f in inputs.pool_families() if f[2] * f[2] / (4 * f[3]) <= 200]
    picked = fams[:: max(1, len(fams) // 24)]
    worst_q = 0.0
    for (_b, _f, x, rho, alphas) in picked:
        a = alphas[0]
        P, dps = bessho_products(x, rho)
        v, _ = bessho_sum(P, dps, a)
        q = quad_F(x, rho, a)
        worst_q = max(worst_q, float(abs(v - q)))
    worst_p = 0.0
    for (_b, _f, x, rho, alphas) in picked[::4] + [fams[-1]]:
        a = alphas[4]
        v1, _ = bessho_sum(*bessho_products(x, rho), a)
        v2, _ = bessho_sum(*bessho_products(x, rho, guard=GUARD + 20), a)
        worst_p = max(worst_p, float(abs(v1 - v2)))
    log(f"cross-check: {len(picked)} points, |products - quadrature| <= "
        f"{worst_q:.3g}; +20 digits changes values by <= {worst_p:.3g}")
    return {"points": len(picked), "max_abs_diff_quadrature": worst_q,
            "max_abs_diff_precision": worst_p}


def main():
    def log(msg):
        print(msg, file=sys.stderr, flush=True)

    os.makedirs(DATA, exist_ok=True)
    t0 = time.perf_counter()
    log("field grid")
    groups = {}
    for call in inputs.field_points():
        for x, rho, alpha in call:
            groups.setdefault((x, rho), []).append(alpha)
    field = reference_points([(x, r, a) for (x, r), a in groups.items()], log)
    log("cold-point pool")
    pool = reference_points([(x, r, al) for (_b, _f, x, r, al) in inputs.pool_families()],
                            log)
    log("table and incomplete gamma")
    table = table_refs()
    gamma = inc_gamma_ref()
    check = cross_check(log)
    out = {"generated_by": "python3 bench/reference.py",
           "mpmath": mp.__version__, "guard_digits": GUARD,
           "cross_check": check, "field": field,
           "pool": pool, "table": table, "inc_gamma_margin": gamma,
           "seconds": round(time.perf_counter() - t0, 1)}
    with gzip.open(os.path.join(DATA, "reference.json.gz"), "wt", encoding="utf-8") as fh:
        json.dump(out, fh, separators=(",", ":"))
        fh.write("\n")
    log(f"done in {time.perf_counter() - t0:.0f} s")


if __name__ == "__main__":
    main()
