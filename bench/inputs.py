"""Benchmark inputs: the field-sweep grid, the cold-point pool and the
certification grid.

This module imports nothing from kelvinwake, so the independent reference
(reference.py) and the benchmark itself (run.py) build exactly the same
floating-point inputs from it.

Cold-point pool
    log10 M is cut into N_BINS equal bins over [M_LO, M_HI].  Every bin
    holds families: one (x, rho) pair with M = x^2/(4 rho) inside the bin,
    and one |alpha| per slot.  Slots 0-3 draw |alpha|/pi uniformly from
    (0, 0.45]; slot 4 is the near-pi/2 slot, |alpha|/pi in [0.49, 0.5) on
    even families and exactly 0.5 on odd ones.  The sign of alpha is drawn
    too.  A family shares (x, rho) only so that the reference can reuse its
    Bessel products; the benchmark draws each (bin, slot) on its own.
    The pool is fixed (POOL_SEED); the benchmark's --seed chooses which
    members of each (bin, slot) a run uses and in what order.
"""

from __future__ import annotations

import math
import random

# ---------------------------------------------------------------------------
# field sweep: 6 `kelvinwake field` grid calls, 1584 points per sweep

FIELD_X_RANGE = "0.25:3:12"
# a 12-point log grid of rho from 1e-3 to 1, two neighbouring values per
# call (the CLI's ranges are linear, so each call spans one sixth of the
# decades); M = x^2/(4 rho) then runs from 0.016 to 2250
FIELD_RHOS = tuple(10.0 ** (-3.0 + 3.0 * i / 11.0) for i in range(12))
FIELD_ALPHA_PI = "-0.5:0.5:11"


def linspace(spec):
    """start:stop:count as `kelvinwake field` expands it."""
    a, b, n = spec.split(":")
    a, b, n = float(a), float(b), int(n)
    if n == 1:
        return [a]
    step = (b - a) / (n - 1)
    return [a + i * step for i in range(n)]


def field_rho_ranges():
    return [f"{FIELD_RHOS[i]!r}:{FIELD_RHOS[i + 1]!r}:2"
            for i in range(0, len(FIELD_RHOS), 2)]


def field_calls():
    """argv lists for kelvinwake.cli.main, one per call of a sweep.

    Each call is an x by rho by alpha grid; every (x, |alpha|) column
    repeats over the rho values of a call, over the calls of a sweep and
    over the +/-alpha pairs.
    """
    return [["field", "--x-range", FIELD_X_RANGE, "--rho-range", rhos,
             f"--alpha-pi-range={FIELD_ALPHA_PI}", "--format", "json"]
            for rhos in field_rho_ranges()]


def field_points():
    """Every (x, rho, alpha) of a sweep, call by call, in CLI order."""
    alphas = [a * math.pi for a in linspace(FIELD_ALPHA_PI)]
    return [[(x, rho, alpha) for x in linspace(FIELD_X_RANGE)
             for rho in linspace(rhos) for alpha in alphas]
            for rhos in field_rho_ranges()]


# ---------------------------------------------------------------------------
# cold-point pool

M_LO, M_HI = 0.02, 2000.0
N_BINS = 30
SLOTS = 5
NEAR_SLOT = 4
POOL_SEED = 1507_02193


def bin_edges(b):
    lo, hi = math.log10(M_LO), math.log10(M_HI)
    w = (hi - lo) / N_BINS
    return 10.0 ** (lo + b * w), 10.0 ** (lo + (b + 1) * w)


#: Route regimes as bin ranges.  paris_F needs M >= 6 (and M c^2 > 1,
#: which then always holds); bessho_F stays below M = 25, where its 1e12
#: cancellation guard is still far away (it trips near M = 31).
ROUTE_BINS = {
    "paris": range(15, N_BINS),      # M from 6.3 to 2000
    "bessho": range(0, 18),          # M from 0.02 to 25
    "oracle": range(0, N_BINS),      # the whole box
}


def families_per_bin(b):
    # below M = 25 the reference is cheap, and a cold-bessho run draws about
    # a hundred passing inputs from every stratum, where most near-pi/2
    # inputs of bins 15-17 fail: so many families that a run repeats none
    return 768 if b < 18 else 24


def pool_families():
    """[(bin, family, x, rho, [alpha per slot])], deterministic."""
    rng = random.Random(POOL_SEED)
    out = []
    for b in range(N_BINS):
        lo, hi = bin_edges(b)
        for f in range(families_per_bin(b)):
            M = 10.0 ** rng.uniform(math.log10(lo), math.log10(hi))
            x = rng.uniform(0.05, min(3.0, 2.0 * math.sqrt(M)))
            rho = x * x / (4.0 * M)
            alphas = []
            for slot in range(SLOTS):
                if slot == NEAR_SLOT:
                    a = 0.5 if f % 2 else 0.5 - 0.01 * rng.random()
                else:
                    a = 0.45 * (1.0 - rng.random())
                sign = -1.0 if rng.random() < 0.5 else 1.0
                alphas.append(sign * a * math.pi)
            out.append((b, f, x, rho, alphas))
    return out


# ---------------------------------------------------------------------------
# certification

#: verify_remainder grid: x = 1, M from 8 to 2000, three angles, three n.
CERT_M = (8.0, 30.0, 100.0, 400.0, 2000.0)
CERT_ALPHA_PI = (0.0, 0.2, 0.45)
CERT_N = (1, 8, 30)


def cert_points():
    """[(x, rho, alpha, n)] for bounds.verify_remainder."""
    return [(1.0, 1.0 / (4.0 * M), a * math.pi, n)
            for M in CERT_M for a in CERT_ALPHA_PI for n in CERT_N]


def inc_gamma_grid():
    """The (a, chi) grid of the `kelvinwake bounds` subcommand."""
    return [(a, chi) for chi in [1.0 + 49.0 * i / 49.0 for i in range(50)]
            for a in [chi * j / 49.0 for j in range(50)]]


#: The printed reference residual table: (alpha/pi, x, rho, |curly F|,
#: printed index n; n + 1 asymptotic terms), copied from the paper.
TABLE1 = (
    (0.00, 0.40, 0.005, 6.368e-6, 8),
    (0.00, 1.00, 0.020, 2.613e-7, 12),
    (0.10, 0.40, 0.005, 3.146e-6, 5),
    (0.10, 1.00, 0.020, 1.998e-6, 12),
    (0.20, 0.40, 0.005, 3.146e-6, 6),
    (0.20, 1.00, 0.020, 1.899e-5, 11),
    (0.25, 0.40, 0.005, 4.687e-3, 5),
    (0.25, 1.00, 0.020, 1.428e-5, 9),
    (0.30, 0.40, 0.005, 2.976e-3, 3),
    (0.30, 1.00, 0.020, 2.890e-4, 9),
    (0.40, 0.40, 0.005, 4.326e-2, 1),
    (0.40, 1.00, 0.020, 7.928e-4, 8),
)


def key(x, rho, alpha):
    """Lookup key of a reference value; F is even in alpha."""
    return f"{x:.13e}|{rho:.13e}|{abs(alpha):.13e}"
