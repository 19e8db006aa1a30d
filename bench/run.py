"""kelvinwake benchmark.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs whole rounds of one workload through kelvinwake's public entry points
(kelvinwake.cli.main and the route functions) until S seconds have passed,
checks every value against the independent reference in data/, and prints
one JSON object as its last line:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

--trace 0 reports the end-to-end metrics; --trace 1 replays the rounds of
an untraced stretch with spans installed (tracing.py) and reports the
per-layer metrics and the tracing overhead.  Workloads, metrics and data
are described in README.md.  The program is imported from ../src; nothing
needs to be installed.
"""

from __future__ import annotations

import argparse
import bisect
import contextlib
import gc
import gzip
import io
import json
import math
import os
import random
import statistics
import subprocess
import sys
import types
import warnings
from time import perf_counter

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(BENCH, "out")
SETUP_REPEATS = 5

#: Times are scaled to a machine on which calibrate_loop() takes this long
#: (about the usual speed of the machine the README's figures come from;
#: see README.md, "Machine speed").
CAL_NOMINAL_S = 2.0e-3
CAL_EVERY_S = 0.03

sys.path.insert(0, BENCH)
import inputs  # noqa: E402
import tracing  # noqa: E402


class BenchError(Exception):
    """The workload cannot run to its end."""


# ---------------------------------------------------------------------------
# machine speed


def calibrate_loop():
    """Fixed work of the kind most of the program's time goes to: adaptive
    quadrature (scipy's QUADPACK) calling back into a Python integrand.  It
    follows the machine's slowdowns more closely than pure arithmetic."""
    from scipy.integrate import quad
    for _ in range(40):
        quad(_calibrate_integrand, 0.0, 10.0)


def _calibrate_integrand(t):
    return math.exp(-0.3 * t) * math.cos(3.0 * t)


def speed_factor():
    """CAL_NOMINAL_S over the current time of calibrate_loop (best of two,
    so that one interruption does not count)."""
    best = math.inf
    for _ in range(2):
        t0 = perf_counter()
        calibrate_loop()
        best = min(best, perf_counter() - t0)
    return CAL_NOMINAL_S / best


# ---------------------------------------------------------------------------
# set-up: import the program, load the reference, build the inputs


def import_program():
    if not os.path.isfile(os.path.join(SRC, "kelvinwake", "__init__.py")):
        raise BenchError(f"no kelvinwake package under {SRC}")
    sys.path.insert(0, SRC)
    import kelvinwake
    import kelvinwake.cli
    from kelvinwake import bounds, ddouble, expansions, oracle, specfun, table1
    return types.SimpleNamespace(
        pkg=kelvinwake, cli=kelvinwake.cli, bounds=bounds, ddouble=ddouble,
        expansions=expansions, oracle=oracle, specfun=specfun, table1=table1)


def load_json(name):
    path = os.path.join(BENCH, "data", name)
    try:
        with (gzip.open if name.endswith(".gz") else open)(path, "rt", encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise BenchError(f"cannot read {path}: {exc}") from exc


def setup(workload, seed):
    kw = import_program()
    ref = load_json("reference.json.gz")
    failing = load_json("failing.json")
    wl = WORKLOADS[workload](kw, ref, failing, seed)
    return kw, wl


def measure_setup(workload, seed, repeats):
    """Median of `repeats` set-ups, each in a fresh interpreter so that the
    import is paid every time, scaled by the machine speed measured here
    just before and just after it (in a fresh interpreter the loop's first
    runs are erratic)."""
    times = []
    for _ in range(repeats):
        before = speed_factor()
        proc = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--setup-probe",
             "--workload", workload, "--seed", str(seed)],
            capture_output=True, text=True, timeout=120, check=False)
        if proc.returncode != 0:
            raise BenchError(f"set-up probe failed: {proc.stderr.strip()[-300:]}")
        times.append(float(proc.stdout.split()[-1]) * 0.5 * (before + speed_factor()))
    return statistics.median(times)


def setup_probe(workload, seed):
    """Wall time of one set-up."""
    t0 = perf_counter()
    setup(workload, seed)
    return perf_counter() - t0


# ---------------------------------------------------------------------------
# outcome bookkeeping


class Recorder:
    """Operations attempted and failed, scaled latencies, digits and
    property violations of one stretch of rounds."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.calls = []              # (start, seconds, values delivered, slot)
        self.speed = []              # (time, speed factor)
        self.digits = []
        self.failures = {}
        self.violations = []
        self.stale = 0               # pool inputs that disagree with failing.json

    def calibrate(self):
        """Sample the machine speed if CAL_EVERY_S has passed; call it
        between operations, never inside a timed one."""
        if not self.speed or perf_counter() - self.speed[-1][0] >= CAL_EVERY_S:
            self.speed.append((perf_counter(), speed_factor()))

    def time(self, t0, values, slot):
        """One timed public call that started at t0 and delivered `values`.
        `slot` names the call, or the stratum of the input, that every round
        makes again."""
        self.calls.append((t0, perf_counter() - t0, values, slot))

    def scaled_latencies(self):
        """Call times scaled by the mean of the speed samples just before
        and just after each call."""
        self.calibrate()
        times = [t for t, _ in self.speed]
        out = []
        for t0, dt, _, _ in self.calls:
            i = max(bisect.bisect_right(times, t0) - 1, 0)
            j = min(i + 1, len(times) - 1)
            out.append(dt * 0.5 * (self.speed[i][1] + self.speed[j][1]))
        return out

    def merge(self, other):
        """Add other's operation counts, failures and violations."""
        self.attempted += other.attempted
        self.failed += other.failed
        for why, n in other.failures.items():
            self.failures[why] = self.failures.get(why, 0) + n
        self.violations += other.violations
        self.stale += other.stale

    def fail(self, why):
        self.failed += 1
        self.failures[why] = self.failures.get(why, 0) + 1

    def check_value(self, value, est, r, why, digits=True):
        """One operation that returned value with error estimate est,
        against reference record r."""
        self.attempted += 1
        if value is None or not math.isfinite(value):
            self.fail(why + ": value not finite")
            return
        if digits:
            self.digits.append(digits_of(value, r))
        if est is None or not abs((value - r["hi"]) - r["lo"]) <= est + r["err"]:
            self.fail(why + ": error above its estimate")


def digits_of(value, r):
    """Absolute correct digits of value against reference record r."""
    diff = abs((value - r["hi"]) - r["lo"])
    return -math.log10(max(diff, r["err"], 1e-300))


def clear_ck_cache(kw):
    kw.oracle.oracle_Ck.cache_clear()


# ---------------------------------------------------------------------------
# workloads


class FieldSweep:
    """`kelvinwake field` over the box, called in-process; one round is one
    sweep of 6 grid calls (1584 points), starting from an empty C_k cache
    as a fresh process would.  The grid is fixed; the seed is not used."""

    def __init__(self, kw, ref, failing, seed):
        self.kw = kw
        self.calls = inputs.field_calls()
        self.ref = {inputs.key(r["x"], r["rho"], r["alpha"]): r for r in ref["field"]}
        self.expected = inputs.field_points()
        for pts in self.expected:
            for p in pts:
                if inputs.key(*p) not in self.ref:
                    raise BenchError(f"no reference for field point {p}")

    def shrink(self):
        self.calls, self.expected = self.calls[:1], self.expected[:1]

    def run_round(self, r, rec):
        kw = self.kw
        clear_ck_cache(kw)
        for slot, (argv, expected) in enumerate(zip(self.calls, self.expected)):
            out = io.StringIO()
            rec.calibrate()
            t0 = perf_counter()
            try:
                with contextlib.redirect_stdout(out), \
                        contextlib.redirect_stderr(io.StringIO()):
                    rc = kw.cli.main(argv)
            except Exception as exc:  # failed operations are counted, not raised
                rec.time(t0, 0, slot)
                for _ in expected:
                    rec.attempted += 1
                    rec.fail(f"field raised {type(exc).__name__}")
                continue
            rec.time(t0, len(expected), slot)
            if rc not in (0, 1):
                raise BenchError(f"kelvinwake {' '.join(argv)} exited {rc}")
            self.check_rows(json.loads(out.getvalue())["rows"], expected, rec)

    def check_rows(self, rows, expected, rec):
        got = [(row["x"], row["rho"], row["alpha"]) for row in rows]
        if [inputs.key(*p) for p in got] != [inputs.key(*p) for p in expected]:
            rec.violations.append("field rows do not echo the requested grid")
            return
        by_key = {}
        for row, p in zip(rows, expected):
            r = self.ref[inputs.key(*p)]
            why = f"field {row['method']}"
            if row["status"] != "ok":
                rec.attempted += 1
                rec.fail(f"{why}: {row['status'].split(':')[0]}")
                continue
            rec.check_value(row["value"], row["error_estimate"], r, why)
            by_key.setdefault(inputs.key(*p), []).append(row)
        # F is even in alpha: the +alpha and -alpha rows must agree
        for pair in by_key.values():
            if len(pair) == 2 and pair[0]["alpha"] * pair[1]["alpha"] < 0:
                a, b = pair
                if not abs(a["value"] - b["value"]) <= (a["error_estimate"]
                                                        + b["error_estimate"]):
                    rec.violations.append(f"F not even in alpha at x={a['x']} "
                                          f"rho={a['rho']} alpha={a['alpha']}")


class ColdPoints:
    """Single-point calls of one route at seeded draws from the whole pool
    in the route's regime, each with an empty C_k cache.

    data/failing.json (written by curate.py) splits every stratum of the
    pool into the inputs on which the route fails today and the rest.  One
    round draws one passing input from every (log M bin, alpha stratum)
    and `n_failing` failing ones, each from a stratum chosen with weight
    its failing share.  So failing inputs come in about the share and from
    the strata that a draw uniform over the strata would give, and every
    round fails the same number of operations whatever the seed.  An input
    whose outcome disagrees with the file is counted as it comes out and
    reported as stale."""

    route = None

    def __init__(self, kw, ref, failing, seed):
        self.kw = kw
        fails_at = {i for i, _why in failing["failing"][self.route]}
        bins = inputs.ROUTE_BINS[self.route]
        strata = {}
        pool = ref["pool"]
        i = 0
        for (b, f, x, rho, alphas) in inputs.pool_families():
            for slot in range(inputs.SLOTS):
                r = pool[i]
                if (r["x"], r["rho"], r["alpha"]) != (x, rho, alphas[slot]):
                    raise BenchError("reference pool does not match inputs.py")
                if b in bins:
                    # the near-pi/2 slot is two strata: exactly pi/2 (odd
                    # families) and just below it (even ones)
                    near = f % 2 if slot == inputs.NEAR_SLOT else -1
                    stratum = strata.setdefault((b, slot, near), ([], []))
                    stratum[i in fails_at].append(r)
                i += 1
        rng = random.Random(seed)
        self.strata, self.failing, weights = [], [], []
        for key in sorted(strata):
            passing, fails = strata[key]
            rng.shuffle(passing)
            rng.shuffle(fails)
            if passing:        # a stratum can fail throughout
                self.strata.append((key, passing))
            if fails:
                self.failing.append((key, fails))
                weights.append(len(fails) / (len(passing) + len(fails)))
        share = sum(weights) / len(strata)
        self.n_failing = max(1, round(len(self.strata) * share / (1.0 - share))) \
            if self.failing else 0
        self.fail_rng, self.fail_weights = random.Random(seed), weights
        self.fail_used = [0] * len(self.failing)
        self.fail_seq = []
        self.seed = seed
        self.EvalPoint = kw.oracle.EvalPoint

    def failing_draw(self, j):
        """The j-th failing draw of a run, (stratum, input): a stratum chosen
        by weight, then its next member (they repeat only once a stratum is
        used up)."""
        while len(self.fail_seq) <= j:
            i = self.fail_rng.choices(range(len(self.failing)), self.fail_weights)[0]
            key, members = self.failing[i]
            self.fail_seq.append((key, members[self.fail_used[i] % len(members)]))
            self.fail_used[i] += 1
        return self.fail_seq[j]

    def call(self, pt):
        """(value, error estimate) from the route."""
        raise NotImplementedError

    def shrink(self):
        self.strata = self.strata[::10]

    def draws(self, r):
        """Round r: (stratum, input, fails today) for member r of every
        stratum's passing inputs and the round's n_failing failing draws, in
        an order drawn from the seed and r."""
        out = [(key, members[r % len(members)], False) for key, members in self.strata]
        out += [(*self.failing_draw(r * self.n_failing + i), True)
                for i in range(self.n_failing)]
        random.Random(self.seed * 1_000_003 + r).shuffle(out)
        return out

    def run_round(self, r, rec):
        for key, d, fails in self.draws(r):
            failed = rec.failed
            self.one(d, rec, key)
            if (rec.failed > failed) != fails:
                rec.stale += 1

    def one(self, d, rec, stratum=None):
        pt = self.EvalPoint(d["x"], d["rho"], d["alpha"])
        clear_ck_cache(self.kw)
        rec.calibrate()
        t0 = perf_counter()
        try:
            value, est = self.call(pt)
        except Exception as exc:  # a failed operation is counted, not raised
            rec.time(t0, 1, stratum)
            rec.attempted += 1
            rec.fail(f"{self.route}_F raised {type(exc).__name__}")
            return
        rec.time(t0, 1, stratum)
        rec.check_value(value, est, d, f"{self.route}_F")


class ColdParis(ColdPoints):
    route = "paris"

    def call(self, pt):
        r = self.kw.expansions.paris_F(pt)
        return r.value, r.internal_error_estimate


class ColdBessho(ColdPoints):
    route = "bessho"

    def call(self, pt):
        r = self.kw.expansions.bessho_F(pt)
        return r.value, r.internal_error_estimate


class ColdOracle(ColdPoints):
    route = "oracle"

    def call(self, pt):
        q = self.kw.oracle.oracle_F(pt)
        return q.value, q.abs_error_estimate


class Certify:
    """The paper's verification: the residual table on TABLE1_ROWS,
    verify_remainder on a (point, n) grid up to M = 2000 and the
    incomplete-gamma inequality on the grid of `kelvinwake bounds`.  One
    round is one full certification from an empty C_k cache.  The inputs
    are fixed; the seed is not used."""

    def __init__(self, kw, ref, failing, seed):
        self.kw = kw
        EvalPoint = kw.oracle.EvalPoint
        printed = {(a, x): (res, idx) for a, x, _rho, res, idx in inputs.TABLE1}
        refs = {(r["alpha_over_pi"], r["x"]): r for r in ref["table"]}
        self.rows = []
        for row in kw.table1.TABLE1_ROWS:
            k = (row.alpha_over_pi, row.x)
            if printed.get(k) != (row.residual_abs, row.n_index):
                raise BenchError(f"TABLE1_ROWS entry {k} differs from the paper")
            defective = k in kw.table1.KNOWN_REFERENCE_DEFECTS
            self.rows.append((row.point(), row.n_terms, row.residual_abs,
                              defective, refs[k]))
        self.cert = [(EvalPoint(x, rho, a), n) for x, rho, a, n in inputs.cert_points()]
        self.grid = inputs.inc_gamma_grid()
        self.gamma_ref = ref["inc_gamma_margin"]

    def shrink(self):
        self.rows, self.cert = self.rows[:2], self.cert[:3]

    def timed(self, rec, slot, fn, *args):
        rec.calibrate()
        t0 = perf_counter()
        try:
            return fn(*args)
        except Exception as exc:  # a failed operation is counted, not raised
            rec.fail(f"{fn.__name__} raised {type(exc).__name__}")
            return None
        finally:
            rec.time(t0, 1, slot)
            rec.attempted += 1

    def run_round(self, r, rec):
        kw = self.kw
        clear_ck_cache(kw)
        for i, (pt, n, printed, defective, ref) in enumerate(self.rows):
            res = self.timed(rec, ("table", i), kw.expansions.curly_F_residual, pt, n)
            if res is None:
                continue
            if not math.isfinite(res):
                rec.fail("curly_F_residual: value not finite")
                continue
            rec.digits.append(digits_of(res, {"hi": ref["residual"], "lo": 0.0,
                                              "err": ref["err"]}))
            if not defective and abs(abs(res) / printed - 1.0) > 0.01:
                rec.fail("curly_F_residual: misses the printed residual")
        for i, (pt, n) in enumerate(self.cert):
            rep = self.timed(rec, ("remainder", i), kw.bounds.verify_remainder, pt, n)
            if rep is not None:
                self.check_report(pt, n, rep, rec)
        rep = self.timed(rec, ("inc_gamma",), kw.bounds.verify_inc_gamma_bound, self.grid)
        if rep is not None:
            margin = rep.inc_gamma_margin
            if not margin <= 1.0:
                rec.violations.append(f"incomplete-gamma margin {margin} > 1 passed")
            if not abs(margin - self.gamma_ref) <= 1e-12 * self.gamma_ref:
                rec.fail("verify_inc_gamma_bound: margin differs from reference")

    @staticmethod
    def check_report(pt, n, rep, rec):
        """A report that passed must carry the bound the paper states, and
        its measurements must lie below its bounds."""
        rn = math.exp(math.lgamma(2 * n) - math.lgamma(n + 1) - n * math.log(pt.M))
        if not abs(rep.rn_bound - rn) <= 1e-12 * rn:
            rec.violations.append(f"remainder bound at M={pt.M} n={n} is "
                                  f"{rep.rn_bound}, expected {rn}")
        if not (abs(rep.measured_rn) < rep.rn_bound
                and abs(rep.measured_tail) < rep.tail_bound):
            rec.violations.append(f"verify_remainder passed a violated bound "
                                  f"at M={pt.M} n={n}")


WORKLOADS = {
    "field-sweep": FieldSweep,
    "cold-paris": ColdParis,
    "cold-bessho": ColdBessho,
    "cold-oracle": ColdOracle,
    "certify": Certify,
}


# ---------------------------------------------------------------------------
# measurement


def run_rounds(wl, rec, seconds=None, rounds=None):
    """Whole rounds until `seconds` have passed, or exactly `rounds`."""
    start = perf_counter()
    r = 0
    while (r < rounds) if rounds is not None else (r == 0 or perf_counter() - start < seconds):
        wl.run_round(r, rec)
        r += 1
    return r, perf_counter() - start


def quantile(values, p):
    """Harrell-Davis estimate of the p-quantile: a beta-weighted mean of
    the order statistics around it, which does not jump from one call's
    time to another's as a single order statistic does."""
    # imported here, not at the top, so that set-up probes pay for numpy
    # and scipy inside kelvinwake's import as a user does
    import numpy as np
    from scipy.special import betainc

    x = np.sort(np.asarray(values))
    n = len(x)
    w = np.diff(betainc(p * (n + 1), (1 - p) * (n + 1), np.arange(n + 1) / n))
    return float(w @ x)


def slot_times(rec):
    """{slot: scaled seconds of each of its calls}.  A slot is a call, or a
    stratum of inputs, that every round makes again."""
    by_slot = {}
    for (_, _, _, slot), t in zip(rec.calls, rec.scaled_latencies()):
        by_slot.setdefault(slot, []).append(t)
    return by_slot


def end_to_end(rec, setup_s):
    """Each call is timed at the median of its slot over the run, so the
    figures do not depend on how many rounds the run had time for, nor much
    on which inputs of a stratum the seed drew or on a hiccup of the
    machine during one call."""
    if not rec.calls or not rec.digits:
        raise BenchError("no operation returned a value; nothing to measure")
    by_slot = slot_times(rec)
    median = {slot: statistics.median(ts) for slot, ts in by_slot.items()}
    lat_ms = [t * 1e3 for t in median.values()]
    values = sum(v for _, _, v, _ in rec.calls)
    busy = sum(len(ts) * median[slot] for slot, ts in by_slot.items())
    return {
        "setup_s": (setup_s, "s"),
        "values_per_s": (values / busy, "1/s"),
        "call_ms_p50": (quantile(lat_ms, 0.5), "ms"),
        "call_ms_p90": (quantile(lat_ms, 0.9), "ms"),
        "digits_mean": (statistics.fmean(rec.digits), "digits"),
        "digits_min": (min(rec.digits), "digits"),
    }


def per_layer(tracer, ops, untraced_s, traced_s):
    st = tracer.layer_stats()

    def get(name):
        return st.get(name, {"calls": 0, "total": 0.0, "self": 0.0, "extras": []})

    def mean(total, n, scale):
        return total / n * scale if n else 0.0

    def calls(name):
        return get(name)["calls"] / ops

    def avg(name, scale):
        s = get(name)
        return mean(s["total"], s["calls"], scale)

    field, paris, bessho = get("cli.field"), get("expansions.paris_F"), get("expansions.bessho_F")
    ck, orf = get("oracle.oracle_Ck"), get("oracle.oracle_F")
    misses = [(dt, ev) for dt, (missed, ev) in ck["extras"] if missed]
    m = {
        "cli.field.s": (avg("cli.field", 1.0), "s"),
        "cli.field.self_s": (mean(field["self"], field["calls"], 1.0), "s"),
        "expansions.paris_F.calls": (calls("expansions.paris_F"), "count"),
        "expansions.paris_F.ms": (avg("expansions.paris_F", 1e3), "ms"),
        "expansions.paris_F.self_ms": (mean(paris["self"], paris["calls"], 1e3), "ms"),
        "expansions.paris_F.struve_terms": (
            mean(sum(e[0] for _, e in paris["extras"]), len(paris["extras"]), 1.0), "count"),
        "expansions.paris_F.n": (
            mean(sum(e[1] for _, e in paris["extras"]), len(paris["extras"]), 1.0), "count"),
        "expansions.ck_table.ms": (avg("expansions.ck_table", 1e3), "ms"),
        "expansions.ck_recurrence.calls": (calls("expansions.ck_recurrence"), "count"),
        "expansions.ck_recurrence.ms": (avg("expansions.ck_recurrence", 1e3), "ms"),
        "expansions.asymptotic_sum.us": (avg("expansions.asymptotic_sum", 1e6), "us"),
        "expansions.saddle_term.us": (avg("expansions.saddle_term", 1e6), "us"),
        "expansions.bessho_F.calls": (calls("expansions.bessho_F"), "count"),
        "expansions.bessho_F.ms": (avg("expansions.bessho_F", 1e3), "ms"),
        "expansions.bessho_F.terms": (
            mean(sum(e for _, e in bessho["extras"]), len(bessho["extras"]), 1.0), "count"),
        "expansions.curly_F_residual.ms": (avg("expansions.curly_F_residual", 1e3), "ms"),
        "oracle.oracle_Ck.calls": (calls("oracle.oracle_Ck"), "count"),
        "oracle.oracle_Ck.hit_ratio": (
            1.0 - len(misses) / ck["calls"] if ck["calls"] else 0.0, "ratio"),
        "oracle.oracle_Ck.miss_ms": (mean(sum(dt for dt, _ in misses), len(misses), 1e3), "ms"),
        "oracle.oracle_Ck.evals": (mean(sum(ev for _, ev in misses), len(misses), 1.0), "count"),
        "oracle.oracle_F.calls": (calls("oracle.oracle_F"), "count"),
        "oracle.oracle_F.ms": (avg("oracle.oracle_F", 1e3), "ms"),
        "oracle.oracle_F.evals": (
            mean(sum(e for _, e in orf["extras"]), len(orf["extras"]), 1.0), "count"),
        "oracle.oracle_I2.ms": (avg("oracle.oracle_I2", 1e3), "ms"),
        "specfun.struve_k_scaled.calls": (calls("specfun.struve_k_scaled"), "count"),
        "specfun.struve_k_scaled.us": (avg("specfun.struve_k_scaled", 1e6), "us"),
        "specfun.upper_inc_gamma.calls": (calls("specfun.upper_inc_gamma"), "count"),
        "specfun.upper_inc_gamma.us": (avg("specfun.upper_inc_gamma", 1e6), "us"),
        "ddouble.ops": (tracer.dd_ops / ops, "count"),
        "bounds.verify_remainder.calls": (calls("bounds.verify_remainder"), "count"),
        "bounds.verify_remainder.ms": (avg("bounds.verify_remainder", 1e3), "ms"),
        "bounds.verify_inc_gamma_bound.ms": (avg("bounds.verify_inc_gamma_bound", 1e3), "ms"),
        "trace.overhead_s": (traced_s - untraced_s, "s"),
        "trace.overhead_pct": (100.0 * (traced_s - untraced_s) / untraced_s, "%"),
    }
    return m


def report(correct, attempted, failed, metrics):
    return json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}})


def summarize(rec, out=sys.stderr):
    for why, n in sorted(rec.failures.items()):
        print(f"failed {n:6d}  {why}", file=out)
    for v in rec.violations[:20]:
        print(f"violation: {v}", file=out)
    if rec.stale:
        print(f"stale: {rec.stale} pool inputs passed or failed against "
              f"data/failing.json; regenerate it with python3 bench/curate.py",
              file=out)


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    # smoke.py: one set-up and a cut-down round, to check the plumbing only
    ap.add_argument("--smoke", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    os.environ.pop("KELVIN_THREADS", None)     # the CLI's default: one thread
    warnings.simplefilter("ignore")

    try:
        if args.setup_probe:
            print(setup_probe(args.workload, args.seed))
            return 0
        kw, wl = setup(args.workload, args.seed)
        # the reference data is the benchmark's, not the program's: keep the
        # garbage collector from walking it during timed calls
        gc.freeze()
        if args.smoke:
            wl.shrink()
        rec = Recorder()
        if not args.trace:
            setup_s = measure_setup(args.workload, args.seed,
                                    1 if args.smoke else SETUP_REPEATS)
            run_rounds(wl, rec, seconds=args.seconds)
            metrics = end_to_end(rec, setup_s)
        else:
            # a first untraced stretch fixes the number of rounds and warms
            # the process up; the same rounds then run untraced and traced
            rounds, _ = run_rounds(wl, Recorder(), seconds=args.seconds / 4.0)
            run_rounds(wl, rec, rounds=rounds)
            traced_rec = Recorder()
            tracer = tracing.Tracer()
            tracing.install(tracer, kw)
            try:
                run_rounds(wl, traced_rec, rounds=rounds)
            finally:
                tracer.uninstall()
            # scaled time inside the timed calls, as for values_per_s
            metrics = per_layer(tracer, traced_rec.attempted,
                                sum(rec.scaled_latencies()),
                                sum(traced_rec.scaled_latencies()))
            rec.merge(traced_rec)
            os.makedirs(OUT, exist_ok=True)
            tracer.dump(os.path.join(OUT, f"spans-{args.workload}-{args.seed}.csv"))
    except BenchError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 2
    summarize(rec)
    print(report(not rec.violations, rec.attempted, rec.failed, metrics))
    return 0


if __name__ == "__main__":
    sys.exit(main())
