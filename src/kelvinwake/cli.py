"""Command-line front end.

Subcommands:

  eval    -- evaluate F at one point by one method (or all of them)
  compare -- alias for eval --method all
  table1  -- reproduce the reference residual table
  coeffs  -- emit C_k(x, alpha) coefficient curves over an x grid
  field   -- evaluate F over an (x, rho, alpha) grid with method auto-selection
  bounds  -- evaluate and verify the remainder/tail/gamma bounds

field evaluates its grid in groups of x columns of at most
FIELD_GROUP_POINTS (rho, |alpha|) points in all (a whole call on the
benchmark's sweep), one loop per group:

  1. gather the group's distinct (x, rho, |alpha|), each point at its first
     alpha: F is even in alpha, so a row whose |alpha| equals, as a double,
     that of an earlier row of its (x, rho) shares that row's point;
  2. make one _method_record per distinct point, by the route
     expansions.field_route gives it, all of them on one expansions.Ladders:
     paris_F and bessho_F run their convergent sums on ladders formed once
     for the group, one Hscal ladder per x c, one J_2m(x) ladder per x, one
     Bessel product ladder per (x, rho) and one cos(m alpha) ladder per
     |alpha|;
  3. build every grid row from those records, each with its own alpha.

Every reader of a ladder starts at its first value, so every row, its
estimate, terms and any refusal included, equals `eval --method <its
method>` at that point bit for bit.  Everything runs on the calling
thread: --threads is validated (at most MAX_THREADS) and echoed in the
JSON meta, and has no other effect.  A range count, or a
field grid, of more than MAX_GRID_POINTS points is a usage error; so is
an --abs-tol outside [1e-14, inf), an --n outside 1 .. CK_MAX, and an
angle given both in radians and in units of pi (--alpha with --alpha-pi,
--alpha-range with --alpha-pi-range).

Output formats: csv (deterministic, 17 significant digits, LF endings),
json (meta + rows on one line, keys sorted), pretty (aligned table).
Exit codes: 0 success, 1 tolerance or bound failure, 2 usage error.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import sys
import warnings

from . import __version__, bounds, expansions, table1
from .errors import AccuracyError, DomainError, KelvinWakeError
from .expansions import TruncationPolicy
from .oracle import EvalPoint, check_abs_tol, oracle_F

EXIT_OK = 0
EXIT_TOLERANCE = 1
EXIT_USAGE = 2

#: Largest --threads value `field` accepts.
MAX_THREADS = 64

#: Most points a start:stop:count range, or a whole field grid, may have.
MAX_GRID_POINTS = 10 ** 6

#: Most (rho, |alpha|) points of the x columns `field` evaluates as one
#: group: it bounds the group's records and ladders on any grid, while
#: every column of a group shares one cos(m alpha) ladder per |alpha|.
FIELD_GROUP_POINTS = 4096

_BOX = "0 < x <= 3, 0 < rho <= 1, |alpha| <= pi/2"


def _fmt(v) -> str:
    if isinstance(v, float):
        return format(v, ".17g")
    return str(v)


def _write_output(header, rows, cfg, meta):
    """Emit rows (list of dicts) in the configured format."""
    fmt = cfg.format
    if fmt == "csv":
        lines = [",".join(header)]
        lines += [",".join(_fmt(row.get(h, "")) for h in header) for row in rows]
        text = "\n".join(lines) + "\n"
    elif fmt == "json":
        def clean(v):
            return None if isinstance(v, float) and math.isnan(v) else v
        payload = {"meta": meta,
                   "rows": [{k: clean(v) for k, v in row.items()} for row in rows]}
        text = json.dumps(payload, sort_keys=True) + "\n"
    else:
        widths = [max(len(h), *(len(_fmt(r.get(h, ""))) for r in rows)) if rows
                  else len(h) for h in header]
        lines = ["  ".join(h.ljust(w) for h, w in zip(header, widths))]
        for r in rows:
            lines.append("  ".join(_fmt(r.get(h, "")).ljust(w)
                                   for h, w in zip(header, widths)))
        text = "\n".join(lines) + "\n"
    if cfg.out:
        with open(cfg.out, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _check_box(x, rho, alpha):
    if not 0.0 < x <= 3.0:
        raise DomainError(f"x = {x} outside the supported box ({_BOX})")
    if not 0.0 < rho <= 1.0:
        raise DomainError(f"rho = {rho} outside the supported box ({_BOX})")
    if abs(alpha) > 0.5 * math.pi:
        raise DomainError(f"alpha = {alpha} outside the supported box ({_BOX})")


def _resolve_alpha(args):
    """alpha in radians from --alpha or --alpha-pi, 0 where neither is
    given; both at once is a usage error."""
    if args.alpha is not None and args.alpha_pi is not None:
        raise DomainError("give --alpha or --alpha-pi, not both")
    if args.alpha_pi is not None:
        return args.alpha_pi * math.pi
    if args.alpha is not None:
        return args.alpha
    return 0.0


def _parse_n(raw):
    """--n as an integer in [1, CK_MAX], or None for 'auto' or no value.
    The C_k tables hold C_0 .. C_30 (oracle.CK_INDEX_MAX + 1 coefficients),
    and CK_MAX = 30 caps the truncation n, so no truncation or coefficient
    count beyond it can be evaluated."""
    if raw is None or raw == "auto":
        return None
    try:
        n = int(raw)
    except ValueError:
        n = 0
    if not 1 <= n <= expansions.CK_MAX:
        raise DomainError(f"--n must be an integer in [1, {expansions.CK_MAX}] "
                          f"or 'auto', got {raw!r}")
    return n


def _parse_range(spec, name):
    """(start, stop, count) of a start:stop:count range, count checked."""
    parts = spec.split(":")
    if len(parts) != 3:
        raise DomainError(f"--{name} must look like start:stop:count, got {spec!r}")
    try:
        a, b, cnt = float(parts[0]), float(parts[1]), int(parts[2])
    except ValueError:
        raise DomainError(f"--{name}: cannot parse {spec!r}")
    if cnt < 1:
        raise DomainError(f"--{name}: count must be >= 1")
    if cnt > MAX_GRID_POINTS:
        raise DomainError(f"--{name}: count must be at most {MAX_GRID_POINTS}, got {cnt}")
    return a, b, cnt


def _grid(a, b, cnt):
    """The count points from start to stop, as a list."""
    if cnt == 1:
        return [a]
    step = (b - a) / (cnt - 1)
    return [a + i * step for i in range(cnt)]


def _thread_count(args):
    """The validated --threads value of field, which it only echoes."""
    raw = args.threads or "1"
    if raw == "auto":
        return min(os.cpu_count() or 1, MAX_THREADS)
    try:
        n = int(raw)
    except ValueError:
        raise DomainError(f"--threads must be a positive integer or 'auto', got {raw!r}")
    if n < 1:
        raise DomainError("--threads must be >= 1")
    if n > MAX_THREADS:
        raise DomainError(f"--threads must be at most {MAX_THREADS}, got {n}")
    return n


def _method_record(pt, method, policy, abs_tol, ladders=None):
    """One evaluation record; failures are reported in the status field.
    ladders, an expansions.Ladders, is handed to bessho_F and paris_F."""
    rec = {"method": method, "x": pt.x, "rho": pt.rho, "alpha": pt.alpha,
           "M": pt.M, "value": math.nan, "error_estimate": math.nan,
           "n_used": 0, "terms_used": 0, "saddle": 0.0,
           "struve_sum": "", "asymptotic_sum": "", "status": "ok"}
    try:
        if method == "oracle":
            q = oracle_F(pt, abs_tol=abs_tol)
            rec.update(value=q.value, error_estimate=q.abs_error_estimate,
                       terms_used=q.evaluations)
            return rec
        if method == "bessho":
            r = expansions.bessho_F(pt, ladders=ladders)
        elif method == "ursell":
            r = expansions.ursell_F(pt)
        elif method == "paris":
            r = expansions.paris_F(pt, policy, ladders=ladders)
        else:
            raise DomainError(f"unknown method {method!r}")
        rec.update(value=r.value, error_estimate=r.internal_error_estimate,
                   terms_used=r.terms_used, n_used=r.n_used, saddle=r.saddle_term)
        if r.components is not None:
            rec.update(struve_sum=r.components.struve_sum,
                       asymptotic_sum=r.components.asymptotic_sum)
    except AccuracyError as exc:
        rec.update(status=f"accuracy-not-reached: {exc}",
                   value=exc.value if exc.value is not None else math.nan,
                   error_estimate=exc.error_estimate
                   if exc.error_estimate is not None else math.nan,
                   terms_used=exc.terms_used)
    except KelvinWakeError as exc:
        rec.update(status=f"{type(exc).__name__}: {exc}")
    return rec


_EVAL_HEADER = ["method", "x", "rho", "alpha", "M", "value", "error_estimate",
                "n_used", "terms_used", "saddle", "struve_sum",
                "asymptotic_sum", "status"]


def cmd_eval(args) -> int:
    alpha = _resolve_alpha(args)
    _check_box(args.x, args.rho, alpha)
    pt = EvalPoint(args.x, args.rho, alpha)
    policy = TruncationPolicy(n=_parse_n(args.n))
    check_abs_tol(args.abs_tol)
    methods = (["bessho", "ursell", "paris", "oracle"]
               if args.method == "all" else [args.method])
    # each method's warnings (paris_F below M = 4, an --n not below M c^2)
    # and failure go to stderr as one line each
    rows, notes = [], []
    for m in methods:
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            rec = _method_record(pt, m, policy, args.abs_tol)
        rows.append(rec)
        notes += [f"{m}: warning: {w.message}" for w in caught]
        if rec["status"] != "ok":
            notes.append(f"{m}: {rec['status']}")
    meta = {"command": "eval", "x": args.x, "rho": args.rho, "alpha": alpha,
            "method": args.method, "abs_tol": args.abs_tol,
            "version": __version__}
    _write_output(_EVAL_HEADER, rows, args, meta)
    for line in notes:
        print(line, file=sys.stderr)
    return EXIT_TOLERANCE if any(r["status"] != "ok" for r in rows) else EXIT_OK


_TABLE1_HEADER = ["alpha_over_pi", "M", "n", "abs_curly_F_computed",
                  "abs_curly_F_paper", "ratio"]


def cmd_table1(args) -> int:
    rows = []
    failures = []
    for row in table1.TABLE1_ROWS:
        pt = row.point()
        computed = abs(expansions.curly_F_residual(pt, row.n_terms,
                                                   oracle_abs_tol=args.abs_tol))
        ratio = computed / row.residual_abs
        ok = table1.matches_reference(computed, row.residual_abs)
        rows.append({"alpha_over_pi": row.alpha_over_pi, "M": row.M,
                     "n": row.n_index, "abs_curly_F_computed": computed,
                     "abs_curly_F_paper": row.residual_abs, "ratio": ratio})
        if not ok:
            key = (row.alpha_over_pi, row.x)
            note = table1.KNOWN_REFERENCE_DEFECTS.get(key, "unexpected mismatch")
            failures.append((row, computed, note))
    meta = {"command": "table1", "abs_tol": args.abs_tol, "version": __version__}
    _write_output(_TABLE1_HEADER, rows, args, meta)
    for row, computed, note in failures:
        print(f"row alpha/pi={row.alpha_over_pi} M={row.M}: computed "
              f"{computed:.6e} vs printed {row.residual_abs:.3e} -- {note}",
              file=sys.stderr)
    return EXIT_TOLERANCE if failures else EXIT_OK


def cmd_coeffs(args) -> int:
    alpha = _resolve_alpha(args)
    if args.alpha is None and args.alpha_pi is None:
        alpha = math.pi / 6.0
    if not 0.0 <= alpha <= 0.5 * math.pi:
        raise DomainError("coeffs requires 0 <= alpha <= pi/2")
    n = _parse_n(args.n) or 4
    xs = _grid(*_parse_range(args.x_range, "x-range"))
    header = ["x"] + [f"C{k}" for k in range(n)]
    rows = []
    for x in xs:
        _check_box(x, 0.5, alpha)
        tab = expansions.ck_table(n, x, alpha)
        row = {"x": x}
        row.update({f"C{k}": tab.values[k] for k in range(n)})
        rows.append(row)
    meta = {"command": "coeffs", "n": n, "alpha": alpha,
            "x_range": args.x_range, "version": __version__}
    _write_output(header, rows, args, meta)
    return EXIT_OK


_FIELD_HEADER = ["x", "rho", "alpha", "M", "method", "value", "error_estimate",
                 "n_used", "terms_used", "status"]


def cmd_field(args) -> int:
    if args.alpha_range is None and args.alpha_pi_range is None:
        raise DomainError("field needs --alpha-range or --alpha-pi-range")
    if args.alpha_range is not None and args.alpha_pi_range is not None:
        raise DomainError("give --alpha-range or --alpha-pi-range, not both")
    specs = [_parse_range(args.x_range, "x-range"),
             _parse_range(args.rho_range, "rho-range"),
             _parse_range(args.alpha_range, "alpha-range") if args.alpha_range is not None
             else _parse_range(args.alpha_pi_range, "alpha-pi-range")]
    points = math.prod(cnt for _, _, cnt in specs)
    if points > MAX_GRID_POINTS:
        raise DomainError(f"the field grid has {points} points; at most "
                          f"{MAX_GRID_POINTS} are allowed")
    xs, rhos, alphas = (_grid(*spec) for spec in specs)
    if args.alpha_range is None:
        alphas = [a * math.pi for a in alphas]
    for x in (xs[0], xs[-1]):
        for rho in (rhos[0], rhos[-1]):
            for alpha in (alphas[0], alphas[-1]):
                _check_box(x, rho, alpha)
    threads = _thread_count(args)
    per_group = max(1, FIELD_GROUP_POINTS // (len(rhos) * len({abs(a) for a in alphas})))
    rows = []
    for i in range(0, len(xs), per_group):
        grid = [(x, rho, alpha) for x in xs[i:i + per_group]
                for rho in rhos for alpha in alphas]
        pts = {}
        for x, rho, alpha in grid:
            pts.setdefault((x, rho, abs(alpha)), EvalPoint(x, rho, alpha))
        ladders = expansions.Ladders()
        records = {key: _method_record(pt, expansions.field_route(pt), TruncationPolicy(),
                                       1e-12, ladders)
                   for key, pt in pts.items()}
        for x, rho, alpha in grid:
            rec = records[x, rho, abs(alpha)]
            rows.append({h: alpha if h == "alpha" else rec[h] for h in _FIELD_HEADER})
    meta = {"command": "field", "x_range": args.x_range,
            "rho_range": args.rho_range,
            "alpha_range": args.alpha_range or args.alpha_pi_range,
            "threads": threads, "version": __version__}
    _write_output(_FIELD_HEADER, rows, args, meta)
    failed = sum(1 for r in rows if r["status"] != "ok")
    if failed:
        print(f"{failed} of {len(rows)} grid points failed", file=sys.stderr)
    return EXIT_TOLERANCE if failed else EXIT_OK


_BOUNDS_HEADER = ["kind", "alpha_over_pi", "x", "rho", "M", "n", "rn_bound",
                  "measured_rn", "tail_bound", "measured_tail",
                  "inc_gamma_margin", "ok"]


def cmd_bounds(args) -> int:
    rows = []
    failures = 0
    for row in table1.TABLE1_ROWS:
        pt = row.point()
        rec = {"kind": "remainder", "alpha_over_pi": row.alpha_over_pi,
               "x": row.x, "rho": row.rho, "M": row.M, "n": row.n_terms,
               "inc_gamma_margin": "", "ok": 1}
        try:
            rep = bounds.verify_remainder(pt, row.n_terms)
            rec.update(rn_bound=rep.rn_bound, measured_rn=rep.measured_rn,
                       tail_bound=rep.tail_bound, measured_tail=rep.measured_tail)
        except KelvinWakeError as exc:
            rec.update(ok=0, rn_bound="", measured_rn="", tail_bound="",
                       measured_tail="")
            print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
            failures += 1
        rows.append(rec)
    grid = [(a, chi) for chi in [1.0 + 49.0 * i / 49.0 for i in range(50)]
            for a in [chi * j / 49.0 for j in range(50)]]
    try:
        rep = bounds.verify_inc_gamma_bound(grid)
        rows.append({"kind": "inc_gamma", "alpha_over_pi": "", "x": "",
                     "rho": "", "M": "", "n": "", "rn_bound": "",
                     "measured_rn": "", "tail_bound": "", "measured_tail": "",
                     "inc_gamma_margin": rep.inc_gamma_margin, "ok": 1})
    except KelvinWakeError as exc:
        rows.append({"kind": "inc_gamma", "ok": 0})
        print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
        failures += 1
    meta = {"command": "bounds", "version": __version__}
    _write_output(_BOUNDS_HEADER, rows, args, meta)
    return EXIT_TOLERANCE if failures else EXIT_OK


def _add_common(p):
    p.add_argument("--format", choices=["csv", "json", "pretty"],
                   default="pretty", help="output format")
    p.add_argument("--out", default=None, help="write output to this path")


def _add_abs_tol(p):
    p.add_argument("--abs-tol", type=float, default=1e-12, dest="abs_tol",
                   help="oracle absolute tolerance, at least 1e-14")


def _add_point(p):
    p.add_argument("--x", type=float, required=True)
    p.add_argument("--rho", type=float, required=True)
    p.add_argument("--alpha", type=float, default=None,
                   help="polar angle in radians")
    p.add_argument("--alpha-pi", type=float, default=None, dest="alpha_pi",
                   help="polar angle in units of pi")
    p.add_argument("--n", default=None,
                   help=f"asymptotic truncation (integer in [1, "
                        f"{expansions.CK_MAX}] or 'auto')")


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="kelvinwake",
        description="Kelvin ship-wave source integral evaluator")
    ap.add_argument("--version", action="version", version=__version__)
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("eval", help="evaluate F at one point")
    _add_point(p)
    p.add_argument("--method", default="paris",
                   choices=["bessho", "ursell", "paris", "oracle", "all"])
    _add_common(p)
    _add_abs_tol(p)
    p.set_defaults(func="cmd_eval")

    p = sub.add_parser("compare", help="evaluate F by every method")
    _add_point(p)
    _add_common(p)
    _add_abs_tol(p)
    p.set_defaults(func="cmd_eval", method="all")

    p = sub.add_parser("table1", help="reproduce the reference residual table")
    _add_common(p)
    _add_abs_tol(p)
    p.set_defaults(func="cmd_table1")

    p = sub.add_parser("coeffs", help="emit C_k coefficient curves")
    p.add_argument("--n", default=4, help=f"number of coefficients (k = 0..n-1), "
                                          f"at most {expansions.CK_MAX}")
    p.add_argument("--alpha", type=float, default=None)
    p.add_argument("--alpha-pi", type=float, default=None, dest="alpha_pi")
    p.add_argument("--x-range", default="0.05:2:40", dest="x_range",
                   help="x grid as start:stop:count")
    _add_common(p)
    p.set_defaults(func="cmd_coeffs")

    p = sub.add_parser("field", help="evaluate F over a grid")
    p.add_argument("--x-range", required=True, dest="x_range")
    p.add_argument("--rho-range", required=True, dest="rho_range")
    p.add_argument("--alpha-range", default=None, dest="alpha_range",
                   help="alpha grid in radians as start:stop:count")
    p.add_argument("--alpha-pi-range", default=None, dest="alpha_pi_range",
                   help="alpha grid in units of pi")
    p.add_argument("--threads", default=None,
                   help=f"accepted for compatibility and has no effect: an "
                        f"integer up to {MAX_THREADS} or 'auto' (default 1), "
                        "echoed in the JSON meta; field runs on one thread")
    _add_common(p)
    p.set_defaults(func="cmd_field")

    p = sub.add_parser("bounds", help="verify remainder/tail/gamma bounds")
    _add_common(p)
    p.set_defaults(func="cmd_bounds")
    return ap


@functools.lru_cache(maxsize=None)
def _parser() -> argparse.ArgumentParser:
    """The parser of main, built on its first call: parse_args leaves the
    parser as it found it, so in-process callers need not rebuild it.  It
    names each subcommand's function, which main looks up on this module
    when it runs, so a wrapper put in its place later is the one called."""
    return build_parser()


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        return globals()[args.func](args)
    except DomainError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except KelvinWakeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_TOLERANCE


if __name__ == "__main__":
    sys.exit(main())
