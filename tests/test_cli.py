"""CLI behaviour: argument validation, output formats, exit codes and
byte-level determinism."""

import contextlib
import io
import json
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kelvinwake.cli import EXIT_TOLERANCE, MAX_GRID_POINTS, main
from kelvinwake.oracle import EvalPoint, oracle_F


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_eval_paris_close_to_oracle(capsys):
    code, out, _ = run(capsys, "eval", "--x", "0.4", "--rho", "0.005",
                       "--alpha", "0", "--method", "paris", "--n", "8",
                       "--format", "json")
    assert code == 0
    value = json.loads(out)["rows"][0]["value"]
    ref = oracle_F(EvalPoint(0.4, 0.005, 0.0)).value
    # the gap is the O(1/M) defect of the saddle estimate (~2.4e-5 here);
    # no truncation does better than that at this point
    assert abs(value - ref) <= 5e-5


def test_eval_all_reports_four_methods(capsys):
    code, out, _ = run(capsys, "eval", "--x", "0.4", "--rho", "0.005",
                       "--alpha", "0", "--method", "all", "--format", "json")
    assert code == 0
    rows = json.loads(out)["rows"]
    assert [r["method"] for r in rows] == ["bessho", "ursell", "paris", "oracle"]
    bessho = rows[0]["value"]
    oracle = rows[3]["value"]
    assert abs(bessho - oracle) <= 1e-9


def test_compare_alias(capsys):
    code, out, _ = run(capsys, "compare", "--x", "0.5", "--rho", "0.01",
                       "--alpha-pi", "0.25", "--format", "json")
    assert code == 0
    assert len(json.loads(out)["rows"]) == 4


def test_reused_parser_equals_fresh_parsers(capsys):
    # main builds its parser once: alternating subcommands must not carry
    # anything from one call to the next (compare defaults the method to
    # "all", eval to "paris")
    import kelvinwake.cli as cli

    point = ["--x", "0.5", "--rho", "0.01", "--alpha-pi", "0.25", "--format", "json"]
    calls = [
        ["compare", *point],
        ["eval", *point],
        ["coeffs", "--n", "2", "--alpha-pi", "0.1", "--x-range", "0.5:1:2"],
        ["field", "--x-range", "0.5:1:2", "--rho-range", "0.01:0.02:2",
         "--alpha-pi-range", "0:0.5:2", "--format", "csv"],
        ["eval", *point, "--method", "bessho"],
    ]
    fresh = []
    for argv in calls:
        cli._parser.cache_clear()
        fresh.append(run(capsys, *argv))
    parser = cli._parser()
    reused = [run(capsys, *argv) for argv in calls + calls[::-1]]
    assert cli._parser() is parser
    assert reused == fresh + fresh[::-1]


@pytest.mark.parametrize("argv", [
    ["--x", "1", "--rho", "1e-12", "--alpha", "0"],
    ["--x", "1", "--rho", "1e-300", "--alpha-pi", "0.5"],
    ["--x", "1", "--rho", "1e-320", "--alpha-pi", "0.5"],
    ["--x", "1", "--rho", "1e-320", "--alpha", "0"],
])
def test_eval_oracle_beyond_its_budget_fails_in_one_line(capsys, argv):
    code, _, err = run(capsys, "eval", *argv, "--method", "oracle")
    assert code in (1, 2)
    assert len(err.splitlines()) == 1 and err.startswith("oracle: ")


def test_compare_at_huge_M_ends(capsys):
    # M = 2.25e9 at alpha = 0: ursell_F and paris_F return, bessho_F and
    # oracle_F refuse (with k2 = 0 oracle_F has no contour to take)
    code, out, err = run(capsys, "compare", "--x", "3", "--rho", "1e-9",
                         "--alpha-pi", "0", "--format", "json")
    assert code == EXIT_TOLERANCE
    rows = {r["method"]: r for r in json.loads(out)["rows"]}
    assert rows["ursell"]["status"] == rows["paris"]["status"] == "ok"
    assert [line.split(":")[0] for line in err.splitlines()] == ["bessho", "oracle"]
    # the oracle's initial panels exceed its budget: it has no value to show
    assert rows["oracle"]["value"] is None and rows["oracle"]["error_estimate"] is None


def test_alpha_validation_exits_2(capsys):
    code, _, err = run(capsys, "eval", "--x", "0.4", "--rho", "0.005",
                       "--alpha", "2.0")
    assert code == 2
    assert "pi/2" in err


def test_box_validation_exits_2(capsys):
    code, _, err = run(capsys, "eval", "--x", "4.0", "--rho", "0.005",
                       "--alpha", "0")
    assert code == 2


@pytest.mark.parametrize("argv, code, lines", [
    (["--x", "0.4", "--rho", "0.1", "--alpha", "0", "--method", "all"], EXIT_TOLERANCE,
     ["ursell: DomainError: ursell_F needs M > 1, got M = 0.4",
      "paris: warning: paris_F called at M = 0.4 < 4; accuracy degrades as M shrinks",
      "paris: RegimeError: M c^2 = 0.400 <= 1 leaves no valid truncation; "
      "use bessho_F in this regime"]),
    (["--x", "1", "--rho", "0.02", "--alpha", "0", "--n", "20"], 0,
     ["paris: warning: truncation n = 20 is not below M c^2 = 12.500; "
      "the asymptotic remainder bound no longer applies"]),
])
def test_eval_reports_warnings_one_line_each(capsys, argv, code, lines):
    # a route's warning reaches stderr as "<method>: warning: <message>",
    # never as a Python warning with a source path and line
    import warnings

    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        got, _, err = run(capsys, "eval", *argv)
    assert caught == []
    assert got == code
    assert err.splitlines() == lines


_POINT = ("--x", "1.0", "--rho", "0.02", "--alpha", "0.3")


@pytest.mark.parametrize("argv", [
    ["eval", *_POINT, "--method", "oracle", "--abs-tol", "nan"],
    ["eval", *_POINT, "--method", "oracle", "--abs-tol", "inf"],
    ["eval", *_POINT, "--method", "oracle", "--abs-tol", "1e-15"],
    ["compare", *_POINT, "--abs-tol", "nan"],
    ["table1", "--abs-tol", "nan"],
    ["table1", "--abs-tol", "inf"],
    ["coeffs", "--n", "abc"],
    ["coeffs", "--n", "31"],
    ["eval", *_POINT, "--n", "40"],
    ["eval", *_POINT, "--n", "0"],
    ["eval", *_POINT, "--n", "2.5"],
])
def test_bad_tolerance_or_count_exits_2(capsys, argv):
    # a NaN or infinite --abs-tol, or an --n that is not an integer in
    # [1, CK_MAX], is a usage error with a one-line message
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1


def test_eval_json_meta(capsys):
    code, out, _ = run(capsys, "eval", "--x", "1.0", "--rho", "0.02",
                       "--alpha-pi", "0.1", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["meta"]["command"] == "eval"
    assert "version" in payload["meta"]


def test_table1_csv_shape_and_good_rows(capsys):
    code, out, err = run(capsys, "table1", "--format", "csv")
    # three known-defective reference rows force a nonzero exit
    assert code == 1
    lines = out.strip().split("\n")
    assert lines[0] == ("alpha_over_pi,M,n,abs_curly_F_computed,"
                        "abs_curly_F_paper,ratio")
    assert len(lines) == 13
    ratios = {}
    for ln in lines[1:]:
        parts = ln.split(",")
        ratios[(round(float(parts[0]), 6), round(float(parts[1]), 6))] = float(parts[5])
    # spot rows from the reference: both reproduce to ~1e-3
    assert abs(ratios[(0.0, 8.0)] - 1.0) <= 1e-3
    assert abs(ratios[(0.3, 12.5)] - 1.0) <= 5e-3
    assert abs(ratios[(0.4, 8.0)] - 1.0) <= 1e-3
    # the defective rows are the ones explained on stderr
    assert err.count("--") == 3


def test_coeffs_header_and_midplane_matches_recurrence(capsys):
    code, out, _ = run(capsys, "coeffs", "--n", "3", "--alpha", "0",
                       "--x-range", "0.5:1.0:2", "--format", "csv")
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "x,C0,C1,C2"
    from kelvinwake.expansions import ck_recurrence
    from kelvinwake.oracle import oracle_Ck

    first = lines[1].split(",")
    tab = ck_recurrence(3, 0.5)
    for k in range(3):
        assert float(first[k + 1]) == oracle_Ck(k, 0.5, 0.0).value
        assert abs(float(first[k + 1]) - tab.values[k]) <= 1e-14 * abs(tab.values[k])


def test_coeffs_default_matches_quadrature(capsys):
    code, out, _ = run(capsys, "coeffs", "--n", "1", "--alpha-pi",
                       str(1.0 / 6.0), "--x-range", "1.0:1.0:1",
                       "--format", "csv")
    assert code == 0
    from kelvinwake.oracle import oracle_Ck

    val = float(out.strip().split("\n")[1].split(",")[1])
    assert val == pytest.approx(oracle_Ck(0, 1.0, math.pi / 6.0).value, rel=1e-9)


def test_coeffs_curve_family_shape(capsys):
    # coarse shape of the default coefficient curves: C0 decays monotonically
    # with x while C3 heads off negative (the higher coefficients change sign
    # and grow in magnitude)
    code, out, _ = run(capsys, "coeffs", "--x-range", "0.05:2:8",
                       "--format", "csv")
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "x,C0,C1,C2,C3"
    c0 = [float(ln.split(",")[1]) for ln in lines[1:]]
    c3 = [float(ln.split(",")[4]) for ln in lines[1:]]
    assert all(b < a for a, b in zip(c0, c0[1:]))
    assert c3[0] > -1.0 and c3[-1] < -5.0


def test_field_smoke_and_method_switch(capsys):
    code, out, _ = run(capsys, "field", "--x-range", "0.3:1.0:3",
                       "--rho-range", "0.01:0.01:1",
                       "--alpha-pi-range", "0:0:1", "--format", "csv")
    assert code == 0
    lines = out.strip().split("\n")
    rows = [dict(zip(lines[0].split(","), ln.split(","))) for ln in lines[1:]]
    assert len(rows) == 3
    for r in rows:
        M = float(r["M"])
        assert r["method"] == ("paris" if M >= 6.0 else "bessho")
        assert r["status"] == "ok"


def test_field_matches_eval_pointwise(capsys):
    # M from 0.8 to 36: the x = 0.4 column is all bessho, x = 1.2 all paris
    # and x = 0.8 has both, each over two rho values; the linspace alphas
    # hold 0, +-pi/2 and +-alpha pairs whose |alpha| differ in the last bit,
    # so the grid has rows that repeat their pair's result and rows that
    # do not
    from kelvinwake.expansions import bessho_F, paris_F

    pt = EvalPoint(0.4, 0.005, 0.3 * math.pi)
    alone = (bessho_F(pt), paris_F(pt))
    code, out, _ = run(capsys, "field", "--x-range", "0.4:1.2:3",
                       "--rho-range", "0.01:0.05:2",
                       "--alpha-pi-range=-0.5:0.5:11", "--format", "json")
    assert code == 0
    rows = json.loads(out)["rows"]
    assert len(rows) == 66
    assert {r["method"] for r in rows} == {"bessho", "paris"}
    assert 6 < len({abs(r["alpha"]) for r in rows}) < 11
    keys = ("value", "error_estimate", "n_used", "terms_used", "method", "status")
    for row in rows:
        _, out1, _ = run(capsys, "eval", "--x", repr(row["x"]),
                         "--rho", repr(row["rho"]), f"--alpha={row['alpha']!r}",
                         "--method", row["method"], "--format", "json")
        ref = json.loads(out1)["rows"][0]
        assert {k: row[k] for k in keys} == {k: ref[k] for k in keys}, row
    assert (bessho_F(pt), paris_F(pt)) == alone


def test_field_determinism_across_threads(tmp_path, capsys):
    args = ["field", "--x-range", "0.4:1.0:4", "--rho-range", "0.005:0.02:2",
            "--alpha-pi-range=-0.3:0.3:3", "--format", "csv"]
    p1 = tmp_path / "t1.csv"
    p8 = tmp_path / "t8.csv"
    assert main(args + ["--threads", "1", "--out", str(p1)]) == 0
    assert main(args + ["--threads", "8", "--out", str(p8)]) == 0
    capsys.readouterr()
    assert p1.read_bytes() == p8.read_bytes()


def test_field_alpha_range_in_radians(capsys):
    code, out, _ = run(capsys, "field", "--x-range", "0.5:0.5:1",
                       "--rho-range", "0.01:0.01:1",
                       "--alpha-range", "0:1.2:2", "--format", "json")
    assert code == 0
    rows = json.loads(out)["rows"]
    assert [r["alpha"] for r in rows] == [0.0, 1.2]


def test_field_thread_count_is_capped(capsys):
    # --threads starts nothing, but a count above MAX_THREADS is still a
    # usage error, and one within it changes nothing in the output
    import kelvinwake.cli as cli

    args = ("field", "--x-range", "0.5:0.6:2", "--rho-range", "0.01:0.01:1",
            "--alpha-pi-range", "0:0.1:2", "--format", "csv")
    code, out, err = run(capsys, *args, "--threads", str(10 ** 9))
    assert code == 2 and out == ""
    assert f"at most {cli.MAX_THREADS}" in err
    for bad in ("0", "two"):
        assert run(capsys, *args, "--threads", bad)[0] == 2
    code, out, _ = run(capsys, *args, "--threads", str(cli.MAX_THREADS))
    assert code == 0
    assert out == run(capsys, *args)[1]


@pytest.mark.parametrize("chunk,groups", [(4096, [[0.4, 1.6, 2.8]]),
                                          (12, [[0.4, 1.6], [2.8]]),
                                          (5, [[0.4], [1.6], [2.8]])])
def test_field_groups_of_columns(capsys, monkeypatch, chunk, groups):
    # one Ladders per group of columns of at most FIELD_GROUP_POINTS
    # (rho, |alpha|) points, read by exactly that group's points of each
    # route, so the ladders grow with a group, not with the grid
    import kelvinwake.cli as cli

    made, calls = [], []

    class Recording(cli.expansions.Ladders):
        def __init__(self):
            super().__init__()
            made.append(self)

    def recording(name, route):
        f = getattr(cli.expansions, name)

        def wrapper(pt, *args, ladders, **kwargs):
            calls.append((ladders, route, pt.x))
            return f(pt, *args, ladders=ladders, **kwargs)
        return wrapper

    monkeypatch.setattr(cli.expansions, "Ladders", Recording)
    for name, route in (("paris_F", "paris"), ("bessho_F", "bessho")):
        monkeypatch.setattr(cli.expansions, name, recording(name, route))
    monkeypatch.setattr(cli, "FIELD_GROUP_POINTS", chunk)
    code, out, _ = run(capsys, "field", "--x-range", "0.4:2.8:3",
                       "--rho-range", "0.001:0.05:2",
                       "--alpha-pi-range=-0.5:0.5:5", "--format", "json",
                       "--threads", "2")
    assert code == 0
    rows = json.loads(out)["rows"]
    assert len(made) == len(groups)
    got = [sorted({(route, x) for owner, route, x in calls if owner is ladders})
           for ladders in made]
    want = [sorted({(r["method"], r["x"]) for r in rows if r["x"] in group})
            for group in groups]
    assert got == want
    assert all(any(route == "paris" for route, _ in g) for g in got)


@pytest.mark.parametrize("chunk,threads", [(4096, "1"), (12, "2"), (5, "2")])
def test_field_group_passes_equal_fresh_calls(capsys, monkeypatch, chunk, threads):
    # all-bessho (x = 0.4), mixed (x = 1.6) and all-paris (x = 2.8)
    # columns, in one group or several, on one thread or two: every row
    # has the fields of a fresh scalar evaluation, bit for bit
    import kelvinwake.cli as cli

    monkeypatch.setattr(cli, "FIELD_GROUP_POINTS", chunk)
    code, out, _ = run(capsys, "field", "--x-range", "0.4:2.8:3",
                       "--rho-range", "0.01:0.2:2",
                       "--alpha-pi-range=-0.5:0.5:5", "--format", "csv",
                       "--threads", threads)
    assert code == 0
    lines = out.strip().split("\n")
    assert len(lines) == 1 + 3 * 2 * 5
    methods = {}
    for line in lines[1:]:
        row = dict(zip(cli._FIELD_HEADER, line.split(",")))
        pt = EvalPoint(float(row["x"]), float(row["rho"]), float(row["alpha"]))
        fresh = cli._method_record(pt, row["method"], cli.TruncationPolicy(), 1e-12)
        assert row == {h: cli._fmt(fresh[h]) for h in cli._FIELD_HEADER}
        methods.setdefault(pt.x, set()).add(row["method"])
    assert methods == {0.4: {"bessho"}, 1.6: {"bessho", "paris"}, 2.8: {"paris"}}


_RANGE = st.tuples(st.floats(0.05, 3.0), st.floats(0.05, 3.0), st.integers(1, 3))


@settings(max_examples=25, derandomize=True, database=None, deadline=None)
@given(xs=_RANGE,
       rhos=st.tuples(st.floats(-3.3, 0.0), st.floats(-3.3, 0.0), st.integers(1, 3)),
       alpha_pi=st.floats(0.0, 0.5), alpha_count=st.integers(2, 5),
       chunk=st.integers(1, 12))
def test_field_rows_equal_fresh_records(xs, rhos, alpha_pi, alpha_count, chunk):
    # small grids whose alphas run from -a to a, so they hold +-alpha pairs,
    # taken in one group or several: every row is a fresh _method_record at
    # its point by field_route's method, bit for bit, in grid order
    import kelvinwake.cli as cli
    from kelvinwake.expansions import field_route

    x_range = f"{xs[0]!r}:{xs[1]!r}:{xs[2]}"
    rho_range = f"{10 ** rhos[0]!r}:{10 ** rhos[1]!r}:{rhos[2]}"
    alpha_range = f"{-alpha_pi!r}:{alpha_pi!r}:{alpha_count}"
    out = io.StringIO()
    with pytest.MonkeyPatch.context() as mp, contextlib.redirect_stdout(out):
        mp.setattr(cli, "FIELD_GROUP_POINTS", chunk)
        code = main(["field", "--x-range", x_range, "--rho-range", rho_range,
                     f"--alpha-pi-range={alpha_range}", "--format", "csv"])
    lines = out.getvalue().strip().split("\n")
    grid = [(x, rho, a * math.pi)
            for x in cli._grid(*cli._parse_range(x_range, "x"))
            for rho in cli._grid(*cli._parse_range(rho_range, "rho"))
            for a in cli._grid(*cli._parse_range(alpha_range, "alpha"))]
    assert len(lines) == 1 + len(grid)
    failed = 0
    for line, point in zip(lines[1:], grid):
        row = dict(zip(cli._FIELD_HEADER, line.split(",")))
        pt = EvalPoint(*point)
        fresh = cli._method_record(pt, field_route(pt), cli.TruncationPolicy(), 1e-12)
        assert row == {h: cli._fmt(fresh[h]) for h in cli._FIELD_HEADER}
        failed += fresh["status"] != "ok"
    assert code == (EXIT_TOLERANCE if failed else 0)


@pytest.mark.parametrize("argv", [
    ["field", "--x-range", f"0.5:1:{MAX_GRID_POINTS + 1}",
     "--rho-range", "0.01:0.01:1", "--alpha-pi-range", "0:0:1"],
    ["field", "--x-range", "0.5:1:2", "--rho-range", "0.01:0.01:1",
     "--alpha-range", f"0:1:{MAX_GRID_POINTS + 1}"],
    # every range within the cap, the grid twice over it
    ["field", "--x-range", f"0.5:1:{MAX_GRID_POINTS}",
     "--rho-range", "0.01:0.01:1", "--alpha-pi-range", "0:0.1:2"],
    ["coeffs", "--x-range", f"0.5:1:{MAX_GRID_POINTS + 1}"],
])
def test_grid_size_is_capped(capsys, monkeypatch, argv):
    import kelvinwake.cli as cli

    def no_work(*args, **kwargs):
        raise AssertionError("a grid was built or a point evaluated")

    for attr in ("_grid", "_method_record"):
        monkeypatch.setattr(cli, attr, no_work)
    for attr in ("Ladders", "ck_table"):
        monkeypatch.setattr(cli.expansions, attr, no_work)
    code, _, err = run(capsys, *argv)
    assert code == 2
    assert f"at most {MAX_GRID_POINTS}" in err


def test_field_requires_alpha_range(capsys):
    code, _, err = run(capsys, "field", "--x-range", "0.4:1:2",
                       "--rho-range", "0.01:0.02:2")
    assert code == 2
    assert "alpha" in err


_FIELD_GRID = ("field", "--x-range", "0.4:1:2", "--rho-range", "0.01:0.02:2")


@pytest.mark.parametrize("argv", [
    ["eval", "--x", "1", "--rho", "0.02", "--alpha", "0.1", "--alpha-pi", "0.4"],
    ["compare", "--x", "1", "--rho", "0.02", "--alpha", "0.1", "--alpha-pi", "0.4"],
    ["coeffs", "--x-range", "0.5:1:2", "--alpha", "0.1", "--alpha-pi", "0.4"],
    [*_FIELD_GRID, "--alpha-range", "0:0.1:2", "--alpha-pi-range", "0:0.4:2"],
])
def test_both_alpha_flags_exit_2(capsys, argv):
    # an angle in radians and one in units of pi together is a usage
    # error, returned from main with one line on stderr; each flag alone
    # still runs
    code, out, err = run(capsys, *argv, "--format", "csv")
    assert code == 2 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "not both" in err
    first = argv.index(argv[-4])
    for drop in (first, first + 2):
        assert run(capsys, *argv[:drop], *argv[drop + 2:], "--format", "csv")[0] == 0


def test_bad_range_spec(capsys):
    code, _, err = run(capsys, "field", "--x-range", "0.4:1", "--rho-range",
                       "0.01:0.02:2", "--alpha-pi-range", "0:0:1")
    assert code == 2


def test_bounds_all_certified(capsys):
    code, out, err = run(capsys, "bounds", "--format", "csv")
    assert code == 0
    lines = out.strip().split("\n")
    assert len(lines) == 14           # 12 remainder rows + gamma row + header
    for ln in lines[1:]:
        assert ln.split(",")[-1] == "1"


def test_bounds_labels_a_stalled_quadrature_by_its_type(capsys, monkeypatch):
    # an AccuracyError from the tail quadrature is not a violated bound
    from kelvinwake import bounds
    from kelvinwake.errors import AccuracyError

    def stalled(pt, n):
        raise AccuracyError("quadrature stalled: error 1e-10 against a tolerance of 1e-20")

    monkeypatch.setattr(bounds, "verify_remainder", stalled)
    code, out, err = run(capsys, "bounds", "--format", "csv")
    assert code == EXIT_TOLERANCE
    assert "bound violation" not in err
    assert err.count("AccuracyError: quadrature stalled") == 12
    lines = out.strip().split("\n")
    assert [ln.split(",")[-1] for ln in lines[1:]] == ["0"] * 12 + ["1"]


def test_csv_output_is_17_digit(capsys):
    code, out, _ = run(capsys, "eval", "--x", "0.4", "--rho", "0.005",
                       "--alpha", "0", "--method", "oracle", "--format", "csv")
    assert code == 0
    value_field = out.strip().split("\n")[1].split(",")[5]
    assert float(value_field) == oracle_F(EvalPoint(0.4, 0.005, 0.0)).value


def test_runs_without_scipy():
    # the package needs numpy alone: with scipy blocked from import, eval
    # runs every route at |alpha| = pi/2 and M = 1000 (oracle_F's contour),
    # field a small grid and verify_remainder one pair
    import os
    import subprocess
    import sys
    import textwrap

    import kelvinwake

    script = textwrap.dedent("""
        import math, sys
        sys.modules["scipy"] = None
        from kelvinwake import cli
        from kelvinwake.bounds import verify_remainder
        from kelvinwake.oracle import EvalPoint
        cli.main(["eval", "--x", "1", "--rho", "0.00025", "--alpha-pi", "0.5",
                  "--method", "all", "--format", "json"])
        assert cli.main(["field", "--x-range", "0.5:1:2", "--rho-range", "0.01:0.02:2",
                         "--alpha-pi-range=-0.5:0.5:3", "--format", "json"]) == 0
        verify_remainder(EvalPoint(1.0, 1 / 32, 0.2 * math.pi), 8)
        assert not [m for m in sys.modules if m.startswith("scipy.")]
    """)
    src = os.path.dirname(os.path.dirname(kelvinwake.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src, *filter(None, [os.environ.get("PYTHONPATH")])]))
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True,
                          text=True, env=env, timeout=120, check=False)
    assert proc.returncode == 0, proc.stderr
    rows = json.loads(proc.stdout.splitlines()[0])["rows"]
    oracle = rows[-1]
    assert oracle["method"] == "oracle" and oracle["status"] == "ok"
    # -0.22220307416678722 by the Bessel product series in 480-digit mpmath
    assert abs(oracle["value"] + 0.22220307416678722) <= oracle["error_estimate"]
