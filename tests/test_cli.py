"""CLI behaviour: argument validation, output formats, exit codes and
byte-level determinism."""

import json
import math

import pytest

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


def test_alpha_validation_exits_2(capsys):
    code, _, err = run(capsys, "eval", "--x", "0.4", "--rho", "0.005",
                       "--alpha", "2.0")
    assert code == 2
    assert "pi/2" in err


def test_box_validation_exits_2(capsys):
    code, _, err = run(capsys, "eval", "--x", "4.0", "--rho", "0.005",
                       "--alpha", "0")
    assert code == 2


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
def test_field_hscal_block_per_group_of_columns(capsys, monkeypatch, chunk, groups):
    # one array pass per group of columns of at most HSCAL_BLOCK_CHUNK
    # (rho, |alpha|) points, over exactly that group's paris x c, so the
    # pass grows with a group, not with the grid
    import kelvinwake.cli as cli

    block = cli.expansions.hscal_block
    calls = []

    def recording(xcs):
        calls.append(sorted(set(xcs)))
        return block(calls[-1])

    monkeypatch.setattr(cli.expansions, "hscal_block", recording)
    monkeypatch.setattr(cli.expansions, "HSCAL_BLOCK_CHUNK", chunk)
    code, out, _ = run(capsys, "field", "--x-range", "0.4:2.8:3",
                       "--rho-range", "0.001:0.05:2",
                       "--alpha-pi-range=-0.5:0.5:5", "--format", "json",
                       "--threads", "2")
    assert code == 0
    rows = json.loads(out)["rows"]
    want = []
    for group in groups:
        pts = [EvalPoint(r["x"], r["rho"], r["alpha"]) for r in rows
               if r["x"] in group and r["method"] == "paris"]
        want.append(sorted({pt.x * pt.c for pt in pts}))
    assert calls == want
    assert all(calls)


@pytest.mark.parametrize("chunk,threads", [(4096, "1"), (12, "2"), (5, "2")])
def test_field_group_passes_equal_fresh_calls(capsys, monkeypatch, chunk, threads):
    # all-bessho (x = 0.4), mixed (x = 1.6) and all-paris (x = 2.8)
    # columns, in one group or several, on one thread or two: every row
    # has the fields of a fresh scalar evaluation, bit for bit
    import kelvinwake.cli as cli

    monkeypatch.setattr(cli.expansions, "HSCAL_BLOCK_CHUNK", chunk)
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

    for attr in ("_grid", "_field_column", "_field_point", "_method_record"):
        monkeypatch.setattr(cli, attr, no_work)
    monkeypatch.setattr(cli.expansions, "ck_table", no_work)
    code, _, err = run(capsys, *argv)
    assert code == 2
    assert f"at most {MAX_GRID_POINTS}" in err


def test_field_requires_alpha_range(capsys):
    code, _, err = run(capsys, "field", "--x-range", "0.4:1:2",
                       "--rho-range", "0.01:0.02:2")
    assert code == 2
    assert "alpha" in err


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
