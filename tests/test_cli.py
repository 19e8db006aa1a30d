"""CLI behaviour: argument validation, output formats, exit codes and
byte-level determinism."""

import json
import math

import pytest

from kelvinwake.cli import main
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
    code, out, _ = run(capsys, "field", "--x-range", "0.8:0.8:1",
                       "--rho-range", "0.02:0.02:1",
                       "--alpha-pi-range", "0.2:0.2:1", "--format", "json")
    assert code == 0
    row = json.loads(out)["rows"][0]
    code2, out2, _ = run(capsys, "eval", "--x", "0.8", "--rho", "0.02",
                         "--alpha-pi", "0.2", "--method", "paris",
                         "--format", "json")
    assert code2 == 0
    assert row["value"] == json.loads(out2)["rows"][0]["value"]


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


def test_field_thread_count_from_environment(tmp_path, capsys, monkeypatch):
    args = ["field", "--x-range", "0.5:0.6:2", "--rho-range", "0.01:0.01:1",
            "--alpha-pi-range", "0:0.1:2", "--format", "csv"]
    ref = tmp_path / "ref.csv"
    env = tmp_path / "env.csv"
    assert main(args + ["--threads", "1", "--out", str(ref)]) == 0
    monkeypatch.setenv("KELVIN_THREADS", "4")
    assert main(args + ["--out", str(env)]) == 0
    capsys.readouterr()
    assert ref.read_bytes() == env.read_bytes()


def test_field_thread_count_is_capped(capsys, monkeypatch):
    import kelvinwake.cli as cli

    def no_pool(*args, **kwargs):
        raise AssertionError("a thread pool was started")

    monkeypatch.setattr(cli, "ThreadPoolExecutor", no_pool)
    code, _, err = run(capsys, "field", "--x-range", "0.5:0.6:2",
                       "--rho-range", "0.01:0.01:1", "--alpha-pi-range", "0:0.1:2",
                       "--threads", str(10 ** 9))
    assert code == 2
    assert f"at most {cli.MAX_THREADS}" in err


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


def test_csv_output_is_17_digit(capsys):
    code, out, _ = run(capsys, "eval", "--x", "0.4", "--rho", "0.005",
                       "--alpha", "0", "--method", "oracle", "--format", "csv")
    assert code == 0
    value_field = out.strip().split("\n")[1].split(",")[5]
    assert float(value_field) == oracle_F(EvalPoint(0.4, 0.005, 0.0)).value
