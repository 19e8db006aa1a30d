"""The benchmark's tracing hooks still find what they wrap.

bench/tracing.py wraps the program's functions by name on its modules, and
a per-layer metric reads 0 when a wrapped name, or the call that reached
it, is gone.  This test loads the file as it is, installs its tracer on
the package, runs one call of each traced layer and requires a span for
each of them."""

import importlib.util
import math
import os
import pathlib
import types

import kelvinwake.cli
from kelvinwake import bounds, ddouble, expansions, oracle, specfun
from kelvinwake.oracle import EvalPoint

_TRACING = pathlib.Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", _TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_records_every_layer():
    tracing = _load_tracing()
    tracer = tracing.Tracer()
    kw = types.SimpleNamespace(cli=kelvinwake.cli, expansions=expansions, oracle=oracle,
                               bounds=bounds, specfun=specfun, ddouble=ddouble)
    oracle.oracle_Ck.cache_clear()
    tracing.install(tracer, kw)
    try:
        # each call goes through the module attribute the tracer replaced
        expansions.paris_F(EvalPoint(1.3, 0.02, 0.3))
        expansions.bessho_F(EvalPoint(1.0, 0.1, 0.2))
        oracle.oracle_F(EvalPoint(1.0, 0.05, 0.5 * math.pi))
        bounds.verify_remainder(EvalPoint(0.4, 0.005, 0.0), 1)
    finally:
        tracer.uninstall()
    names = [name for name, *_ in tracer.spans]
    spans = set(names)
    assert {"expansions.paris_F", "expansions.ck_table", "oracle.oracle_Ck",
            "expansions.asymptotic_sum", "expansions.saddle_term",
            "expansions.bessho_F", "oracle.oracle_F", "oracle.oracle_I2",
            "bounds.verify_remainder"} <= spans
    # verify_remainder reads its C_k through bounds.oracle_Ck, so certify's
    # oracle.oracle_Ck metrics count it
    verify = names.index("bounds.verify_remainder")
    assert any(name == "oracle.oracle_Ck" and parent == verify
               for name, _, _, parent, _ in tracer.spans)
    assert tracer.dd_ops > 0
    # uninstall put every original back
    assert expansions.dd is ddouble and specfun.dd is ddouble
    assert not hasattr(expansions.paris_F, "__wrapped__")


def test_tracer_records_field_and_its_routes():
    # a field grid with both routes: cmd_field, found through main's
    # parser however early that was built, and each point's route under it
    tracing = _load_tracing()
    tracer = tracing.Tracer()
    kw = types.SimpleNamespace(cli=kelvinwake.cli, expansions=expansions, oracle=oracle,
                               bounds=bounds, specfun=specfun, ddouble=ddouble)
    argv = ["field", "--x-range", "0.4:1.6:2", "--rho-range", "0.01:0.05:2",
            "--alpha-pi-range=-0.25:0.25:2", "--format", "csv", "--out", os.devnull]
    kelvinwake.cli._parser()
    tracing.install(tracer, kw)
    try:
        assert kelvinwake.cli.main(argv) == 0
    finally:
        tracer.uninstall()
    names = [name for name, *_ in tracer.spans]
    field = names.index("cli.field")
    routes = [(name, parent) for name, _, _, parent, _ in tracer.spans
              if name in ("expansions.paris_F", "expansions.bessho_F")]
    assert {name for name, _ in routes} == {"expansions.paris_F", "expansions.bessho_F"}
    assert all(parent == field for _, parent in routes)
