"""Spans and counters around kelvinwake's layers, installed from outside.

Each wrapper replaces a function on the module whose code looks it up, so
the program's own call sites record spans without any change to it:
oracle_Ck, for instance, is wrapped where expansions and bounds call it,
outside its lru_cache, and the cache keeps working.  Double-double
operations are only counted: every kernel that uses them goes through a
module alias `dd`, which is swapped for a counting proxy.

Spans live in memory as (name, start, end, parent, extra) and are written
out by dump() when the run ends.
"""

from __future__ import annotations

import functools
import threading
import types
from time import perf_counter


class Tracer:
    def __init__(self):
        self.spans = []
        self.dd_ops = 0
        self._local = threading.local()
        self._undo = []

    # -- recording --------------------------------------------------------

    def _stack(self):
        st = getattr(self._local, "stack", None)
        if st is None:
            st = self._local.stack = []
        return st

    def wrap(self, name, fn, extra=None, probe=None):
        """fn recording a span; extra(result, probe()) is kept with it."""
        spans = self.spans
        stack = self._stack

        def traced(*args, **kwargs):
            st = stack()
            parent = st[-1] if st else -1
            idx = len(spans)
            spans.append(None)
            st.append(idx)
            before = probe() if probe else None
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                spans[idx] = (name, t0, perf_counter(), parent, None)
                raise
            finally:
                st.pop()
            t1 = perf_counter()
            spans[idx] = (name, t0, t1, parent,
                          extra(result, before) if extra else None)
            return result

        return functools.wraps(fn)(traced)

    def patch(self, module, attr, name, extra=None, probe=None):
        original = getattr(module, attr)
        setattr(module, attr, self.wrap(name, original, extra, probe))
        self._undo.append((module, attr, original))

    def count_dd(self, module, dd):
        """Replace module.dd by a proxy whose functions count their calls."""
        tracer = self
        proxy = types.SimpleNamespace()
        for attr, val in vars(dd).items():
            if attr.startswith("_") or not callable(val):
                setattr(proxy, attr, val)
                continue

            def counted(*args, _f=val):
                tracer.dd_ops += 1
                return _f(*args)

            setattr(proxy, attr, counted)
        original = module.dd
        module.dd = proxy
        self._undo.append((module, "dd", original))

    def uninstall(self):
        for module, attr, original in reversed(self._undo):
            setattr(module, attr, original)
        self._undo.clear()

    # -- reading ----------------------------------------------------------

    def layer_stats(self):
        """{name: {"calls", "total", "self", "extras": [...]}} in seconds."""
        child_time = [0.0] * len(self.spans)
        for name, t0, t1, parent, _ in self.spans:
            if parent >= 0:
                child_time[parent] += t1 - t0
        out = {}
        for i, (name, t0, t1, _parent, extra) in enumerate(self.spans):
            s = out.setdefault(name, {"calls": 0, "total": 0.0, "self": 0.0,
                                      "extras": []})
            s["calls"] += 1
            s["total"] += t1 - t0
            s["self"] += (t1 - t0) - child_time[i]
            if extra is not None:
                s["extras"].append((t1 - t0, extra))
        return out

    def dump(self, path):
        """One line per span: name, start, end, parent index (-1 = root)."""
        base = self.spans[0][1] if self.spans else 0.0
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("name,start_s,end_s,parent\n")
            for name, t0, t1, parent, _ in self.spans:
                fh.write(f"{name},{t0 - base:.9f},{t1 - base:.9f},{parent}\n")


def install(tracer, kw):
    """Wrap the public functions of every layer where their callers look
    them up.  kw is a namespace holding the kelvinwake modules."""
    cli, exp, orc, bnd, spf = kw.cli, kw.expansions, kw.oracle, kw.bounds, kw.specfun
    ck_info = orc.oracle_Ck.cache_info

    def ck_misses():
        return ck_info().misses

    def ck_extra(result, misses_before):
        missed = ck_info().misses > misses_before
        return (missed, result.evaluations if missed else 0)

    def quad_extra(result, _):
        return result.evaluations

    def paris_extra(result, _):
        return (result.terms_used, result.n_used)

    def bessho_extra(result, _):
        return result.terms_used

    tracer.patch(cli, "cmd_field", "cli.field")
    tracer.patch(exp, "paris_F", "expansions.paris_F", paris_extra)
    tracer.patch(exp, "bessho_F", "expansions.bessho_F", bessho_extra)
    for attr in ("ck_table", "ck_recurrence", "asymptotic_sum", "saddle_term",
                 "curly_F_residual"):
        tracer.patch(exp, attr, "expansions." + attr)
    tracer.patch(exp, "struve_k_scaled", "specfun.struve_k_scaled")
    for mod in (exp, bnd):
        tracer.patch(mod, "oracle_Ck", "oracle.oracle_Ck", ck_extra, ck_misses)
    for mod in (cli, exp, orc):
        tracer.patch(mod, "oracle_F", "oracle.oracle_F", quad_extra)
    tracer.patch(bnd, "oracle_I2", "oracle.oracle_I2")
    for mod in (orc, bnd):
        tracer.patch(mod, "upper_inc_gamma", "specfun.upper_inc_gamma")
    tracer.patch(bnd, "verify_remainder", "bounds.verify_remainder")
    tracer.patch(bnd, "verify_inc_gamma_bound", "bounds.verify_inc_gamma_bound")
    for mod in (spf, exp):
        tracer.count_dd(mod, kw.ddouble)
