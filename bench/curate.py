"""Mark the cold-point pool inputs on which each route fails today.

A cold-point run must fail the same share of its operations on every seed,
so run.py draws the failing and the passing inputs of the pool apart, a
fixed number of each per round (see ColdPoints in run.py).  Both kinds are
timed and checked alike; this file only says which is which.

    python3 bench/curate.py        # after bench/reference.py; runs the program

writes data/failing.json: for each route, the index in the reference's
pool of every failing input and why it failed.  Run it again whenever a
route's results change; a run that meets an input whose outcome disagrees
with the file reports it as stale.
"""

from __future__ import annotations

import os
import sys
import warnings

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run  # noqa: E402


def main():
    warnings.simplefilter("ignore")
    kw = run.import_program()
    ref = run.load_json("reference.json.gz")
    nothing = {"failing": {route: [] for route in run.inputs.ROUTE_BINS}}
    index = {id(r): i for i, r in enumerate(ref["pool"])}
    lines = []
    for name, cls in (("paris", run.ColdParis), ("bessho", run.ColdBessho),
                      ("oracle", run.ColdOracle)):
        wl = cls(kw, ref, nothing, seed=0)
        failing = []
        total = 0
        for _key, members in wl.strata:
            for d in members:
                rec = run.Recorder()
                wl.one(d, rec)
                total += 1
                if rec.failed:
                    failing.append((index[id(d)], next(iter(rec.failures))))
        lines.append((name, sorted(failing)))
        print(f"{name}: {len(failing)} of {total} fail", file=sys.stderr)
    # one input a line, so that a change shows as a short diff
    path = os.path.join(run.BENCH, "data", "failing.json")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f'{{"program": "kelvinwake {kw.pkg.__version__}", "failing": {{\n')
        for i, (name, failing) in enumerate(lines):
            fh.write(f'"{name}": [\n')
            fh.write(",\n".join(f'[{k}, "{why}"]' for k, why in failing))
            fh.write("\n]" + (",\n" if i < len(lines) - 1 else "\n"))
        fh.write("}}\n")


if __name__ == "__main__":
    main()
