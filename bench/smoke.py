"""Smoke check of the benchmark itself, in well under a minute.

    python3 bench/smoke.py

Runs every workload of BENCHMARK.json on a cut-down round, traced and
untraced, and checks that the last line reports the operation counts and
every metric BENCHMARK.json names, with its unit, and that no pool input
disagrees with data/failing.json.  Exits 1 on a mismatch.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    problems = []
    for wl in spec["workloads"]:
        for trace, wanted in ((0, spec["end_to_end"]), (1, spec["per_layer"])):
            cmd = spec["command"] + ["--workload", wl["name"], "--seed", "1",
                                     "--seconds", "0", "--trace", str(trace),
                                     "--smoke"]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                                  timeout=170, check=False)
            where = f"{wl['name']} --trace {trace}"
            if proc.returncode != 0 or not proc.stdout.strip():
                problems.append(f"{where}: exit {proc.returncode}: {proc.stderr[-300:]}")
                continue
            out = json.loads(proc.stdout.strip().splitlines()[-1])
            if set(out) != {"correct", "attempted", "failed", "metrics"}:
                problems.append(f"{where}: keys {sorted(out)}")
                continue
            if not (isinstance(out["attempted"], int) and out["attempted"] >= 1
                    and isinstance(out["failed"], int) and out["correct"] is True):
                problems.append(f"{where}: counts {out['attempted']}, "
                                f"{out['failed']}, correct {out['correct']}")
            if "stale:" in proc.stderr:
                problems.append(f"{where}: data/failing.json is stale")
            names = {m["name"]: m["unit"] for m in wanted}
            got = {k: v["unit"] for k, v in out["metrics"].items()}
            if got != names:
                problems.append(f"{where}: metrics differ: "
                                f"{sorted(set(got.items()) ^ set(names.items()))}")
            print(f"ok  {where}: attempted {out['attempted']}, failed {out['failed']}")
    for p in problems:
        print("FAIL", p)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
