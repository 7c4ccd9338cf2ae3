"""Compare two files written by ``baseline.py`` (parent first, change second).

    python3 perfbench/compare.py perfbench/BENCH_0.json BENCH_new.json

Refuses, with exit code 1, when the two were measured in different
environments (Python, numpy, BLAS library or threads, CPUs): such numbers are
not comparable.  Otherwise prints, per workload and end-to-end metric, both
medians, the change, and whether it is worse than the metric's bound.
"""
from __future__ import annotations

import json
import sys

import envinfo


def _env(doc):
    env = doc["env"]
    if isinstance(env, list):
        raise SystemExit("error: the runs inside one file used different environments")
    return env


def main(argv) -> int:
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    with open(argv[0], encoding="utf-8") as fh:
        base = json.load(fh)
    with open(argv[1], encoding="utf-8") as fh:
        new = json.load(fh)
    differ = envinfo.incomparable(_env(base), _env(new))
    if differ:
        print(f"incomparable: environments differ in {', '.join(differ)}")
        return 1
    worse = 0
    for workload, b in base["workloads"].items():
        n = new["workloads"].get(workload)
        if n is None:
            print(f"{workload}: missing from {argv[1]}")
            continue
        for name, bs in b["summary"].items():
            ns = n["summary"][name]
            change = ns["median"] / bs["median"] - 1
            regress = (change if bs["better"] == "lower" else -change) > bs["bound"]
            worse += regress
            print(f"{workload:16s} {name:15s} {bs['median']:10.5g} -> {ns['median']:10.5g} "
                  f"{change:+.2%}{'  WORSE than bound ' + str(bs['bound']) if regress else ''}")
    return 0 if not worse else 3


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
