"""Run the benchmark over several seeds and summarize each end-to-end metric.

    python3 perfbench/baseline.py --out perfbench/BENCH_1.json [--seeds 1-10]
        [--workloads sweep,analytic] [--seconds 40] [--traced 1]

For every workload, runs ``run.py --trace 0`` once per seed (one run at a
time), then ``--traced`` runs with ``--trace 1``.  For each metric it records
the median, the quartiles (``statistics.quantiles(values, n=4)``) and the
spread: the interquartile distance as a share of the median, next to the
metric's bound.  The file also records the environment of every run; compare
two such files with ``compare.py``.
"""
from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

import envinfo
import run as bench

HERE = os.path.dirname(os.path.abspath(__file__))


def _seeds(text: str) -> list[int]:
    if "-" in text:
        lo, hi = map(int, text.split("-"))
        return list(range(lo, hi + 1))
    return [int(s) for s in text.split(",")]


def one_run(workload, seed, seconds, trace) -> dict:
    proc = subprocess.run([sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
                           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
                          cwd=envinfo.ROOT, capture_output=True, text=True, check=False)
    lines = proc.stdout.strip().splitlines()
    if not lines or not lines[-1].startswith("{"):
        raise RuntimeError(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr}")
    result = json.loads(lines[-1])
    env = next(json.loads(line.split(" ", 2)[2]) for line in lines if line.startswith("env "))
    info = [line[5:] for line in lines if line.startswith("info ")]
    return {"seed": seed, "trace": trace, "exit": proc.returncode, "correct": result["correct"],
            "attempted": result["attempted"], "failed": result["failed"], "env": env,
            "info": info, "metrics": {k: v["value"] for k, v in result["metrics"].items()}}


def summarize(runs, specs) -> dict:
    out = {}
    for spec in specs:
        values = [r["metrics"][spec["name"]] for r in runs]
        med = statistics.median(values)
        q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med, med, med)
        out[spec["name"]] = {"unit": spec["unit"], "better": spec["better"], "median": med,
                             "q1": q1, "q3": q3, "spread": (q3 - q1) / med if med else 0.0,
                             "bound": spec.get("bound")}
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--out", required=True)
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--workloads", default=",".join(bench.WORKLOADS))
    parser.add_argument("--seconds", type=int, default=None)
    parser.add_argument("--traced", type=int, default=1, help="traced runs per workload")
    args = parser.parse_args(argv)
    spec = bench.load_spec()
    seconds = args.seconds or spec["run_seconds"]
    seeds = _seeds(args.seeds)
    doc = {"run_seconds": seconds, "seeds": seeds, "workloads": {}}
    status = 0
    for workload in args.workloads.split(","):
        runs = [one_run(workload, s, seconds, 0) for s in seeds]
        traced = [one_run(workload, s, seconds, 1) for s in seeds[: args.traced]]
        summary = summarize(runs, spec["end_to_end"])
        doc["workloads"][workload] = {"summary": summary, "runs": runs, "traced": traced}
        for name, s in summary.items():
            flag = "" if name == "setup_s" or s["spread"] <= s["bound"] / 3 else "  WIDE"
            print(f"{workload:16s} {name:15s} median {s['median']:10.5g} {s['unit']:5s} "
                  f"spread {s['spread']:.4f} (bound {s['bound']}){flag}")
        bad = [r["seed"] for r in runs + traced if not r["correct"] or r["exit"] != 0]
        if bad:
            print(f"{workload}: incorrect or failed runs for seeds {bad}")
            status = 1
        sys.stdout.flush()
    envs = {envinfo.fingerprint(r["env"]): r["env"]
            for w in doc["workloads"].values() for r in w["runs"] + w["traced"]}
    doc["env"] = next(iter(envs.values())) if len(envs) == 1 else list(envs.values())
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return status


if __name__ == "__main__":
    sys.exit(main())
