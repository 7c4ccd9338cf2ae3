"""Record the reference outputs the benchmark checks against.

    python3 perfbench/record.py [classify|analytic|inequalities ...]

Runs the pool items the workloads send (and every inequalities seed) once
through ``qpd.cli.main`` and writes the normalized reports to
``perfbench/reference/<part>.json``, with each request's time (the benchmark
stratifies its choice of inputs by it, so the times are kept as recorded on
the machine named in the file's ``env``).  Recording takes several minutes on
one core; rerun it only when a change is meant to alter outputs.
"""
from __future__ import annotations

import json
import os
import statistics
import sys
import time

import envinfo
import inputs
import reference
from run import PROBE_ITEMS
from worker import ANALYTIC_ARGS, CLASSIFY_ARGS, INPUT_DIR, inequalities_argv


def _run(argv):
    start = time.perf_counter()
    code, out = reference.call_cli(argv)
    elapsed = time.perf_counter() - start
    return reference.normalize(code, out), elapsed


def record_items(part, items, paths, args):
    result = {"args": list(args), "items": {}, "cost_ms": {}}
    times: dict = {}
    for item in items:
        got, elapsed = _run([paths[item["id"]], *args])
        result["items"][item["id"]] = got
        result["cost_ms"][item["id"]] = round(elapsed * 1e3, 2)
        times.setdefault(item["category"], []).append(elapsed * 1e3)
    for category, ts in sorted(times.items()):
        q = statistics.quantiles(ts, n=10)
        print(f"{part} {category} n={len(ts)} p10={q[0]:.1f}ms median={statistics.median(ts):.1f}ms"
              f" p90={q[-1]:.1f}ms max={max(ts):.1f}ms", file=sys.stderr)
    return result


def main(parts) -> int:
    os.environ.update({var: str(envinfo.BLAS_THREADS) for var in envinfo.THREAD_VARS})
    envinfo.import_qpd()
    pool = inputs.build_pool()
    paths = inputs.write_inputs(pool, INPUT_DIR)
    for part in parts:
        if part == "classify":
            # sweep sends the studied sign-class ternaries; set-up also sends one binary.
            used = [it for it in pool if it["category"] == "ter_studied" or it["id"] in PROBE_ITEMS]
            result = record_items(part, used, paths, CLASSIFY_ARGS)
        elif part == "analytic":
            in_class = [it for it in pool if it["category"] != "ter_general"]
            result = record_items(part, in_class, paths, ANALYTIC_ARGS)
        elif part == "inequalities":
            result = {"samples": inputs.INEQ_SAMPLES, "by_seed": {}}
            for cli_seed in inputs.INEQ_SEEDS:
                got, elapsed = _run(inequalities_argv(inputs.INEQ_SAMPLES, cli_seed))
                result["by_seed"][str(cli_seed)] = got
                print(f"inequalities seed={cli_seed} {elapsed:.2f}s", file=sys.stderr)
        else:
            print(f"unknown part {part!r}", file=sys.stderr)
            return 2
        result["env"] = envinfo.record()
        with open(os.path.join(reference.REFERENCE_DIR, part + ".json"), "w",
                  encoding="utf-8") as fh:
            json.dump(result, fh, indent=1, sort_keys=True)
            fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:] or ["classify", "analytic", "inequalities"]))
