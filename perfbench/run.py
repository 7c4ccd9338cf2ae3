"""qpd benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seed N --seconds S --trace 0|1

Run from the root of a checkout.  Each workload runs in its own process
(``worker.py``) as a closed loop with one caller, through ``qpd.cli.main``
in-process, and every report is checked against the references recorded in
``perfbench/reference``.  With ``--trace 0`` the run first measures set-up in
fresh interpreters, then the workload, and prints every end-to-end metric of
``BENCHMARK.json``; with ``--trace 1`` it alternates untraced and traced
passes and prints every per-layer metric.  The last line of standard output
is one JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``.
The exit code is 1 when any output disagrees with the reference, and 2 when
the checkout has no program or references to run.

Workloads (why each was chosen is in BENCHMARK.json):
  sweep            sign-class tensors of the exhaustive sweep, oracle on
  inequalities     ``qpd --mode inequalities`` over all 20 variants
  analytic         seeded binary and sign-class ternary files, ``--no-oracle``

End-to-end metrics:
  setup_s          median of 3 fresh interpreters, each importing ``qpd.cli``
                   and serving one cold binary and one cold ternary request
  wall_s           median time of one complete pass over the run's inputs
  tensors_per_s    tensors answered per second of request time (on
                   inequalities: residual tensors checked, 20 per request)
  latency_p50_ms,  time per request from call to return; the sample count
  latency_p95_ms   is printed on the ``info`` line
  peak_rss_mb      peak resident memory of the workload process
Per-layer metrics are per traced pass; see ``spans.layer_metrics``.
"""
from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

import envinfo
import inputs
import reference
import worker

HERE = os.path.dirname(os.path.abspath(__file__))

WORKLOADS = ("sweep", "inequalities", "analytic")
SETUP_REPEATS = 3
# Set-up probe requests: a general binary and a sign-class ternary.
PROBE_ITEMS = ("bg-000", "ts-11_6-++-+++")
# Hard limit for a whole run, under the 180 s a run may take.
RUN_LIMIT_S = 170.0
WORKER = worker.__file__
OUT_DIR = os.path.join(HERE, "out")


def percentile(values, q: int) -> float:
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def load_spec() -> dict:
    with open(os.path.join(envinfo.ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def _python(args, timeout):
    proc = subprocess.run([sys.executable, *args], env=envinfo.child_env(), cwd=envinfo.ROOT,
                          capture_output=True, text=True, timeout=timeout, check=False)
    if proc.returncode != 0:
        raise RuntimeError(f"{args[0]} exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def measure_setup(remaining):
    """(median wall time, requests, failures) of fresh interpreters that each
    import ``qpd.cli`` and serve one cold binary and one cold ternary
    request.  ``remaining()`` gives the seconds left for the whole run."""
    pool = {it["id"]: it for it in inputs.build_pool()}
    paths = inputs.write_inputs([pool[i] for i in PROBE_ITEMS], worker.INPUT_DIR)
    expected = reference.load("classify")["items"]
    times, failures = [], []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        result = _python([WORKER, "--probe", *(paths[i] for i in PROBE_ITEMS)], remaining())
        times.append(time.perf_counter() - start)
        for item, (code, out) in zip(PROBE_ITEMS, result["outputs"]):
            problems = reference.check(expected[item], code, out)[1]
            if problems:
                failures.append(f"setup {item}: {'; '.join(problems[:3])}")
    return statistics.median(times), SETUP_REPEATS * len(PROBE_ITEMS), failures


def end_to_end(res: dict, setup_s: float) -> dict:
    lat = res["latencies"]
    busy = sum(lat)
    return {
        "setup_s": setup_s,
        "wall_s": statistics.median(res["pass_walls"]),
        "tensors_per_s": res["units"]["tensors"] / busy,
        "latency_p50_ms": percentile(lat, 50) * 1e3,
        "latency_p95_ms": percentile(lat, 95) * 1e3,
        "peak_rss_mb": res["peak_rss_mb"],
    }


def run_workload(args) -> int:
    start = time.time()
    deadline = start + args.seconds

    def remaining():
        return max(1.0, RUN_LIMIT_S - (time.time() - start))

    attempted, failures, setup_s = 0, [], None
    if not args.trace:
        setup_s, attempted, failures = measure_setup(remaining)
    trace_out = os.path.join(OUT_DIR, f"trace-{args.workload}-seed{args.seed}.json")
    res = _python([WORKER, "--workload", args.workload, "--seed", str(args.seed),
                   "--deadline", repr(deadline), "--trace", str(args.trace),
                   "--trace-out", trace_out], remaining())
    attempted += res["attempted"]
    failed = len(failures) + res["failed"]
    failures += res["failures"]

    spec = load_spec()
    listed = spec["per_layer"] if args.trace else spec["end_to_end"]
    values = res["layers"] if args.trace else end_to_end(res, setup_s)
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in listed}

    print(f"workload {args.workload} seed {args.seed} seconds {args.seconds} trace {args.trace}")
    print(f"env {envinfo.fingerprint(res['env'])} {json.dumps(res['env'], sort_keys=True)}")
    for name, m in metrics.items():
        print(f"metric {name} {m['value']:.6g} {m['unit']}")
    lat = res["latencies"]
    print(f"info latency_samples {len(lat)} passes {len(res['pass_walls'])}"
          f" failed_ratio {failed / attempted:.6g} ({failed}/{attempted})")
    if args.workload == "inequalities":
        print(f"info points_per_s {res['units']['points'] / sum(lat):.6g} 1/s")
    if args.trace:
        print(f"info traced_passes {res['traced_passes']} spans "
              f"{os.path.relpath(trace_out, envinfo.ROOT)}")
    for failure in failures[:20]:
        print(f"FAIL {failure}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if failed == 0 else 1


def run_all(args) -> int:
    """Every workload, one after another, each in its own processes."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    status = 0
    for workload in WORKLOADS:
        proc = subprocess.run([sys.executable, os.path.abspath(__file__), "--workload", workload,
                               "--seed", str(args.seed), "--seconds", str(args.seconds),
                               "--trace", str(args.trace)],
                              cwd=envinfo.ROOT, capture_output=True, text=True, check=False)
        sys.stdout.write(proc.stdout)
        sys.stderr.write(proc.stderr)
        status = max(status, proc.returncode)
        try:
            result = json.loads(proc.stdout.strip().splitlines()[-1])
        except (IndexError, ValueError):
            combined["correct"] = False
            continue
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for name, m in result["metrics"].items():
            combined["metrics"][f"{workload}.{name}"] = m
    print(json.dumps(combined))
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=40)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    missing = [p for p in (os.path.join(envinfo.SRC, "qpd", "cli.py"),
                           os.path.join(envinfo.ROOT, "BENCHMARK.json"),
                           *(os.path.join(reference.REFERENCE_DIR, f"{part}.json")
                             for part in ("classify", "analytic", "inequalities")))
               if not os.path.isfile(p)]
    if missing:
        print(f"error: cannot benchmark, missing {', '.join(missing)}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    try:
        return run_workload(args)
    except (RuntimeError, subprocess.TimeoutExpired, KeyError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
