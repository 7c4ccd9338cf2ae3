"""The workload process: one closed loop with a single caller, sending every
request through ``qpd.cli.main`` in-process and checking each report against
the recorded reference.  Started by ``run.py``; prints one JSON line.

With ``--probe`` it instead serves the two cold set-up requests (one binary,
one ternary) in a fresh interpreter and prints their reports.
"""
from __future__ import annotations

import argparse
import contextlib
import json
import os
import resource
import sys
import time

import envinfo
import inputs
import reference
import spans

HERE = os.path.dirname(os.path.abspath(__file__))

CLASSIFY_ARGS = ("--format", "json")
ANALYTIC_ARGS = ("--no-oracle", "--format", "json")
INPUT_DIR = os.path.join(HERE, "out", "inputs")


def probe(paths) -> dict:
    envinfo.import_qpd()
    return {"outputs": [reference.call_cli([p, *CLASSIFY_ARGS]) for p in paths]}


def inequalities_argv(samples: int, cli_seed: int) -> list[str]:
    return ["--mode", "inequalities", "--samples", str(samples), "--seed", str(cli_seed),
            "--format", "json"]


def requests_for(workload: str, seed: int) -> list[tuple]:
    """(id, argv, expected report) for each request of a pass."""
    if workload == "inequalities":
        ref = reference.load("inequalities")
        cli_seed = inputs.inequalities_seed(seed)
        return [(f"inequalities-{cli_seed}", inequalities_argv(ref["samples"], cli_seed),
                 ref["by_seed"][str(cli_seed)])]
    analytic = workload == "analytic"
    ref = reference.load("analytic" if analytic else "classify")
    args = ANALYTIC_ARGS if analytic else CLASSIFY_ARGS
    pool = [it for it in inputs.build_pool() if it["id"] in ref["items"]]
    chosen = inputs.choose_pass(workload, seed, pool, ref["cost_ms"])
    paths = inputs.write_inputs({it["id"]: it for it in chosen}.values(), INPUT_DIR)
    return [(it["id"], [paths[it["id"]], *args], ref["items"][it["id"]]) for it in chosen]


class Run:
    """Closed loop over the pass's requests, collecting latencies, pass
    times, work units and failures."""

    def __init__(self, workload: str, seed: int, deadline: float):
        self.workload, self.deadline = workload, deadline
        self.requests = requests_for(workload, seed)
        self.recorder = spans.Recorder()
        self.latencies: list[float] = []
        self.pass_walls: dict[bool, list[float]] = {False: [], True: []}
        self.units = {"tensors": 0, "points": 0}
        self.failures: list[str] = []
        self.attempted = 0
        self.last: dict[str, float] = {}

    def send(self, request, tracing: bool) -> float:
        """Send one request, check its report and return its latency."""
        rid, argv, expected = request
        self.recorder.request = self.attempted
        self.attempted += 1
        error = None
        with spans.Patch(self.recorder) if tracing else contextlib.nullcontext():
            start = time.perf_counter()
            try:
                code, out = reference.call_cli(argv)
            except Exception as exc:  # a raise is a failed operation
                error = exc
            elapsed = self.last[rid] = time.perf_counter() - start
        if error is None:
            got, problems = reference.check(expected, code, out)
        else:
            got, problems = None, [f"raised {error!r}"]
        self.latencies.append(elapsed)
        if problems:
            self.failures.append(f"{rid}: {'; '.join(problems[:3])}")
        elif self.workload == "inequalities":
            self.units["tensors"] += len(got["results"])
            self.units["points"] += sum(r["checked_points"] for r in got["results"])
        else:
            self.units["tensors"] += 1
        return elapsed

    def one_pass(self, tracing: bool, may_stop: bool) -> bool:
        """One pass over the requests.  With ``may_stop``, a request that is
        predicted (by its own last latency) to end after the deadline is not
        started, and the pass is left incomplete."""
        wall = 0.0
        for request in self.requests:
            if may_stop and time.time() + self.last.get(request[0], 0.0) > self.deadline:
                return False
            wall += self.send(request, tracing)
        self.pass_walls[tracing].append(wall)
        return True

    def untraced(self) -> None:
        may_stop = False
        while self.one_pass(False, may_stop) and time.time() < self.deadline:
            may_stop = True

    def traced(self) -> None:
        """Alternate untraced and traced passes over the same inputs; start
        another pair only if it is predicted to end before the deadline."""
        while True:
            self.one_pass(False, False)
            self.one_pass(True, False)
            pair = self.pass_walls[False][-1] + self.pass_walls[True][-1]
            if time.time() + pair > self.deadline:
                return

    def result(self, traced: bool, trace_out: str) -> dict:
        out = {
            "latencies": self.latencies,
            "pass_walls": self.pass_walls[False],
            "attempted": self.attempted,
            "failed": len(self.failures),
            "failures": self.failures[:20],
            "units": self.units,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            "env": envinfo.record(),
        }
        if traced:
            walls, plain = self.pass_walls[True], self.pass_walls[False]
            layers = spans.layer_metrics(self.recorder.spans, sum(walls), len(walls))
            layers["trace.overhead_ratio"] = (sum(walls) / len(walls)) / (sum(plain) / len(plain))
            out["layers"] = layers
            out["traced_passes"] = len(walls)
            os.makedirs(os.path.dirname(trace_out), exist_ok=True)
            self.recorder.dump(trace_out)
        return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--probe", nargs=2, metavar="FILE")
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--deadline", type=float, default=0.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--trace-out", default="")
    args = parser.parse_args(argv)
    if args.probe:
        print(json.dumps(probe(args.probe)))
        return 0
    envinfo.import_qpd()
    run = Run(args.workload, args.seed, args.deadline)
    run.traced() if args.trace else run.untraced()
    print(json.dumps(run.result(bool(args.trace), args.trace_out)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
