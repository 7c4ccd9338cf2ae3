"""Self-tests of the benchmark's own machinery.

    python3 perfbench/selftest.py

Covers self time on a synthetic nested trace, oracle-fallback attribution,
that a perturbed report is counted as a failure, that results from different
environments are flagged as incomparable, and that the metric names in
BENCHMARK.json are the ones the benchmark produces.
"""
from __future__ import annotations

import json
import time
import types
import unittest

import envinfo
import inputs
import reference
import run
import spans
import worker


def _fake_clock(times):
    it = iter(times)
    return lambda: next(it)


class SpanTests(unittest.TestCase):
    def test_self_time_of_nested_trace(self):
        # outer [0, 10] holds a [1, 3] and b [4, 8]; b holds c [5, 6].
        rec = spans.Recorder(clock=_fake_clock([0, 1, 3, 4, 5, 6, 8, 10]))
        c = rec.wrap(lambda: None, "cli.main")
        a = rec.wrap(lambda: None, "tensors.parse")
        b = rec.wrap(lambda: c(), "tensors.evaluate")
        outer = rec.wrap(lambda: (a(), b()), "cli.main")
        outer()
        names = [s[0] for s in rec.spans]
        self.assertEqual(names, ["cli.main", "tensors.parse", "tensors.evaluate", "cli.main"])
        self.assertEqual([s[3] for s in rec.spans], [-1, 0, 0, 2])
        self.assertEqual(spans.self_times(rec.spans), [4, 2, 3, 1])

    def test_covered_merges_overlaps(self):
        self.assertEqual(spans.covered([(0, 2), (1, 3), (5, 6), (5.5, 5.75)]), 4)
        self.assertEqual(spans.covered([]), 0)

    def test_oracle_fallback_and_ratios(self):
        # binary.classify -> oracle.negative_witness -> oracle.min_on_sphere
        rec = spans.Recorder(clock=_fake_clock(range(100)))
        result = types.SimpleNamespace(min_value=-0.5, verdict=types.SimpleNamespace(value="NotPSD"))
        sphere = rec.wrap(lambda T: result, "oracle.min_on_sphere")
        witness = rec.wrap(lambda T: sphere(T), "oracle.negative_witness")
        classify = rec.wrap(lambda T: witness(T), "binary.classify")
        classify(types.SimpleNamespace(dim=2))
        m = spans.layer_metrics(rec.spans, traced_wall=10.0, passes=1)
        self.assertEqual(m["binary.oracle_fallback.calls"], 1)
        self.assertEqual(m["ternary.oracle_fallback.calls"], 0)
        self.assertEqual(m["oracle.min_on_sphere.calls"], 1)
        self.assertEqual(m["oracle.seed_points"], spans.seed_points(2))
        self.assertEqual(m["oracle.not_psd_attempts"], 1)
        self.assertEqual(m["oracle.not_psd_confirmed_ratio"], 1.0)
        self.assertAlmostEqual(sum(m[f"{layer}.self_share"] for layer in spans.LAYERS), 0.5)


class CheckTests(unittest.TestCase):
    """A perturbed report must be flagged; the real one must pass."""

    @classmethod
    def setUpClass(cls):
        envinfo.import_qpd()
        cls.ref = reference.load("classify")["items"]
        pool = {it["id"]: it for it in inputs.build_pool()}
        cls.item = next(i for i, r in cls.ref.items()
                        if i.startswith("ts-") and r["numeric"]["verdict"] == "NotPSD")
        path = inputs.write_inputs([pool[cls.item]], worker.INPUT_DIR)
        cls.code, cls.out = reference.call_cli([path[cls.item], "--format", "json"])

    def _perturbed(self, edit):
        report = json.loads(self.out)
        edit(report)
        return reference.check(self.ref[self.item], self.code, json.dumps(report))[1]

    def test_unperturbed_report_matches(self):
        self.assertEqual(reference.check(self.ref[self.item], self.code, self.out)[1], [])

    def test_perturbations_are_failures(self):
        edits = {
            "class": lambda r: r["analytic"].update({"class": "PositiveDefinite"}),
            "regime": lambda r: r["analytic"].update({"regime": "2"}),
            "witness": lambda r: r["witness_exact"].update({"value": "-1/3"}),
            "verdict": lambda r: r["numeric"].update({"verdict": "PD"}),
            "agreement": lambda r: r.update({"agreement": "conflict"}),
            "minimum": lambda r: r["numeric"].update({"min_value": r["numeric"]["min_value"] + 1e-6}),
            "confirmed": lambda r: r["numeric"].update({"confirmed_exact": "1/7"}),
        }
        for name, edit in edits.items():
            with self.subTest(name):
                self.assertNotEqual(self._perturbed(edit), [])
        self.assertNotEqual(reference.check(self.ref[self.item], 2, self.out)[1], [])
        self.assertNotEqual(reference.check(self.ref[self.item], 0, "not json")[1], [])

    def test_perturbed_reference_counts_as_failed_request(self):
        loop = worker.Run("analytic", seed=0, deadline=time.time())
        rid, argv, expected = loop.requests[0]
        wrong = json.loads(json.dumps(expected))
        wrong["analytic"]["class"] = "UndeterminedByTheory"
        loop.requests = [(rid, argv, wrong)] + loop.requests[1:5]
        loop.one_pass(False, False)
        self.assertEqual(loop.attempted, 5)
        self.assertEqual(len(loop.failures), 1)


class EnvTests(unittest.TestCase):
    def test_different_settings_are_incomparable(self):
        env = {"python": "3.11.7", "numpy": "2.4.6", "blas_threads": {"OPENBLAS_NUM_THREADS": "1"},
               "nproc": 2, "cpu_model": "x"}
        self.assertEqual(envinfo.incomparable(env, dict(env)), [])
        other = dict(env, blas_threads={"OPENBLAS_NUM_THREADS": "2"})
        self.assertEqual(envinfo.incomparable(env, other), ["blas_threads"])
        self.assertNotEqual(envinfo.fingerprint(env), envinfo.fingerprint(other))


class SpecTests(unittest.TestCase):
    def test_benchmark_json_names_match_produced_metrics(self):
        spec = run.load_spec()
        fake = {"latencies": [0.1, 0.2], "pass_walls": [0.3], "units": {"tensors": 2},
                "peak_rss_mb": 50.0}
        self.assertEqual({m["name"] for m in spec["end_to_end"]}, set(run.end_to_end(fake, 1.0)))
        layers = set(spans.layer_metrics([], 1.0, 1)) | {"trace.overhead_ratio"}
        self.assertEqual({m["name"] for m in spec["per_layer"]}, layers)
        self.assertEqual({w["name"] for w in spec["workloads"]}, set(run.WORKLOADS))


if __name__ == "__main__":
    unittest.main()
