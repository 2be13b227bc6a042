"""Tests of the benchmark's own helpers. Run from the repository root:

    python3 -m unittest discover -s perfbench
"""

import json
import unittest
from collections import Counter
from pathlib import Path

import bench_lib

BENCHMARK_JSON = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


class PercentileTest(unittest.TestCase):
    def test_nearest_rank(self):
        samples = list(range(1, 101))
        self.assertEqual(bench_lib.percentile(samples, 50), 50)
        self.assertEqual(bench_lib.percentile(samples, 90), 90)
        self.assertEqual(bench_lib.percentile(list(reversed(samples)), 50),
                         50)

    def test_ten_beyond_rule(self):
        # p95 of n samples has n - ceil(0.95 n) samples above it.
        self.assertEqual(bench_lib.percentile(list(range(200)), 95), 189)
        self.assertIsNone(bench_lib.percentile(list(range(199)), 95))
        self.assertIsNone(bench_lib.percentile(list(range(15)), 50))
        self.assertEqual(bench_lib.percentile(list(range(20)), 50), 9)
        self.assertIsNone(bench_lib.percentile([], 50))

    def test_unsupported_p95_fails_the_reduction(self):
        raw = fake_raw(latencies=150)
        with self.assertRaises(ValueError):
            bench_lib.end_to_end(raw)


class SeedTest(unittest.TestCase):
    def test_same_seed_same_bytes(self):
        for workload in bench_lib.WORKLOADS:
            a = bench_lib.request_file_text(bench_lib.requests(workload, 7))
            b = bench_lib.request_file_text(bench_lib.requests(workload, 7))
            self.assertEqual(a.encode(), b.encode(), workload)

    def test_other_seed_other_list(self):
        for workload in bench_lib.WORKLOADS:
            a = bench_lib.request_file_text(bench_lib.requests(workload, 7))
            b = bench_lib.request_file_text(bench_lib.requests(workload, 8))
            self.assertNotEqual(a, b, workload)

    def test_point_round_shares(self):
        for workload in ("point", "publish"):
            reqs = bench_lib.requests(workload, 3)
            products = bench_lib.products_for(
                bench_lib.WORKLOADS[workload][0])
            producers = bench_lib.producers_for(products)
            kinds = Counter(k for k, _, _ in reqs)
            self.assertEqual(kinds["snowflake"], producers)
            for kind, weight in bench_lib.POINT_MIX:
                self.assertAlmostEqual(kinds[kind] / len(reqs),
                                       weight / 10, places=2)
            self.assertEqual(reqs[0][0], "snowflake")
            snowflakes = [t for k, _, t in reqs if k == "snowflake"]
            self.assertEqual(len(set(snowflakes)), producers)

    def test_first_request_does_not_depend_on_the_seed(self):
        for workload in bench_lib.WORKLOADS:
            firsts = {bench_lib.requests(workload, seed)[0]
                      for seed in range(1, 20)}
            self.assertEqual(len(firsts), 1, workload)
        first = bench_lib.requests("point", 5)[0]
        self.assertEqual(first[0], "snowflake")
        self.assertIn("producer/Producer0>", first[2])

    def test_one_request_per_line(self):
        text = bench_lib.request_file_text(bench_lib.requests("drain", 1))
        lines = text.splitlines()
        self.assertEqual(len(lines),
                         sum(n for _, _, n in bench_lib.DRAIN_MIX))
        for line in lines:
            kind, planner, sparql = line.split("\t")
            self.assertIn(planner, ("naive", "greedy"))
            self.assertTrue(sparql.startswith("PREFIX b: "))


class NameTest(unittest.TestCase):
    def test_grammar(self):
        for ok in ("p50_ms", "server.plan_us", "a-b.c_d", "9x"):
            self.assertTrue(bench_lib.valid_name(ok), ok)
        for bad in ("", "p50 ms", "p50/ms", "_x", ".x", "x" * 65, "é"):
            self.assertFalse(bench_lib.valid_name(bad), bad)

    def test_every_metric_name_is_valid(self):
        for name in bench_lib.E2E + bench_lib.PER_LAYER:
            self.assertTrue(bench_lib.valid_name(name), name)
        self.assertEqual(len(set(bench_lib.PER_LAYER)),
                         len(bench_lib.PER_LAYER))


class BenchmarkJsonTest(unittest.TestCase):
    def setUp(self):
        self.spec = json.loads(BENCHMARK_JSON.read_text())

    def test_names_match_the_harness(self):
        self.assertEqual([w["name"] for w in self.spec["workloads"]],
                         list(bench_lib.WORKLOADS))
        self.assertEqual(tuple(m["name"] for m in self.spec["end_to_end"]),
                         bench_lib.E2E)
        self.assertEqual(tuple(m["name"] for m in self.spec["per_layer"]),
                         bench_lib.PER_LAYER)

    def test_units_match_the_reduction(self):
        e2e = bench_lib.end_to_end(fake_raw(latencies=400))
        for m in self.spec["end_to_end"]:
            self.assertEqual(e2e[m["name"]]["unit"], m["unit"], m["name"])
            self.assertGreater(e2e[m["name"]]["value"], 0, m["name"])
        layers = bench_lib.per_layer(fake_raw(latencies=400))
        for m in self.spec["per_layer"]:
            self.assertEqual(layers[m["name"]]["unit"], m["unit"], m["name"])

    def test_limits(self):
        self.assertLessEqual(len(BENCHMARK_JSON.read_bytes()), 64 * 1024)
        for w in self.spec["workloads"]:
            self.assertLessEqual(len(w["why"]), 200)
        for m in self.spec["end_to_end"]:
            self.assertLessEqual(m["bound"], 0.25)
        setup = [m for m in self.spec["end_to_end"] if m["name"] == "setup_s"]
        self.assertEqual(setup[0]["bound"],
                         max(m["bound"] for m in self.spec["end_to_end"]))


def fake_raw(latencies):
    """A raw result as two bench processes would write it."""
    one = {
        "ok": True, "errors": [], "attempted": latencies, "failed": 0,
        "setup_s": [1.0], "publish_ms": [700.0],
        "latency_ms": [0.1 + i / 1000 for i in range(latencies // 2)],
        "first_row_ms": [0.05] * 10,
        "round_ops": [100, 100], "round_rows": [2000, 2100],
        "round_s": [0.5, 0.6], "round_cpu_s": [0.4, 0.5],
        "round_calib_ms": [2.1, 2.3, 2.2],
        "traced_round_ops": [100], "traced_round_s": [0.55],
        "peak_rss_mb": 120.0,
        "layers": {k: 1.0 for k in bench_lib.PER_LAYER
                   if not k.startswith(("self.", "trace.", "host."))},
        "self_us_per_op": {"server": 5.0},
        "not_measured": {},
    }
    return bench_lib.merge_raw([one, dict(one, peak_rss_mb=122.0)])


if __name__ == "__main__":
    unittest.main()
