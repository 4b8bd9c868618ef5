#!/usr/bin/env python3
"""Tests for the benchmark's own maths.

    python3 svcbench/test_metrics.py
"""

import json
import math
import os
import unittest

import metrics

HERE = os.path.dirname(os.path.abspath(__file__))


def span(sid, name, parent, start, dur):
    return {"id": sid, "name": name, "parent": parent, "start": start, "dur": dur,
            "lane": 0, "op": 0, "a": 0, "b": 0}


def record(n_ops, failed=0, **extra):
    ops = [[0, i, 0, i * 1000, (i + 1) * 1_000_000, 1] for i in range(n_ops)]
    for op in ops[:failed]:
        op[5] = 0
    r = {"workload": "scan", "ops": ops, "failed": failed, "setup_s": [3.0, 1.0, 2.0],
         "phase_ns": 10_000_000_000, "peak_rss_kb": 2048, "false_hits": 1,
         "false_trials": 4}
    r.update(extra)
    return r


class PercentileTest(unittest.TestCase):
    def test_highest_percentile_with_ten_beyond(self):
        self.assertEqual(metrics.tail_percentile(100), 90)
        self.assertEqual(metrics.tail_percentile(99), 89)
        self.assertEqual(metrics.tail_percentile(1000), 99)
        self.assertEqual(metrics.tail_percentile(200), 95)
        self.assertIsNone(metrics.tail_percentile(10))
        self.assertEqual(metrics.tail_percentile(11), 9)

    def test_selected_percentile_leaves_ten_samples_beyond(self):
        for n in (11, 57, 100, 101, 333, 1000):
            p = metrics.tail_percentile(n)
            rank = math.ceil(p * n / 100)
            self.assertGreaterEqual(n - rank, 10)
            self.assertLess(n - math.ceil((p + 1) * n / 100), 10)

    def test_nearest_rank(self):
        values = list(range(1, 101))
        self.assertEqual(metrics.percentile(values, 50), 50)
        self.assertEqual(metrics.percentile(values, 90), 90)
        self.assertEqual(metrics.percentile([5], 90), 5)
        self.assertEqual(metrics.percentile([3, 1, 2], 50), 2)

    def test_too_few_operations_fail_loudly(self):
        with self.assertRaises(metrics.TooFewOps):
            metrics.end_to_end(record(99))
        self.assertIn("latency_p90_ms", metrics.end_to_end(record(100)))

    def test_failed_operations_miss_every_latency_limit(self):
        m = metrics.end_to_end(record(100, failed=10))
        self.assertEqual(m["latency_p90_ms"][0], 100.0)
        m = metrics.end_to_end(record(100, failed=11))
        self.assertEqual(m["latency_p90_ms"][0], math.inf)
        self.assertAlmostEqual(m["error_rate"][0], 0.11)
        self.assertAlmostEqual(m["ops_per_s"][0], 8.9)  # completed operations only

    def test_end_to_end_values(self):
        m = metrics.end_to_end(record(100))
        self.assertEqual(m["setup_s"], (2.0, "s"))  # median of the set-ups
        self.assertEqual(m["ops_per_s"], (10.0, "op/s"))
        self.assertEqual(m["latency_p50_ms"], (50.0, "ms"))
        self.assertEqual(m["peak_rss_mb"], (2.0, "MiB"))
        self.assertEqual(m["false_hit_rate"], (0.25, "ratio"))


class NameTest(unittest.TestCase):
    def test_valid_names(self):
        for name in ("setup_s", "serve.load_design_ms_p50", "wm.pc-ms", "9x"):
            self.assertTrue(metrics.valid_name(name), name)

    def test_invalid_names(self):
        for name in ("", "_x", ".x", "a b", "a/b", "a:b", "é", "x" * 65, None):
            self.assertFalse(metrics.valid_name(name), name)

    def test_declared_metrics_are_valid_and_unique(self):
        names = [m[0] for m in metrics.END_TO_END + metrics.REPORTED_ONLY + metrics.PER_LAYER]
        self.assertEqual(len(names), len(set(names)))
        for name in names:
            self.assertTrue(metrics.valid_name(name), name)

    def test_benchmark_json_matches_declared_metrics(self):
        path = os.path.join(os.path.dirname(HERE), "BENCHMARK.json")
        if not os.path.isfile(path):
            self.skipTest("no BENCHMARK.json next to the benchmark")
        with open(path) as f:
            spec = json.load(f)
        self.assertEqual([(m["name"], m["unit"], m["better"]) for m in spec["end_to_end"]],
                         metrics.END_TO_END)
        self.assertEqual([(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]],
                         metrics.PER_LAYER)


class SelfTimeTest(unittest.TestCase):
    def test_union_length(self):
        self.assertEqual(metrics.union_length([]), 0)
        self.assertEqual(metrics.union_length([(0, 10), (5, 15), (20, 25)]), 20)
        self.assertEqual(metrics.union_length([(5, 6), (0, 10)]), 10)

    def test_nested_spans(self):
        spans = [span(0, "root", -1, 0, 100),
                 span(1, "a", 0, 10, 30),
                 span(2, "b", 0, 50, 20),
                 span(3, "a.inner", 1, 15, 10)]
        st = metrics.self_times(spans)
        self.assertEqual(st["root"], 50)
        self.assertEqual(st["a"], 20)
        self.assertEqual(st["b"], 20)
        self.assertEqual(st["a.inner"], 10)

    def test_overlapping_children_from_parallel_lanes(self):
        # Two lanes run children at once; their overlap counts once, and a
        # child running past its parent's end is clipped.
        spans = [span(0, "phase", -1, 0, 100),
                 span(1, "op", 0, 0, 60),
                 span(2, "op", 0, 40, 50),
                 span(3, "op", 0, 95, 20)]
        st = metrics.self_times(spans)
        self.assertEqual(st["phase"], 100 - 95)
        self.assertEqual(st["op"], 60 + 50 + 20)

    def test_self_time_never_negative(self):
        spans = [span(0, "p", -1, 0, 10), span(1, "c", 0, 0, 10), span(2, "c", 0, 0, 10)]
        self.assertEqual(metrics.self_times(spans)["p"], 0)

    def test_coverage(self):
        spans = [span(0, "replay", -1, 0, 1000),
                 span(1, "replay.detect", 0, 0, 100),
                 span(2, "wm.detect", 1, 0, 90),
                 span(3, "replay.evict", 0, 100, 100),
                 span(4, "serve.store_evict", 3, 100, 50)]
        self.assertAlmostEqual(metrics.coverage(spans), 140 / 200)


class StatsDiffTest(unittest.TestCase):
    BEFORE = {"designs": 2, "hits": 5, "misses": 1, "evictions": 0,
              "obs": {"counters": {"serve/requests": 10, "wm/roots_scanned": 100},
                      "histograms": {"wm/domain_size": {"count": 4, "sum": 40, "mean": 10.0,
                                                        "max": 12, "log2_buckets": {"4": 4}}},
                      "spans": {"serve/request": {"count": 10, "total_ms": 50.0}}}}
    AFTER = {"designs": 2, "hits": 9, "misses": 3, "evictions": 2,
             "obs": {"counters": {"serve/requests": 16, "wm/roots_scanned": 400,
                                  "exec/tasks_run": 7},
                     "histograms": {"wm/domain_size": {"count": 10, "sum": 130, "mean": 13.0,
                                                       "max": 20, "log2_buckets": {"4": 10}}},
                     "spans": {"serve/request": {"count": 16, "total_ms": 80.5},
                               "wm/pc_poisson": {"count": 3, "total_ms": 1.5}}}}

    def test_diff(self):
        d = metrics.stats_diff(self.BEFORE, self.AFTER)
        self.assertEqual(d["store"], {"designs": 0, "hits": 4, "misses": 2, "evictions": 2})
        self.assertEqual(d["counters"], {"serve/requests": 6, "wm/roots_scanned": 300,
                                         "exec/tasks_run": 7})
        self.assertEqual(d["histograms"]["wm/domain_size"], {"count": 6, "sum": 90})
        self.assertEqual(d["spans"]["serve/request"], {"count": 6, "total_ms": 30.5})
        self.assertEqual(d["spans"]["wm/pc_poisson"], {"count": 3, "total_ms": 1.5})

    def test_identical_frames_diff_to_zero(self):
        d = metrics.stats_diff(self.AFTER, self.AFTER)
        self.assertTrue(all(v == 0 for v in d["counters"].values()))
        self.assertTrue(all(s["total_ms"] == 0 for s in d["spans"].values()))

    def test_per_layer_uses_diff(self):
        spans = [[n, i, p, 0, 0, s, d, a, 0] for i, (n, p, s, d, a) in enumerate([
            ("call.detect", -1, 0, 2_000_000, 100),
            ("replay", -1, 0, 10_000_000, 0),
            ("replay.detect", 1, 0, 10_000_000, 0),
            ("wm.detect", 2, 0, 9_000_000, 0)])]
        r = record(2, spans=spans, replayed_ops=1, stats_before=self.BEFORE,
                   stats_after=self.AFTER, full_hits=3, serve_threads=2)
        m = metrics.per_layer(r)
        self.assertEqual(m["wm.roots_scanned"], (150.0, "count"))
        self.assertEqual(m["serve.handler_ms"], (15.25, "ms"))
        self.assertEqual(m["serve.transport_ms"], ((2.0 - 30.5) / 2, "ms"))
        self.assertEqual(m["wm.detect_ms"], (9.0, "ms"))
        self.assertEqual(m["wm.domain_size_mean"], (15.0, "count"))
        self.assertAlmostEqual(m["trace.coverage"][0], 0.9)
        self.assertEqual(m["serve.detect_ms_p50"], (2.0, "ms"))
        self.assertEqual(m["serve.embed_ms_p50"], (0.0, "ms"))


if __name__ == "__main__":
    unittest.main()
