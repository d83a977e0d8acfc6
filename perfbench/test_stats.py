"""Tests of the benchmark's statistics and result shape.

    python3 -m unittest discover -s perfbench -p 'test_*.py'
"""

import json
import os
import re
import sys
import tempfile
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run  # noqa: E402
import stats  # noqa: E402

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


class PercentileRule(unittest.TestCase):
    def test_highest_percentile_with_ten_beyond(self):
        self.assertIsNone(stats.tail_percentile(0))
        self.assertIsNone(stats.tail_percentile(19))
        self.assertEqual(stats.tail_percentile(20), 50.0)
        self.assertEqual(stats.tail_percentile(39), 50.0)
        self.assertEqual(stats.tail_percentile(40), 75.0)
        self.assertEqual(stats.tail_percentile(99), 75.0)
        self.assertEqual(stats.tail_percentile(100), 90.0)
        self.assertEqual(stats.tail_percentile(199), 90.0)
        self.assertEqual(stats.tail_percentile(200), 95.0)
        self.assertEqual(stats.tail_percentile(1000), 99.0)
        self.assertEqual(stats.tail_percentile(10000), 99.9)

    def test_summary_reports_sample_count(self):
        values = list(range(1, 101))
        p, v, n = stats.tail_summary(values)
        self.assertEqual((p, n), (90.0, 100))
        self.assertAlmostEqual(v, 90.1)
        self.assertEqual(stats.tail_summary([1.0] * 5), (None, None, 5))

    def test_interpolated_percentile(self):
        self.assertEqual(stats.percentile([3], 90), 3.0)
        self.assertEqual(stats.median([4, 1, 3, 2]), 2.5)
        self.assertEqual(stats.percentile([0, 10], 90), 9.0)
        with self.assertRaises(ValueError):
            stats.percentile([], 50)


class SelfTime(unittest.TestCase):
    def test_children_subtracted_once(self):
        spans = {
            1: (0, 0, 100),   # root
            2: (1, 10, 40),   # child
            3: (1, 30, 60),   # overlaps child 2: covered 10..60 once
            4: (2, 15, 25),   # grandchild: only charged against 2
        }
        self_t = stats.self_times(spans)
        self.assertEqual(self_t[1], 100 - 50)
        self.assertEqual(self_t[2], 30 - 10)
        self.assertEqual(self_t[3], 30)
        self.assertEqual(self_t[4], 10)

    def test_child_clipped_to_parent(self):
        # A child recorded on another thread may outlive its parent.
        self_t = stats.self_times({1: (0, 0, 10), 2: (1, 5, 20)})
        self.assertEqual(self_t[1], 5)
        self.assertEqual(self_t[2], 15)

    def test_sum_of_self_times_is_root_duration(self):
        spans = {1: (0, 0, 1000), 2: (1, 100, 300), 3: (1, 400, 900),
                 4: (3, 500, 600), 5: (3, 650, 700)}
        self.assertEqual(sum(stats.self_times(spans).values()), 1000)

    def test_orphan_parent_is_root(self):
        self.assertEqual(stats.self_times({7: (99, 3, 8)}), {7: 5})


class ResultShape(unittest.TestCase):
    def setUp(self):
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            self.bench = json.load(f)
        self.e2e, self.layer = run.load_declared()

    def test_benchmark_json_contract(self):
        b = self.bench
        self.assertEqual(set(b), {"command", "paths", "run_seconds",
                                  "workloads", "end_to_end", "per_layer"})
        self.assertEqual(b["command"], ["python3", "perfbench/run.py"])
        self.assertEqual(b["paths"], ["perfbench"])
        self.assertTrue(1 <= b["run_seconds"] <= 60)
        name = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
        unit = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
        seen = set()
        self.assertEqual([w["name"] for w in b["workloads"]],
                         list(run.WORKLOADS))
        for w in b["workloads"]:
            self.assertEqual(set(w), {"name", "why"})
            self.assertLessEqual(len(w["why"]), 200)
        for m in b["end_to_end"] + b["per_layer"]:
            self.assertRegex(m["name"], name)
            self.assertRegex(m["unit"], unit)
            self.assertIn(m["better"], ("higher", "lower"))
            self.assertNotIn(m["name"], seen)
            seen.add(m["name"])
        bounds = {m["name"]: m["bound"] for m in b["end_to_end"]}
        self.assertTrue(all(0 < v <= 0.25 for v in bounds.values()))
        self.assertEqual(bounds["setup_s"], max(bounds.values()))
        self.assertLessEqual(len(json.dumps(b)), 64 * 1024)

    def campaign_raw(self):
        rep = {"wall_s": 0.5, "cpu_s": 2.0, "programs": 10,
               "programs_with_cex": 4, "experiments": 50,
               "counterexamples": 20, "failed_programs": 0}
        return {"workload": "corpus_kernels", "threads": 4,
                "setup_s": [0.1, 0.2, 0.3],
                "reps": [rep, dict(rep, wall_s=0.4)], "peak_rss_mb": 30.0,
                "attempted": 24, "failed": 0}

    def test_end_to_end_metrics_complete(self):
        metrics, latencies = run.end_to_end(self.campaign_raw())
        line = json.loads(stats.result_line(True, 24, 0, metrics, self.e2e))
        self.assertEqual(set(line), {"correct", "attempted", "failed",
                                     "metrics"})
        self.assertEqual([k for k in line["metrics"]],
                         [n for n, _ in self.e2e])
        self.assertEqual(line["metrics"]["wall_s"]["value"], 0.45)
        self.assertEqual(metrics["cex_program_share"], (0.4, "share"))
        self.assertEqual(latencies, [500.0, 400.0])

    def test_submissions_drive_latency_when_present(self):
        raw = self.campaign_raw()
        raw["first_timed_batch"] = 1
        raw["submissions"] = [{"batch": 0, "ms": 999.0},
                              {"batch": 1, "ms": 10.0},
                              {"batch": 1, "ms": 30.0}]
        metrics, _ = run.end_to_end(raw)
        self.assertEqual(metrics["submission_p50_ms"][0], 20.0)

    def test_per_layer_metrics_complete(self):
        raw = self.campaign_raw()
        counters = {k: 1 for k in (
            "pipeline.programs", "pipeline.experiments", "smt.queries",
            "smt.sat", "sat.solve_calls", "triage.screened", "hw.runs",
            "hw.cycles")}
        with tempfile.TemporaryDirectory() as d:
            spans = os.path.join(d, "spans.tsv")
            with open(spans, "w") as f:
                f.write("rep\tid\tparent\tname\tstart_ns\tend_ns\tkey\n")
                f.write("0\t1\t0\tcampaign\t0\t5000000\t-1\n")
                f.write("0\t2\t1\tcore.program\t0\t4000000\t0\n")
                f.write("0\t3\t2\tsmt.search\t1000000\t2000000\t0\n")
            raw["trace"] = {
                "spans": spans, "replica_exact": True,
                "replica_mismatch": "",
                "untraced_wall_s": [0.5], "traced_wall_s": [0.6],
                "untraced_counters": counters,
                "untraced_phase_s": {"phase.smt_seconds": 0.001},
                "traced_reps": [{"registry": counters,
                                 "driver.experiments": 1,
                                 "driver.smt_queries": 1,
                                 "driver.stmts": 3, "driver.paths": 2,
                                 "driver.pairs": 1}],
                "front_kernels": 0}
            layers, notes = run.per_layer(raw)
        line = json.loads(stats.result_line(True, 1, 0, layers, self.layer))
        self.assertEqual(len(line["metrics"]), len(self.layer))
        self.assertEqual(line["metrics"]["smt.search_ms"]["value"], 1.0)
        self.assertEqual(line["metrics"]["trace.counts_match"]["value"], 1)
        self.assertAlmostEqual(line["metrics"]["trace.overhead_ms"]["value"],
                               100.0)
        self.assertEqual(line["metrics"]["core.cex_program_share"]["value"],
                         0.4)
        self.assertTrue(notes[0].startswith("split: exact"))

    def test_result_line_rejects_bad_metrics(self):
        good = {n: (1.0, u) for n, u in self.e2e}
        with self.assertRaises(ValueError):
            stats.result_line(True, 0, 0, good, self.e2e)
        missing = dict(good)
        del missing["wall_s"]
        with self.assertRaises(ValueError):
            stats.result_line(True, 1, 0, missing, self.e2e)
        with self.assertRaises(ValueError):
            stats.result_line(True, 1, 0, dict(good, wall_s=(1.0, "ms")),
                              self.e2e)
        with self.assertRaises(ValueError):
            stats.result_line(True, 1, 0,
                              dict(good, wall_s=(float("nan"), "s")),
                              self.e2e)


if __name__ == "__main__":
    unittest.main()
