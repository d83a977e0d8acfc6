"""Unit tests for check_bench_json.py (stdlib only, no build needed).

Run: python3 -m unittest discover -s scripts -p 'test_*.py'
"""

import copy
import json
import os
import tempfile
import unittest

import check_bench_json as cbj


def envelope(**overrides):
    doc = {
        "schema": "scamv-bench-v1",
        "bench": "demo",
        "workload": {"template": "stride", "programs": 8},
        "legs": {"off": {"seconds": 0.5, "smt_queries": 10},
                 "on": {"seconds": 0.1, "smt_queries": 0}},
        "gates": [
            {"name": "speedup", "value": 5.0, "op": ">=", "bound": 1.5},
            {"name": "smt_queries_on", "value": 0, "op": "<=",
             "bound": 10},
            {"name": "deterministic", "value": 1, "op": "==",
             "bound": 1},
        ],
        "pass": True,
    }
    doc.update(overrides)
    return doc


LEDGER = {
    "schema": "scamv-coverage-v1",
    "templates": {
        "stride": {
            "universe": 4,
            "covered": 1,
            "classes": {
                "61": {"hits": 2, "draws": 3, "solver_s": 0.01},
                "62": {"hits": 0, "draws": 1, "solver_s": 0},
            },
            "path_pairs": {"-|-": 4},
            "models": {},
        }
    },
}

METRICS = {
    "schema": "scamv-metrics-v1",
    "counters": {"smt.queries": 12},
    "gauges": {"pool.threads": 4},
    "histograms": {
        "pipeline.program_seconds": {
            "bounds": [0.001, 0.01],
            "counts": [1, 2, 0],
            "sum": 0.02,
            "count": 3,
        }
    },
}


class CheckBenchJson(unittest.TestCase):
    def setUp(self):
        self.dir = tempfile.TemporaryDirectory()
        self.addCleanup(self.dir.cleanup)

    def write(self, doc, name="BENCH_demo.json"):
        path = os.path.join(self.dir.name, name)
        with open(path, "w", encoding="utf-8") as f:
            json.dump(doc, f)
        return path

    def assertValid(self, doc):
        cbj.check_file(self.write(doc))

    def assertInvalid(self, doc, fragment):
        with self.assertRaises(cbj.Invalid) as ctx:
            cbj.check_file(self.write(doc))
        self.assertIn(fragment, str(ctx.exception))

    def test_passing_envelope(self):
        self.assertValid(envelope())

    def test_gate_below_bound(self):
        doc = envelope(**{"pass": False})
        doc["gates"][0]["value"] = 1.2
        self.assertInvalid(doc, "gate failed: speedup 1.2 >= 1.5")

    def test_writer_claims_pass_over_failing_gate(self):
        doc = envelope()
        doc["gates"][2]["value"] = 0
        self.assertInvalid(doc, "pass is True but the gates evaluate "
                                "to False")

    def test_writer_claims_fail_over_passing_gates(self):
        self.assertInvalid(envelope(**{"pass": False}),
                           "pass is False but the gates evaluate "
                           "to True")

    def test_any_of_both_members_failing(self):
        doc = envelope()
        doc["gates"][0] = {"any_of": [
            {"name": "speedup", "value": 1.1, "op": ">=", "bound": 1.5},
            {"name": "smt_avoided", "value": 0.1, "op": ">=",
             "bound": 0.3},
        ]}
        doc["pass"] = False
        self.assertInvalid(doc, "speedup 1.1 >= 1.5 and "
                                "smt_avoided 0.1 >= 0.3")

    def test_any_of_one_member_passing(self):
        doc = envelope()
        doc["gates"][0] = {"any_of": [
            {"name": "speedup", "value": 1.1, "op": ">=", "bound": 1.5},
            {"name": "smt_avoided", "value": 1.0, "op": ">=",
             "bound": 0.3},
        ]}
        self.assertValid(doc)

    def test_unknown_op(self):
        doc = envelope()
        doc["gates"][0]["op"] = ">"
        self.assertInvalid(doc, "op '>' is not one of")

    def test_negative_leg_number(self):
        doc = envelope()
        doc["legs"]["on"]["seconds"] = -0.1
        self.assertInvalid(doc, "leg 'on': 'seconds' is not a finite "
                                "non-negative number")

    def test_non_finite_leg_number(self):
        doc = envelope()
        doc["legs"]["on"]["seconds"] = None
        self.assertInvalid(doc, "'seconds' is not a finite")

    def test_no_gates(self):
        self.assertInvalid(envelope(gates=[]), "no gates recorded")

    def test_missing_file(self):
        with self.assertRaises(cbj.Invalid) as ctx:
            cbj.check_file(os.path.join(self.dir.name, "absent.json"))
        self.assertIn("cannot read", str(ctx.exception))

    def test_embedded_ledger_checked(self):
        self.assertValid(envelope(ledger=copy.deepcopy(LEDGER)))
        ledger = copy.deepcopy(LEDGER)
        ledger["templates"]["stride"]["covered"] = 2
        self.assertInvalid(envelope(ledger=ledger),
                           "[ledger]: template 'stride': covered says "
                           "2, classes show 1")

    def test_metrics_unchanged(self):
        self.assertValid(copy.deepcopy(METRICS))
        bad = copy.deepcopy(METRICS)
        bad["histograms"]["pipeline.program_seconds"]["count"] = 4
        self.assertInvalid(bad, "buckets sum to 3, count says 4")

    def test_unknown_schema(self):
        self.assertInvalid({"campaigns": {}}, "unrecognized schema")

    def test_main_checks_every_file(self):
        good = self.write(envelope(), "good.json")
        bad = self.write(envelope(gates=[]), "bad.json")
        with self.assertRaises(SystemExit) as ctx:
            cbj.main(["check_bench_json.py", bad, good])
        self.assertEqual(str(ctx.exception), "1 of 2 files invalid")


if __name__ == "__main__":
    unittest.main()
