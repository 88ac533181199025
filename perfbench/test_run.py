"""Schema tests of the benchmark's result line and BENCHMARK.json.

    python3 -m unittest discover perfbench
"""

import json
import re
import unittest
from pathlib import Path

import run

BENCH = run.load_json(run.ROOT / "BENCHMARK.json")
SPEC = run.load_json(run.HERE / "spec.json")
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def record(end_to_end=None, per_layer=None, correct=True):
    return {
        "correct": correct,
        "attempted": 12,
        "failed": 0 if correct else 1,
        "end_to_end": end_to_end if end_to_end is not None else
        {m["name"]: 1.5 for m in BENCH["end_to_end"]},
        "per_layer": per_layer if per_layer is not None else
        {m["name"]: 0.25 for m in BENCH["per_layer"]},
    }


class ResultLineTest(unittest.TestCase):

    def test_untraced_line_has_every_end_to_end_metric_with_its_unit(self):
        line = run.result_line(record(), BENCH, trace=0)
        self.assertEqual(tuple(line), run.RESULT_KEYS)
        self.assertEqual(set(line["metrics"]),
                         {m["name"] for m in BENCH["end_to_end"]})
        for metric in BENCH["end_to_end"]:
            self.assertEqual(line["metrics"][metric["name"]],
                             {"value": 1.5, "unit": metric["unit"]})
        # Whoever runs the benchmark reads the last stdout line as JSON.
        self.assertEqual(json.loads(json.dumps(line)), line)

    def test_traced_line_has_every_per_layer_metric(self):
        line = run.result_line(record(), BENCH, trace=1)
        self.assertEqual(set(line["metrics"]),
                         {m["name"] for m in BENCH["per_layer"]})

    def test_counts_are_whole_numbers_and_attempted_is_positive(self):
        empty = record()
        empty["attempted"] = 0
        line = run.result_line(empty, BENCH, trace=0)
        self.assertIsInstance(line["attempted"], int)
        self.assertIsInstance(line["failed"], int)
        self.assertGreaterEqual(line["attempted"], 1)
        self.assertFalse(run.result_line(record(correct=False), BENCH,
                                         trace=0)["correct"])

    def test_missing_unknown_or_non_finite_metrics_are_rejected(self):
        values = {m["name"]: 1.0 for m in BENCH["end_to_end"]}
        missing = dict(values)
        missing.pop("setup_s")
        with self.assertRaises(ValueError):
            run.result_line(record(end_to_end=missing), BENCH, trace=0)
        with self.assertRaises(ValueError):
            run.result_line(record(end_to_end=dict(values, extra=1.0)), BENCH,
                            trace=0)
        with self.assertRaises(ValueError):
            run.result_line(record(end_to_end=dict(values, latency_ms=None)),
                            BENCH, trace=0)
        with self.assertRaises(ValueError):
            run.result_line(
                record(end_to_end=dict(values, latency_ms=float("inf"))),
                BENCH, trace=0)


class ContaminationTest(unittest.TestCase):

    def timing(self, **overrides):
        timing = {"timed_wall_s": 10.0, "timed_cpu_s": 10.0,
                  "busy_threads": 0, "sender_late_p99_ms": 0.5}
        timing.update(overrides)
        return {"timing": timing}

    def test_clean_runs_are_not_flagged(self):
        self.assertEqual(run.contaminated(self.timing(), SPEC), [])
        self.assertEqual(run.contaminated(self.timing(busy_threads=1), SPEC),
                         [])

    def test_late_open_loop_sender_is_flagged(self):
        reasons = run.contaminated(self.timing(sender_late_p99_ms=7.0), SPEC)
        self.assertEqual(len(reasons), 1)
        self.assertIn("sender", reasons[0])

    def test_batch_run_that_lost_its_cpu_is_flagged(self):
        reasons = run.contaminated(
            self.timing(busy_threads=1, timed_wall_s=25.0), SPEC)
        self.assertEqual(len(reasons), 1)
        self.assertIn("wall/CPU", reasons[0])
        # An open loop idles between arrivals; its wall/CPU says nothing.
        self.assertEqual(
            run.contaminated(self.timing(timed_wall_s=25.0), SPEC), [])


class BenchmarkJsonTest(unittest.TestCase):

    def test_keys_and_limits(self):
        self.assertEqual(set(BENCH), {"command", "paths", "run_seconds",
                                      "workloads", "end_to_end", "per_layer"})
        self.assertLessEqual(len(json.dumps(BENCH)), 64 * 1024)
        self.assertIn(BENCH["run_seconds"], range(1, 61))
        for path in BENCH["paths"]:
            self.assertRegex(path, r"^[A-Za-z0-9_.\-/]{1,200}$")
            self.assertTrue((run.ROOT / path).is_dir())
        self.assertLessEqual(len(BENCH["command"]), 32)

    def test_workloads_have_constants(self):
        self.assertTrue(2 <= len(BENCH["workloads"]) <= 8)
        for workload in BENCH["workloads"]:
            self.assertIn(workload["name"], SPEC["workloads"])
        for workload in BENCH["workloads"]:
            self.assertEqual(set(workload), {"name", "why"})
            self.assertLessEqual(len(workload["why"]), 200)

    def test_metrics(self):
        names = []
        for section, keys in (("end_to_end", {"name", "unit", "better",
                                              "bound"}),
                              ("per_layer", {"name", "unit", "better"})):
            for metric in BENCH[section]:
                self.assertEqual(set(metric), keys)
                self.assertRegex(metric["name"], NAME)
                self.assertRegex(metric["unit"], UNIT)
                self.assertIn(metric["better"], ("higher", "lower"))
                names.append(metric["name"])
        self.assertEqual(len(names), len(set(names)))
        setup = [m for m in BENCH["end_to_end"] if m["name"] == "setup_s"]
        self.assertEqual(setup[0]["unit"], "s")
        self.assertEqual(setup[0]["better"], "lower")
        bounds = [m["bound"] for m in BENCH["end_to_end"]]
        self.assertTrue(all(0 < b <= 0.25 for b in bounds))
        self.assertEqual(setup[0]["bound"], max(bounds))


if __name__ == "__main__":
    unittest.main()
