"""The benchmark's own tests: a scaled-down run of every workload, untraced
and traced. Each run must print every metric by name with its unit, answer
every query correctly (fail_frac = 0), and end with the one-line JSON result
whose metrics are exactly those BENCHMARK.json lists. Run from the
repository root (takes a few minutes):

    python3 perfbench/test_perfbench.py
"""

import json
import os
import subprocess
import sys
import unittest

SCALE = "0.05"

END_TO_END = {
    "setup_s": "s", "fit_s": "s", "query_p50_ms": "ms", "query_p90_ms": "ms",
    "qps": "1/s", "fail_frac": "ratio", "cache_mb": "MB",
}

PER_LAYER = {
    "graphs.branches_ms": "ms", "graphs.branches_total": "count",
    "graphframes.encode_ms": "ms",
    "gbd.calls_per_query": "count", "gbd.ms_per_query": "ms", "gbd.ns_per_branch": "ns",
    "phi.calls_per_query": "count", "phi.keys_per_query": "count",
    "phi.warm_ms_per_query": "ms", "phi.cold_ms_per_query": "ms",
    "phi.zero_frac": "ratio", "phi.accept_frac": "ratio", "phi.size_prunable_frac": "ratio",
    "branchmodel.lambda1_us": "us",
    "jeffreys.vs": "count", "jeffreys.ms_per_v": "ms", "jeffreys.max_ms": "ms",
    "jeffreys.missing_vs_per_query": "count",
    "gmm.fit_ms": "ms", "gmm.samples": "count",
    "gbdspark.pairwise_ms": "ms", "gbdspark.pairwise_shuffle_mb": "MB",
    "spark.jobs_per_query": "count", "spark.stages_per_query": "count",
    "spark.tasks_per_query": "count", "spark.task_run_ms_per_query": "ms",
    "spark.task_cpu_ms_per_query": "ms", "spark.task_deser_ms_per_query": "ms",
    "spark.gc_ms_per_query": "ms", "spark.shuffle_kb_per_query": "kB",
    "spark.result_kb_per_query": "kB", "spark.job_ms_per_query": "ms",
    "spark.driver_ms_per_query": "ms", "spark.sched_wait_ms_per_query": "ms",
    "fit.jobs": "count", "fit.tasks": "count", "fit.driver_ms": "ms",
    "fit.job_ms.collect_ids": "ms", "fit.job_ms.pairwise_gbd": "ms",
    "fit.job_ms.count_vlabels": "ms", "fit.job_ms.count_elabels": "ms",
    "fit.job_ms.jeffreys": "ms",
    "trace.query_mean_ms": "ms", "trace.query_p50_ms": "ms", "trace.untraced_p50_ms": "ms",
    "trace.overhead_ms": "ms", "trace.queries": "count",
}

# Printed with the per-layer metrics, but not part of the JSON result.
PER_LAYER_PRINTED = {"fit.job_ms.other": "ms", "trace.remainder_ms_per_query": "ms"}

WORKLOADS = ["aids-serve", "syn-large", "aids-concurrent"]


def run(workload, trace):
    out = subprocess.run(
        [sys.executable, os.path.join("perfbench", "run.py"), "--workload", workload,
         "--seed", "5", "--seconds", "1", "--trace", str(trace), "--scale", SCALE],
        capture_output=True, text=True, timeout=900)
    if out.returncode != 0:
        raise AssertionError(f"{workload} trace={trace} exited {out.returncode}:\n{out.stderr[-3000:]}")
    lines = out.stdout.strip().splitlines()
    printed = {}
    for line in lines:
        if line.startswith("metric "):
            _, name, value, unit = line.split()
            printed[name] = (float(value), unit)
    return printed, json.loads(lines[-1])


def contract():
    try:
        with open("BENCHMARK.json") as fh:
            return json.load(fh)
    except FileNotFoundError:
        return None


class ScaledDownRuns(unittest.TestCase):

    def check_result(self, printed, result, expected, listed):
        self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
        self.assertTrue(result["correct"])
        self.assertGreaterEqual(result["attempted"], 1)
        self.assertEqual(result["failed"], 0)
        for name, unit in expected.items():
            self.assertIn(name, printed, f"metric {name} not printed")
            self.assertEqual(printed[name][1], unit, name)
        if listed is not None:
            self.assertEqual({k: v["unit"] for k, v in result["metrics"].items()},
                             {m["name"]: m["unit"] for m in listed})

    def test_untraced(self):
        spec = contract()
        for w in WORKLOADS:
            with self.subTest(workload=w):
                printed, result = run(w, 0)
                self.check_result(printed, result, END_TO_END, spec and spec["end_to_end"])
                self.assertEqual(printed["fail_frac"][0], 0.0)
                self.assertGreaterEqual(printed["timed_queries"][0], 100)
                self.assertGreaterEqual(printed["p90_samples_beyond"][0], 10)
                self.assertGreater(printed["qps"][0], 0)

    def test_traced(self):
        spec = contract()
        for w in WORKLOADS:
            with self.subTest(workload=w):
                printed, result = run(w, 1)
                self.check_result(printed, result, {**PER_LAYER, **PER_LAYER_PRINTED},
                                  spec and spec["per_layer"])
                # the per-query split accounts for the traced latency
                split = printed["spark.driver_ms_per_query"][0] + printed["spark.job_ms_per_query"][0]
                mean = printed["trace.query_mean_ms"][0]
                self.assertLess(abs(mean - split - printed["trace.remainder_ms_per_query"][0]), 0.05 * mean + 2)
                self.assertGreater(printed["spark.jobs_per_query"][0], 0)
                self.assertGreater(printed["fit.jobs"][0], 0)


if __name__ == "__main__":
    unittest.main()
