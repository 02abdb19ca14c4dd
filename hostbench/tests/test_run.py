#!/usr/bin/env python3
"""Self-tests of the benchmark. Run from the repository root:

    python3 hostbench/tests/test_run.py

Checks the metric-name grammar of BENCHMARK.json, runs the C++ self-test
binary (span self time, marginal subtraction, percentiles, name grammar),
and makes one short untraced and one traced run whose results must name
exactly the metrics BENCHMARK.json lists. The traced run takes about a
minute.
"""

import importlib.util
import json
import os
import re
import subprocess
import sys
import unittest

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))))
RUN = os.path.join(ROOT, "hostbench", "run.py")
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def load_run_module():
    spec = importlib.util.spec_from_file_location("hostbench_run", RUN)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def bench_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def run_bench(*args, env=None):
    return subprocess.run([sys.executable, RUN, *args], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=300)


class MetricGrammar(unittest.TestCase):
    def test_names_and_units(self):
        spec = bench_spec()
        names = [w["name"] for w in spec["workloads"]]
        for group in ("end_to_end", "per_layer"):
            for m in spec[group]:
                names.append(m["name"])
                self.assertRegex(m["unit"], UNIT)
                self.assertIn(m["better"], ("higher", "lower"))
        for n in names:
            self.assertRegex(n, NAME)
        self.assertEqual(len(names), len(set(names)), "names must be unique")

    def test_setup_metric_present(self):
        e2e = {m["name"]: m for m in bench_spec()["end_to_end"]}
        self.assertEqual(e2e["setup_s"]["unit"], "s")
        self.assertEqual(e2e["setup_s"]["better"], "lower")


class SelfTestBinary(unittest.TestCase):
    def test_cpp_selftest(self):
        run = load_run_module()
        run.build()
        out = subprocess.run([os.path.join(run.BUILD, "hostbench_selftest")],
                             capture_output=True, text=True)
        self.assertEqual(out.returncode, 0, out.stderr)


class ShortRuns(unittest.TestCase):
    def check_run(self, trace, group):
        out = run_bench("--workload", "storm_psg", "--seed", "3",
                        "--seconds", "1", "--trace", str(trace))
        self.assertEqual(out.returncode, 0, out.stderr[-2000:])
        result = json.loads(out.stdout.strip().splitlines()[-1])
        self.assertEqual(set(result),
                         {"correct", "attempted", "failed", "metrics"})
        self.assertTrue(result["correct"])
        self.assertEqual(result["failed"], 0)
        self.assertGreaterEqual(result["attempted"], 1)
        want = {m["name"]: m["unit"] for m in bench_spec()[group]}
        got = {k: v["unit"] for k, v in result["metrics"].items()}
        self.assertEqual(got, want)

    def test_untraced_run_gives_every_end_to_end_metric(self):
        self.check_run(0, "end_to_end")

    def test_traced_run_gives_every_per_layer_metric(self):
        self.check_run(1, "per_layer")

    def test_refuses_impacc_environment(self):
        env = dict(os.environ, IMPACC_HIER_COLLECTIVES="0")
        out = run_bench("--workload", "coll_psg", "--seed", "1",
                        "--seconds", "1", "--trace", "0", env=env)
        self.assertNotEqual(out.returncode, 0)
        self.assertEqual(out.stdout.strip(), "")


if __name__ == "__main__":
    unittest.main()
