#!/usr/bin/env python3
"""Self-test of the benchmark harness: python3 bench/selftest.py

Checks the self-time arithmetic on synthetic spans, the tracing wrappers'
installation and removal, that every output check accepts real output and
rejects a corrupted one, that BENCHMARK.json matches what run.py prints, and
that run.py fails cleanly where the program is missing.  Takes about 20 s.
"""
import json
import os
import shutil
import subprocess
import sys
import tempfile
import unittest
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT / "src"))

import tracing  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def prepared(name: str, seed: int = 5):
    workload = workloads.WORKLOADS[name]()
    workload.prepare(workload.texts(seed))
    return workload


class SelfTimeTest(unittest.TestCase):
    def test_synthetic_nested_spans(self):
        # a [0, 10] has children b [1, 3] and c [2, 5] (overlapping, union
        # [1, 5]) and b [9, 12] (clipped to [9, 10]); d [2.5, 4.5] is c's child.
        names = ["a", "b", "c", "d", "b"]
        starts = [0.0, 1.0, 2.0, 2.5, 9.0]
        ends = [10.0, 3.0, 5.0, 4.5, 12.0]
        parents = [-1, 0, 0, 2, 0]
        selfs = tracing.self_times(names, starts, ends, parents)
        self.assertEqual(selfs, {"a": 5.0, "b": 5.0, "c": 1.0, "d": 2.0})

    def test_leaf_span_self_time_is_its_duration(self):
        self.assertEqual(tracing.self_times(["x"], [1.0], [1.5], [-1]), {"x": 0.5})


class WrapperTest(unittest.TestCase):
    def test_every_alias_wrapped_then_removed(self):
        from hqcsim import core, runner, star, tracker

        originals = (core.apply_cz, core.apply_named, tracker.matrix_for)
        tracer = tracing.Tracer()
        workload = prepared("shots_small")
        with tracing.installed(tracer):
            # star and runner hold core's functions under their own names
            self.assertTrue(star.apply_cz.bench_wrapper)
            self.assertTrue(runner.apply_named.bench_wrapper)
            self.assertTrue(tracker.matrix_for.bench_wrapper)
            workload.job(1, 7)
        metrics = tracer.metrics()
        self.assertEqual(tracing.leftover_wrappers(), [])
        self.assertEqual((star.apply_cz, runner.apply_named, tracker.matrix_for), originals)
        self.assertEqual(metrics["runner.run_hqcm.calls"][0], 1)
        self.assertEqual(metrics["core.rng_streams"][0], workload.shots_per_job)
        # matrix_for is reached only through tracker.propagate's globals
        self.assertEqual(metrics["tracker.matrix_for.calls"][0], metrics["tracker.propagate.calls"][0])
        if metrics["star.multi_z_rotation.calls"][0]:
            self.assertGreater(metrics["core.apply_cz.calls"][0], 0)


class OutputCheckTest(unittest.TestCase):
    def test_symbolic_readout_rejects_flipped_corrected_bit(self):
        workload = prepared("trace_symbolic")
        payload = json.loads(workload.job(1, 11))
        self.assertTrue(workloads.check_symbolic_readout(payload))
        shot = payload["shots"][0]
        flipped = "1" if shot["s_corrected"][0] == "0" else "0"
        shot["s_corrected"] = flipped + shot["s_corrected"][1:]
        self.assertFalse(workloads.check_symbolic_readout(payload))

    def test_grover_rejects_wrong_marked_index(self):
        workload = prepared("grover_deep")
        outputs = [workload.job(k, 100 + k) for k in range(1, 11)]
        self.assertTrue(all(workload.check(k, out) for k, out in enumerate(outputs, 1)))
        self.assertTrue(workload.check_run())
        wrong = workloads.WORKLOADS["grover_deep"]()
        wrong.prepare(wrong.texts(5))
        wrong.marked ^= 1
        for k, out in enumerate(outputs, 1):
            wrong.check(k, out)
        self.assertFalse(wrong.check_run())

    def test_verify_rejects_fidelity_below_bound(self):
        workload = prepared("wide_verify")
        report = workload.job(1, 3)
        self.assertTrue(workload.check(1, report))
        from hqcsim.runner import EquivalenceReport

        low = 1.0 - 1e-9
        self.assertFalse(workload.check(1, EquivalenceReport(1, low, low, [low])))

    def test_histogram_rejects_wrong_distribution(self):
        workload = prepared("shots_small")
        output = workload.job(1, 3)
        self.assertTrue(workload.check(1, output))
        _, distribution = workload.runner.run_unitary(workload.circuit(1))
        rarest = min(distribution, key=distribution.get)
        payload = json.loads(output)
        payload["histogram"] = {rarest: workload.shots_per_job}
        self.assertFalse(workload.check(1, json.dumps(payload)))

    def test_golden_rejects_edited_line(self):
        golden = (ROOT / "tests" / "data" / "table1_golden.txt").read_text(encoding="utf-8")
        self.assertTrue(workloads.check_table1(golden))
        lines = golden.splitlines(keepends=True)
        lines[2] = lines[2].replace("0", "1", 1)
        self.assertFalse(workloads.check_table1("".join(lines)))


def bench_run(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, str(cwd / "bench" / "run.py"), *args],
                          cwd=cwd, capture_output=True, text=True, timeout=170)


class SpecTest(unittest.TestCase):
    def test_one_why_sentence_per_workload(self):
        self.assertEqual([w["name"] for w in SPEC["workloads"]], list(workloads.WORKLOADS))
        for entry in SPEC["workloads"]:
            why = entry["why"]
            self.assertTrue(why and "\n" not in why and len(why) <= 200, entry)
            self.assertEqual(why.count(". "), 0, f"{entry['name']}: one sentence")

    def test_run_prints_exactly_the_declared_metrics(self):
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            done = bench_run("--workload", "trace_symbolic", "--seed", "3", "--seconds", "1", "--trace", str(trace))
            self.assertEqual(done.returncode, 0, done.stderr)
            result = json.loads(done.stdout.strip().splitlines()[-1])
            self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
            self.assertTrue(result["correct"])
            self.assertEqual(result["failed"], 0)
            declared = {m["name"]: m["unit"] for m in SPEC[key]}
            self.assertEqual({k: v["unit"] for k, v in result["metrics"].items()}, declared)
            if trace == 0:
                self.assertIn("failed_frac 0.0 1", done.stdout)

    def test_fails_without_the_program(self):
        with tempfile.TemporaryDirectory(prefix=".selftest-", dir=ROOT) as tmp:
            shutil.copy(ROOT / "BENCHMARK.json", tmp)
            shutil.copytree(BENCH, Path(tmp) / "bench", ignore=shutil.ignore_patterns("__pycache__"))
            done = bench_run("--workload", "shots_small", "--seed", "1", "--seconds", "1", cwd=Path(tmp))
        self.assertNotEqual(done.returncode, 0)
        self.assertNotIn('"correct"', done.stdout)


if __name__ == "__main__":
    os.environ["OPENBLAS_NUM_THREADS"] = "1"
    unittest.main()
