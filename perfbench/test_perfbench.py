#!/usr/bin/env python3
"""The benchmark's own tests. Run from the root of a checkout:

    python3 perfbench/test_perfbench.py

They use a held-out seed at a tiny budget, where the recorded digests do
not apply and only the audits, the cross-episode digest agreement and
the traced replay's equivalence are checked.
"""

import json
import shutil
import subprocess
import sys
import unittest
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RUN = ROOT / "perfbench" / "run.py"
HELD_OUT_SEED = 271828
TINY = {
    "mp16_morc": ["--warmup", "3000", "--measure", "2000"],
    "mesh64_uncomp": ["--warmup", "2000", "--measure", "1000"],
    "kv_morc": ["--warmup", "3000", "--measure", "2000"],
}


def run(workload, trace, extra=(), cwd=ROOT, runner=RUN):
    cmd = [sys.executable, str(runner), "--workload", workload,
           "--seed", str(HELD_OUT_SEED), "--seconds", "1",
           "--trace", str(trace)] + TINY[workload] + list(extra)
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True,
                          timeout=900)


def result_of(proc):
    return json.loads(proc.stdout.splitlines()[-1])


def benchmark_spec():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


class PerfbenchTest(unittest.TestCase):
    def check_clean(self, proc, names):
        self.assertEqual(proc.returncode, 0, proc.stderr[-2000:])
        res = result_of(proc)
        self.assertEqual(sorted(res),
                         ["attempted", "correct", "failed", "metrics"])
        self.assertTrue(res["correct"], proc.stderr[-2000:])
        self.assertEqual(res["failed"], 0)
        self.assertGreater(res["attempted"], 0)
        self.assertEqual(list(res["metrics"]), names)
        return res

    def test_end_to_end_metrics_on_held_out_seed(self):
        names = [m["name"] for m in benchmark_spec()["end_to_end"]]
        for w in TINY:
            with self.subTest(workload=w):
                res = self.check_clean(run(w, 0), names)
                for m in res["metrics"].values():
                    self.assertGreater(m["value"], 0)

    def test_traced_replay_matches_untraced_run(self):
        names = [m["name"] for m in benchmark_spec()["per_layer"]]
        for w in TINY:
            with self.subTest(workload=w):
                res = self.check_clean(run(w, 1), names)
                m = res["metrics"]
                self.assertGreater(m["cache.insert.calls"]["value"], 0)
                self.assertGreater(m["trace.overhead"]["value"], 0)

    def test_wrong_digest_counts_every_operation_failed(self):
        # Negative control: an expected digest no run can produce.
        for trace in (0, 1):
            with self.subTest(trace=trace):
                proc = run("kv_morc", trace,
                           ["--expect-digest", "0123456789abcdef"])
                self.assertEqual(proc.returncode, 0, proc.stderr[-2000:])
                res = result_of(proc)
                self.assertFalse(res["correct"])
                self.assertGreater(res["attempted"], 0)
                self.assertEqual(res["failed"], res["attempted"])
                self.assertIn("digest", proc.stderr)

    def test_fails_without_simulator_sources(self):
        bare = ROOT / ".bench_build" / "bare-checkout"
        shutil.rmtree(bare, ignore_errors=True)
        shutil.copytree(ROOT / "perfbench", bare / "perfbench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
        try:
            proc = run("kv_morc", 0, cwd=bare,
                       runner=bare / "perfbench" / "run.py")
            self.assertNotEqual(proc.returncode, 0)
            self.assertEqual(proc.stdout.strip(), "")
        finally:
            shutil.rmtree(bare, ignore_errors=True)


if __name__ == "__main__":
    unittest.main()
