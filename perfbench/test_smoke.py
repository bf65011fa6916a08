"""Smoke test of the benchmark: each workload at a tiny size, in both modes.

Run from the root of a checkout:
    python3 -m unittest discover -s perfbench -p 'test_*.py'
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def bench(cwd: Path, workload: str, trace: int, *extra: str):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "7",
         "--seconds", "1", "--trace", str(trace), *extra],
        cwd=cwd, capture_output=True, text=True, timeout=170)


class Smoke(unittest.TestCase):
    def test_every_metric_with_its_unit_and_no_failed_op(self):
        for workload in (w["name"] for w in SPEC["workloads"]):
            for trace, group in ((0, "end_to_end"), (1, "per_layer")):
                with self.subTest(workload=workload, trace=trace):
                    p = bench(ROOT, workload, trace, "--smoke")
                    self.assertEqual(p.returncode, 0, p.stderr)
                    out = json.loads(p.stdout.strip().splitlines()[-1])
                    self.assertEqual(set(out), {"correct", "attempted", "failed", "metrics"})
                    units = {name: m["unit"] for name, m in out["metrics"].items()}
                    self.assertEqual(units, {m["name"]: m["unit"] for m in SPEC[group]})
                    self.assertGreaterEqual(out["attempted"], 1)
                    self.assertEqual(out["failed"], 0, p.stdout)  # ops_failed_frac == 0
                    self.assertTrue(out["correct"])
                    if trace:
                        self.assertEqual(out["metrics"]["trace.mismatches"]["value"], 0)

    def test_recorded_answers_cover_every_op_of_the_default_seed(self):
        code = (
            "import json, measure\n"
            "measure.import_library()\n"
            "import workloads\n"
            "answers = json.load(open(measure.EXPECTED))\n"
            "for name, cls in workloads.WORKLOADS.items():\n"
            "    wl = cls(False, str(measure.WORKDIR))\n"
            "    keys = {op.key for op in wl.ops(wl.setup(measure.DEFAULT_SEED))}\n"
            "    assert keys == set(answers[name]), name\n"
        )
        p = subprocess.run([sys.executable, "-c", code], cwd=HERE, capture_output=True,
                           text=True, timeout=170)
        self.assertEqual(p.returncode, 0, p.stderr)

    def test_refuses_to_run_without_the_library_sources(self):
        with tempfile.TemporaryDirectory() as tmp:
            shutil.copy(ROOT / "BENCHMARK.json", tmp)
            shutil.copytree(HERE, Path(tmp) / "perfbench",
                            ignore=shutil.ignore_patterns("__pycache__"))
            p = bench(Path(tmp), "suite", 0)
        self.assertNotEqual(p.returncode, 0)
        self.assertEqual(p.stdout.strip(), "")


if __name__ == "__main__":
    unittest.main()
