"""The benchmark's own tests (about two minutes):

    python3 perfbench/selftest.py

* a short untraced and a short traced pass of each workload, at the default
  seed so the stored reference applies, checking that every metric is
  printed by name with its unit and that the layer predictions hold;
* that BENCHMARK.json names exactly the metrics run.py prints;
* that the reference comparison flags a copy of a real report that the test
  corrupts itself: a value, a small value moved by ten times the tolerance
  relative (half of it absolute), and the subset bound that a
  hypercontractive row carries only in its note;
* that the benchmark refuses to run without the program's sources.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import tempfile
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import reference  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402

SEED = reference.DEFAULT_SEED


def bench(*args: str, cwd: str = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, os.path.join(cwd, "perfbench", "run.py"), *args],
                          cwd=cwd, capture_output=True, text=True, timeout=300)


class ShortPasses(unittest.TestCase):
    def check_pass(self, workload: str, trace: int, expected: list[tuple[str, str]]) -> list[str]:
        done = bench("--workload", workload, "--seed", str(SEED), "--seconds", "1",
                     "--trace", str(trace))
        self.assertEqual(done.returncode, 0, done.stderr)
        lines = done.stdout.strip().splitlines()
        result = json.loads(lines[-1])
        self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
        self.assertTrue(result["correct"], done.stdout[-3000:])
        self.assertEqual(result["failed"], 0)
        self.assertGreaterEqual(result["attempted"], 1)
        metrics = result["metrics"]
        self.assertEqual(sorted(metrics), sorted(name for name, _ in expected))
        for name, unit in expected:
            self.assertEqual(metrics[name]["unit"], unit, name)
            self.assertIsInstance(metrics[name]["value"], float, name)
            self.assertTrue(any(line.startswith(f"{name} ") and line.endswith(f" {unit}")
                                for line in lines[:-1]), f"{name} not printed with {unit}")
        self.assertIn("fail_share 0.0 ratio", lines)
        note = next(line for line in lines if line.startswith("machine: "))
        for key in ("nproc", "python", "numpy", "cubenoise", "seed", "caches", "working_set_bytes"):
            self.assertIn(f'"{key}"', note)
        return lines

    def test_untraced_passes(self):
        for name in workloads.NAMES:
            with self.subTest(workload=name):
                lines = self.check_pass(name, 0, list(run.END_TO_END))
                self.assertTrue(any(line.startswith("report_tail_ref is at p") for line in lines))

    def test_traced_passes(self):
        for name in workloads.NAMES:
            with self.subTest(workload=name):
                lines = self.check_pass(name, 1, run.per_layer_metrics())
                checks = [line for line in lines if line.startswith("layer check:")]
                self.assertTrue(checks)
                for line in checks:
                    self.assertTrue(line.endswith(": holds"), line)
                self.assertTrue(any(line.startswith("tracing overhead:") for line in lines))
                spans = os.path.join(run.BUILD, f"{name}-seed{SEED}-trace1", "spans.npz")
                self.assertTrue(os.path.exists(spans))


class Contract(unittest.TestCase):
    def test_benchmark_json_matches_run(self):
        with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
            spec = json.load(fh)
        self.assertEqual([(m["name"], m["unit"]) for m in spec["end_to_end"]], list(run.END_TO_END))
        self.assertEqual([(m["name"], m["unit"]) for m in spec["per_layer"]], run.per_layer_metrics())
        self.assertEqual({w["name"]: w["why"] for w in spec["workloads"]}, workloads.WHY)

    def test_refuses_without_sources(self):
        os.makedirs(os.path.join(ROOT, ".bench_build"), exist_ok=True)
        with tempfile.TemporaryDirectory(dir=os.path.join(ROOT, ".bench_build")) as bare:
            shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
            shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                            ignore=shutil.ignore_patterns("__pycache__"))
            done = bench("--workload", "verify", "--seed", "1", "--seconds", "1",
                         "--trace", "0", cwd=bare)
        self.assertNotEqual(done.returncode, 0)
        self.assertEqual(done.stdout, "")


class ReferenceCheck(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.stored = reference.load("verify")
        os.makedirs(run.BUILD, exist_ok=True)
        with tempfile.TemporaryDirectory(dir=run.BUILD) as out:
            # one report of each type: main, entropy, hypercontractive
            subprocess.run([sys.executable, os.path.join(HERE, "worker.py"), "--workload",
                            "verify", "--seed", str(SEED), "--reports", "3", "--out", out],
                           check=True, timeout=120)
            with open(os.path.join(out, "result.json"), encoding="utf-8") as fh:
                cls.reports = json.load(fh)["reports"]
        cls.report = cls.reports[0]

    @staticmethod
    def altered(report: dict, column: str, row: int, change) -> str:
        """A copy of the report with one cell of the gaps section changed."""
        lines = report["report"].splitlines()
        header = next(i for i, line in enumerate(lines) if line.startswith("inequality,"))
        col = lines[header].split(",").index(column)
        cells = lines[header + 1 + row].split(",")
        cells[col] = change(cells[col])
        lines[header + 1 + row] = ",".join(cells)
        return "\n".join(lines) + "\n"

    def test_report_matches_record(self):
        self.assertTrue(self.stored, "no stored reference for verify")
        for rec in self.reports:
            self.assertEqual(reference.compare(rec["report"], rec["rc"], self.stored[rec["index"]]), [])
            self.assertEqual(reference.invariants(rec["report"], rec["rc"]), [])

    def test_altered_value_is_flagged(self):
        bad = self.altered(self.report, "rhs", 1, lambda c: repr(float(c) * (1.0 + 1e-9)))
        problems = reference.compare(bad, 0, self.stored[0])
        self.assertTrue(any(p.startswith("gaps.rhs[1]") for p in problems), problems)
        # the check that needs no record sees the broken gap == rhs - lhs
        self.assertTrue(reference.invariants(bad, 0))

    def test_small_value_is_compared_relatively(self):
        # the smallest nonzero value of a column compared on its own scale,
        # moved by half of REL_TOL in absolute terms: ten times REL_TOL relative
        cols = reference.numeric_columns(reference.parse_report(self.report["report"]))["gaps"]
        column, row, value = min(
            ((c, r, v) for c, vals in cols.items()
             if c not in reference.DIFFERENCE_OF and c not in reference.RESIDUALS
             for r, v in enumerate(vals) if v),
            key=lambda item: abs(item[2]))
        self.assertLessEqual(abs(value), 0.05)
        bad = self.altered(self.report, column, row,
                           lambda c: repr(float(c) + 0.5 * reference.REL_TOL))
        problems = reference.compare(bad, 0, self.stored[0])
        self.assertTrue(any(p.startswith(f"gaps.{column}[{row}]") for p in problems), problems)

    def test_altered_note_value_is_flagged(self):
        # the hypercontractive rows carry the subset-averaging bound only in their note
        rec = self.reports[2]
        self.assertTrue(rec["type"].startswith("hypercontractive"), rec["type"])

        def change(cell: str) -> str:
            key, _, number = cell.partition("=")
            self.assertEqual(key, "subset_bound")
            return f"{key}={float(number) * (1.0 + 1e-9)!r}"

        bad = self.altered(rec, "note", 0, change)
        problems = reference.compare(bad, 0, self.stored[rec["index"]])
        self.assertTrue(any(p.startswith("gaps.note.subset_bound[0]") for p in problems), problems)

    def test_altered_exit_status_and_missing_section_are_flagged(self):
        self.assertTrue(reference.compare(self.report["report"], 1, self.stored[0]))
        self.assertTrue(reference.compare("# cubenoise-report v1\n", 0, self.stored[0]))
        self.assertTrue(reference.invariants("# cubenoise-report v1\n", 0))

    def test_extra_column_is_ignored(self):
        lines = self.report["report"].splitlines()
        widened = "\n".join(line + ",1" if not line.startswith("#") else line for line in lines)
        self.assertEqual(reference.compare(widened + "\n", 0, self.stored[0]), [])


if __name__ == "__main__":
    unittest.main(verbosity=2)
