"""Tests of the benchmark itself (not of tvdecay).  Run from the repository
root with

    python3 benchmark/selftest.py        # or: python3 -m pytest benchmark/selftest.py

They use --smoke (small grids), so the whole file takes about a minute.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
import tempfile
import unittest
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import checks  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def run_bench(*args, cwd=ROOT, root=ROOT):
    """Run the benchmark; returns (exit code, parsed last stdout line or None, stdout)."""
    proc = subprocess.run(
        [sys.executable, str(root / "benchmark" / "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=300)
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        result = None
    return proc.returncode, result, proc.stdout + proc.stderr


def corrupt(suffix: str, data: bytes) -> bytes:
    """Change the first non-zero number by one part in a million."""
    if suffix == ".csv":
        lines = data.decode().splitlines(keepends=True)
        for i, line in enumerate(lines[1:], start=1):
            cells = line.rstrip("\n").split(",")
            for j, cell in enumerate(cells):
                if float(cell) != 0.0 and math.isfinite(float(cell)):
                    cells[j] = repr(float(cell) * (1 + 1e-6))
                    lines[i] = ",".join(cells) + "\n"
                    return "".join(lines).encode()
    else:
        doc = json.loads(data)
        stack = [doc]
        while stack:
            node = stack.pop()
            items = node.items() if isinstance(node, dict) else enumerate(node)
            for key, value in items:
                if isinstance(value, float) and value != 0.0 and math.isfinite(value):
                    node[key] = value * (1 + 1e-6)
                    return json.dumps(doc).encode()
                if isinstance(value, (dict, list)):
                    stack.append(value)
    raise ValueError("nothing to corrupt")


def scratch_dir() -> Path:
    (ROOT / ".bench_work").mkdir(exist_ok=True)
    return Path(tempfile.mkdtemp(dir=ROOT / ".bench_work"))


class SmokeRunEmitsEveryMetric(unittest.TestCase):
    def check(self, trace: int, declared: list):
        for wl in (w["name"] for w in SPEC["workloads"]):
            with self.subTest(workload=wl):
                rc, result, out = run_bench("--workload", wl, "--seed", "3",
                                            "--seconds", "1", "--trace", str(trace),
                                            "--smoke")
                self.assertEqual(rc, 0, out)
                self.assertEqual(set(result), {"correct", "attempted", "failed",
                                               "metrics"})
                self.assertTrue(result["correct"], out)
                self.assertGreaterEqual(result["attempted"], 1)
                self.assertEqual(result["failed"], 0)
                got = {k: v["unit"] for k, v in result["metrics"].items()}
                self.assertEqual(got, {m["name"]: m["unit"] for m in declared})
                for name, m in result["metrics"].items():
                    self.assertIsInstance(m["value"], (int, float), name)
                    self.assertIn(f"# {name} ", out)     # printed with its count

    def test_end_to_end_metrics(self):
        self.check(0, SPEC["end_to_end"])

    def test_per_layer_metrics(self):
        self.check(1, SPEC["per_layer"])


class ReferenceNegativeControl(unittest.TestCase):
    """A corrupted reference output must be reported as a failure."""

    def test_corrupted_reference_fails_the_run(self):
        refs = scratch_dir()
        try:
            args = ("--workload", "ou_longrun", "--seed", "0", "--seconds", "1",
                    "--trace", "0", "--smoke", "--reference", str(refs))
            rc, result, out = run_bench(*args, "--write-reference")
            self.assertEqual(rc, 0, out)
            rc, result, out = run_bench(*args)
            self.assertTrue(result["correct"], out)

            csv = refs / "ou_longrun" / "compare" / "curves.csv"
            csv.write_bytes(corrupt(".csv", csv.read_bytes()))
            rc, result, out = run_bench(*args)
            self.assertEqual(rc, 0, out)
            self.assertFalse(result["correct"], out)
            self.assertEqual(result["failed"], result["attempted"])
            self.assertIn("column tv: 1 values differ", out)
        finally:
            shutil.rmtree(refs, ignore_errors=True)

    def test_committed_references_reject_corruption(self):
        for path in sorted((BENCH / "reference").rglob("*.*")):
            data = path.read_bytes()
            with self.subTest(path=str(path.relative_to(BENCH))):
                self.assertEqual(checks.compare_to_reference(path.name, data, data), [])
                bad = corrupt(path.suffix, data)
                self.assertNotEqual(bad, data)
                self.assertTrue(checks.compare_to_reference(path.name, data, bad))


class Inputs(unittest.TestCase):
    def test_seed_determines_inputs(self):
        for name in workloads.WORKLOADS:
            with self.subTest(workload=name):
                self.assertEqual(workloads.build(name, 7), workloads.build(name, 7))
                self.assertNotEqual(workloads.build(name, 7), workloads.build(name, 8))

    def test_seed_keeps_the_amount_of_work(self):
        """Seeds draw parameters, never grid sizes, step counts or verbs."""
        fixed = ("grid.n_points", "sim.dt", "sim.t_end", "sim.save_every")
        for name in workloads.WORKLOADS:
            a, b = workloads.build(name, 1), workloads.build(name, 2)
            shape = lambda wl: sorted((c.id, c.verb, c.extra,
                                       tuple(c.config.get(k) for k in fixed))
                                      for c in wl.commands)
            self.assertEqual(shape(a), shape(b), name)

    def test_benchmark_json_names_the_workloads(self):
        self.assertEqual({w["name"] for w in SPEC["workloads"]}, set(workloads.WORKLOADS))


class WithoutTheProgram(unittest.TestCase):
    def test_exits_nonzero_without_sources(self):
        bare = scratch_dir()
        try:
            shutil.copy(ROOT / "BENCHMARK.json", bare)
            shutil.copytree(BENCH, bare / "benchmark",
                            ignore=shutil.ignore_patterns("__pycache__"))
            rc, result, out = run_bench("--workload", "ou_longrun", "--seed", "0",
                                        "--seconds", "1", "--trace", "0",
                                        cwd=bare, root=bare)
            self.assertNotEqual(rc, 0, out)
            self.assertIsNone(result, out)
        finally:
            shutil.rmtree(bare, ignore_errors=True)


if __name__ == "__main__":
    unittest.main()
