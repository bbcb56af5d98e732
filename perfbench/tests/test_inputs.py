"""The benchmark rejects bad inputs with a clear message and a non-zero exit.

    python3 -m unittest discover -s perfbench/tests

The run.py cases need no build. The l2sim_perfbench cases run the built
program when .bench_build/ holds one, and are skipped otherwise.
"""

import json
import os
import shutil
import subprocess
import sys
import tempfile
import unittest

BENCH_DIR = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH_DIR)
RUN_PY = os.path.join(BENCH_DIR, "run.py")
BINARY = os.path.join(ROOT, ".bench_build", "l2sim_perfbench")

GOOD = {"--workload": "trad-miss-16", "--seed": "1", "--seconds": "1", "--trace": "0"}

BAD = [
    ("unknown workload", {"--workload": "nope"}, "nope"),
    ("negative seed", {"--seed": "-1"}, "--seed"),
    ("fractional seed", {"--seed": "1.5"}, "--seed"),
    ("seed past 2^64", {"--seed": str(2**64)}, "--seed"),
    ("text seed", {"--seed": "abc"}, "--seed"),
    ("zero seconds", {"--seconds": "0"}, "--seconds"),
    ("trace not 0/1", {"--trace": "2"}, "--trace"),
]


def argv(overrides, drop=None, extra=()):
    args = dict(GOOD, **overrides)
    if drop:
        del args[drop]
    out = []
    for flag, value in args.items():
        out += [flag, value]
    return out + list(extra)


def run(cmd, cwd=ROOT):
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=170)


class Rejects:
    """Cases shared by run.py and l2sim_perfbench; `command` builds argv."""

    def command(self, args):
        raise NotImplementedError

    def assert_rejected(self, args, needle):
        result = run(self.command(args))
        self.assertNotEqual(result.returncode, 0, result.stdout)
        self.assertNotIn('"metrics"', result.stdout)
        self.assertIn(needle, result.stderr)

    def test_bad_values(self):
        for label, overrides, needle in BAD:
            with self.subTest(label):
                self.assert_rejected(argv(overrides), needle)

    def test_unknown_flag(self):
        self.assert_rejected(argv({}, extra=["--bogus", "1"]), "--bogus")

    def test_missing_flag(self):
        self.assert_rejected(argv({}, drop="--seed"), "--seed")


class RunPyRejects(Rejects, unittest.TestCase):
    def command(self, args):
        return [sys.executable, RUN_PY] + args

    def test_workloads_match_benchmark_json(self):
        sys.path.insert(0, BENCH_DIR)
        try:
            import run
        finally:
            sys.path.pop(0)
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            declared = [w["name"] for w in json.load(f)["workloads"]]
        self.assertEqual(list(run.WORKLOADS), declared)

    def test_without_sources(self):
        # A directory holding only BENCHMARK.json and the benchmark: no
        # library to build, so no result.
        os.makedirs(os.path.join(ROOT, ".bench_build"), exist_ok=True)
        with tempfile.TemporaryDirectory(dir=os.path.join(ROOT, ".bench_build")) as tmp:
            shutil.copytree(BENCH_DIR, os.path.join(tmp, "perfbench"),
                            ignore=shutil.ignore_patterns("__pycache__"))
            shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp)
            result = run([sys.executable, "perfbench/run.py"] + argv({}), cwd=tmp)
            self.assertNotEqual(result.returncode, 0)
            self.assertNotIn('"metrics"', result.stdout)
            self.assertIn("no l2sim sources", result.stderr)


@unittest.skipUnless(os.access(BINARY, os.X_OK), "l2sim_perfbench not built")
class DriverRejects(Rejects, unittest.TestCase):
    def command(self, args):
        return [BINARY] + args


if __name__ == "__main__":
    unittest.main()
