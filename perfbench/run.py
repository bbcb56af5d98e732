#!/usr/bin/env python3
"""Build and run the l2sim benchmark for one workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the repository root. It checks its arguments, builds the
benchmark program (perfbench/CMakeLists.txt, which compiles the library from
src/ and include/) into .bench_build/, and replaces itself with it. Build
output goes to standard error. The last line of its standard
output is the JSON result. See perfbench/README.md.
"""

import argparse
import os
import subprocess
import sys

WORKLOADS = ("l2s-bcast-64", "trad-miss-16", "lard-http11-obs")
BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
BUILD_DIR = os.path.join(ROOT, ".bench_build")
BINARY = os.path.join(BUILD_DIR, "l2sim_perfbench")


def fail(message):
    print(f"run.py: {message}", file=sys.stderr)
    sys.exit(2)


def whole_number(low, high):
    def parse(text):
        if not (text.isascii() and text.isdigit()) or not low <= int(text) <= high:
            raise argparse.ArgumentTypeError(
                f"expected a whole number in [{low}, {high}], got {text!r}")
        return int(text)
    return parse


def parse_args(argv):
    parser = argparse.ArgumentParser(
        prog="run.py", description="Run one l2sim benchmark workload.",
        allow_abbrev=False)
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=whole_number(0, 2**64 - 1))
    parser.add_argument("--seconds", required=True, type=whole_number(1, 3600))
    parser.add_argument("--trace", required=True, choices=("0", "1"))
    return parser.parse_args(argv)


def build():
    if not (os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt"))
            and os.path.isdir(os.path.join(ROOT, "include", "l2sim"))):
        fail(f"no l2sim sources next to the benchmark (expected src/ and "
             f"include/l2sim/ under {ROOT})")
    jobs = str(min(4, os.cpu_count() or 1))
    cmds = [["cmake", "--build", BUILD_DIR, "--parallel", jobs]]
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        # Once configured, the build step re-runs CMake itself when needed.
        cmds.insert(0, ["cmake", "-S", BENCH_DIR, "-B", BUILD_DIR,
                        "-DCMAKE_BUILD_TYPE=Release"])
    # Keep the compiler's temporary files inside the build tree too.
    tmp = os.path.join(BUILD_DIR, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ, TMPDIR=tmp)
    for cmd in cmds:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr, env=env).returncode != 0:
            fail("building the benchmark failed: " + " ".join(cmd))


def main(argv):
    args = parse_args(argv)
    build()
    os.chdir(ROOT)
    # Become l2sim_perfbench: it is then the only process left running, and a
    # signal sent to this one reaches it.
    os.execv(BINARY, [BINARY, "--workload", args.workload, "--seed", str(args.seed),
                      "--seconds", str(args.seconds), "--trace", args.trace])


if __name__ == "__main__":
    main(sys.argv[1:])
