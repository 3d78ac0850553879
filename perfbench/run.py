#!/usr/bin/env python3
"""Benchmark entry point.

    python3 perfbench/run.py --workload train|generate|serve --seed N \
        --seconds S --trace 0|1

Run from the repository root. Builds tmm_perfbench (perfbench/CMakeLists.txt,
which compiles the repository's src/ libraries) into $CARGO_TARGET_DIR, or
.bench_build when unset, then runs one workload. Build output goes to
stderr; its stdout passes through, and its last line is the
result as one JSON object. Exits non-zero without a result when the
build or the run fails.
"""

import argparse
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 175


def build(build_dir):
    """Configures (once) and builds tmm_perfbench; returns its path."""
    def configure():
        return subprocess.run(
            ["cmake", "-S", HERE, "-B", build_dir,
             "-DCMAKE_BUILD_TYPE=Release"],
            stdout=sys.stderr, stderr=sys.stderr).returncode

    if configure() != 0:
        # A cache left by another source tree: start over once.
        shutil.rmtree(build_dir, ignore_errors=True)
        if configure() != 0:
            sys.exit("perfbench: cmake configure failed")
    jobs = str(min(4, os.cpu_count() or 1))
    if subprocess.run(
            ["cmake", "--build", build_dir, "-j", jobs,
             "--target", "tmm_perfbench"],
            stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
        sys.exit("perfbench: build failed")
    return os.path.join(build_dir, "tmm_perfbench")


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True,
                        choices=["train", "generate", "serve"])
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, choices=["0", "1"])
    args = parser.parse_args()

    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        sys.exit("perfbench: no src/ next to perfbench/; run from a full "
                 "checkout of the repository")
    build_dir = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(build_dir):
        build_dir = os.path.join(ROOT, build_dir)
    binary = build(build_dir)

    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", args.trace]
    proc = subprocess.Popen(cmd, cwd=ROOT)
    try:
        code = proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        sys.exit("perfbench: run timed out")
    sys.exit(code)


if __name__ == "__main__":
    main()
